// Fixture: a test that builds its scratch path at the call site instead
// of asking gtl_core::testdir::test_dir for one.

pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, "1 2\n1 2\n")
}

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join(format!("io-{}", std::process::id()));
        super::write(&dir.join("t.hgr")).unwrap();
    }
}
