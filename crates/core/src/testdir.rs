//! Per-test scratch directories.
//!
//! Tests run in parallel, within one test binary and across binaries,
//! so a fixed path under the system temp directory lets one test rewrite
//! a file while another reads it. [`test_dir`] gives every test a
//! directory of its own, named by a prefix, the process id and the test.
//! It is the one place in the workspace that calls
//! [`std::env::temp_dir`]; `gtl-lint`'s `temp-dir-via-helper` rule bans
//! the call everywhere else.

use std::path::PathBuf;

/// Creates (if needed) and returns `<temp>/<prefix>-<pid>-<test>`, where
/// `<temp>` is [`std::env::temp_dir`] and `<pid>` the current process
/// id. Contents left by an earlier call are kept.
///
/// # Panics
///
/// Panics if the directory cannot be created.
///
/// # Example
///
/// ```
/// let dir = gtl_core::testdir::test_dir("gtl_doc", "example");
/// assert!(dir.is_dir());
/// assert!(dir.ends_with(format!("gtl_doc-{}-example", std::process::id())));
/// ```
pub fn test_dir(prefix: &str, test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{prefix}-{}-{test}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        panic!("cannot create test directory {}: {e}", dir.display());
    }
    dir
}
