//! hMETIS-style plain hypergraph format (`.hgr`).
//!
//! The format is a de-facto interchange standard in partitioning research
//! and is handy for fixtures: the first non-comment line holds
//! `<num_nets> <num_cells>`, and each following line lists the 1-based cell
//! indices of one net. Lines starting with `%` are comments.
//!
//! # Example
//!
//! ```
//! use gtl_netlist::hgr;
//!
//! let text = "% tiny\n2 3\n1 2\n2 3\n";
//! let nl = hgr::parse_str(text)?;
//! assert_eq!(nl.num_cells(), 3);
//! assert_eq!(nl.num_nets(), 2);
//! let out = hgr::to_string(&nl);
//! let again = hgr::parse_str(&out)?;
//! assert_eq!(again.num_pins(), nl.num_pins());
//! # Ok::<(), gtl_netlist::NetlistError>(())
//! ```

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::path::Path;

use crate::stream::{LineScanner, DEFAULT_MAX_LINE_BYTES};
use crate::{CellId, Netlist, NetlistBuilder, NetlistError, ParseContext};

/// Parses a `.hgr` hypergraph from a reader.
///
/// Streams through a bounded line buffer (see [`crate::stream`]); the
/// whole file is never materialized, so multi-million-cell designs parse
/// in memory proportional to the netlist itself, not the file. A mut
/// reference to a reader can be passed (`&mut reader`) thanks to the
/// blanket `Read for &mut R` impl.
///
/// # Errors
///
/// Returns [`NetlistError::Syntax`] on malformed numbers or out-of-range
/// pins, and [`NetlistError::CountMismatch`] if the header count disagrees
/// with the body.
pub fn parse<R: Read>(reader: R, label: &str) -> Result<Netlist, NetlistError> {
    parse_with(reader, label, DEFAULT_MAX_LINE_BYTES)
}

/// [`parse`] with an explicit per-line byte cap.
///
/// A line longer than `max_line_bytes` fails with
/// [`NetlistError::Syntax`] instead of growing the scan buffer — useful
/// when ingesting untrusted files.
///
/// # Errors
///
/// Same as [`parse`], plus the over-long-line rejection.
pub fn parse_with<R: Read>(
    reader: R,
    label: &str,
    max_line_bytes: usize,
) -> Result<Netlist, NetlistError> {
    let mut scanner = LineScanner::with_max_line(reader, label, max_line_bytes);

    let (num_nets, num_cells) = loop {
        match scanner.next_line()? {
            Some((no, line)) => {
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('%') {
                    continue;
                }
                let mut parts = trimmed.split_whitespace();
                let num_nets: usize = parse_num(parts.next(), label, no, "net count")?;
                let num_cells: usize = parse_num(parts.next(), label, no, "cell count")?;
                if let Some(fmt) = parts.next() {
                    if fmt != "0" {
                        return Err(NetlistError::syntax(
                            ParseContext::new(label, no),
                            format!("weighted hgr format `{fmt}` is not supported"),
                        ));
                    }
                }
                break (num_nets, num_cells);
            }
            None => {
                return Err(NetlistError::syntax(ParseContext::new(label, 1), "empty hgr file"))
            }
        }
    };

    let mut builder = NetlistBuilder::with_capacity(num_cells, num_nets);
    builder.add_anonymous_cells(num_cells);

    let mut nets_read = 0usize;
    let mut pins: Vec<CellId> = Vec::new();
    while let Some((no, line)) = scanner.next_line()? {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        if nets_read == num_nets {
            return Err(NetlistError::CountMismatch {
                what: "nets".into(),
                declared: num_nets,
                found: nets_read + 1,
            });
        }
        pins.clear();
        for tok in trimmed.split_whitespace() {
            let idx: usize = parse_num(Some(tok), label, no, "pin")?;
            if idx == 0 || idx > num_cells {
                return Err(NetlistError::syntax(
                    ParseContext::new(label, no),
                    format!("pin index {idx} out of range 1..={num_cells}"),
                ));
            }
            pins.push(CellId::new(idx - 1));
        }
        builder.add_anonymous_net(pins.iter().copied());
        nets_read += 1;
    }
    if nets_read != num_nets {
        return Err(NetlistError::CountMismatch {
            what: "nets".into(),
            declared: num_nets,
            found: nets_read,
        });
    }
    Ok(builder.finish())
}

/// Parses a `.hgr` hypergraph from a string.
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_str(text: &str) -> Result<Netlist, NetlistError> {
    parse(text.as_bytes(), "<string>")
}

/// Reads a `.hgr` file from disk.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] on I/O failure plus everything [`parse`]
/// can return.
pub fn read(path: impl AsRef<Path>) -> Result<Netlist, NetlistError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)?;
    parse(file, &path.display().to_string())
}

/// Serializes a netlist to `.hgr` text.
///
/// Cell names and areas are not representable in this format and are
/// dropped; a round-trip preserves only connectivity.
pub fn to_string(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", netlist.num_nets(), netlist.num_cells());
    for net in netlist.nets() {
        let mut first = true;
        for &cell in netlist.net_cells(net) {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{}", cell.index() + 1);
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Writes a netlist as `.hgr` to disk.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] on I/O failure.
pub fn write(netlist: &Netlist, path: impl AsRef<Path>) -> Result<(), NetlistError> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_string(netlist).as_bytes())?;
    Ok(())
}

fn parse_num(
    tok: Option<&str>,
    label: &str,
    line: usize,
    what: &str,
) -> Result<usize, NetlistError> {
    let tok = tok.ok_or_else(|| {
        NetlistError::syntax(ParseContext::new(label, line), format!("missing {what}"))
    })?;
    tok.parse().map_err(|_| {
        NetlistError::syntax(ParseContext::new(label, line), format!("invalid {what} `{tok}`"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let nl = parse_str("3 4\n1 2\n2 3 4\n1 4\n").unwrap();
        assert_eq!(nl.num_cells(), 4);
        assert_eq!(nl.num_nets(), 3);
        assert_eq!(nl.num_pins(), 7);
        nl.validate().unwrap();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let nl = parse_str("% header\n\n2 2\n% net one\n1 2\n\n1 2\n").unwrap();
        assert_eq!(nl.num_nets(), 2);
    }

    #[test]
    fn count_mismatch_too_few() {
        let err = parse_str("2 2\n1 2\n").unwrap_err();
        assert!(matches!(err, NetlistError::CountMismatch { declared: 2, found: 1, .. }));
    }

    #[test]
    fn count_mismatch_too_many() {
        let err = parse_str("1 2\n1 2\n1 2\n").unwrap_err();
        assert!(matches!(err, NetlistError::CountMismatch { .. }));
    }

    #[test]
    fn out_of_range_pin() {
        let err = parse_str("1 2\n1 3\n").unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn zero_pin_rejected() {
        let err = parse_str("1 2\n0 1\n").unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn empty_file_rejected() {
        assert!(parse_str("").is_err());
        assert!(parse_str("% only comments\n").is_err());
    }

    #[test]
    fn weighted_format_rejected() {
        let err = parse_str("1 2 11\n1 2\n").unwrap_err();
        assert!(err.to_string().contains("not supported"));
    }

    #[test]
    fn truncated_body_reports_count_mismatch() {
        // Simulates a file cut off mid-transfer: header promises 3 nets
        // but the stream ends after one.
        let err = parse_str("3 4\n1 2\n").unwrap_err();
        assert!(matches!(err, NetlistError::CountMismatch { declared: 3, found: 1, .. }));
    }

    #[test]
    fn unterminated_final_net_line_still_parses() {
        let nl = parse_str("2 3\n1 2\n2 3").unwrap();
        assert_eq!(nl.num_nets(), 2);
        assert_eq!(nl.num_pins(), 4);
    }

    #[test]
    fn oversized_line_rejected_with_cap() {
        let mut text = String::from("1 64\n");
        for i in 1..=64 {
            text.push_str(&format!("{i} "));
        }
        text.push('\n');
        let err = parse_with(text.as_bytes(), "<capped>", 32).unwrap_err();
        assert!(err.to_string().contains("maximum length"), "{err}");
        // The same input parses fine without the tight cap.
        assert!(parse_str(&text).is_ok());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let bytes: &[u8] = b"1 2\n1 \xff2\n";
        let err = parse(bytes, "<bin>").unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn roundtrip() {
        let nl = parse_str("2 3\n1 2 3\n2 3\n").unwrap();
        let text = to_string(&nl);
        let again = parse_str(&text).unwrap();
        assert_eq!(again.num_cells(), nl.num_cells());
        assert_eq!(again.num_nets(), nl.num_nets());
        assert_eq!(again.num_pins(), nl.num_pins());
    }

    #[test]
    fn file_roundtrip() {
        let dir = gtl_core::testdir::test_dir("gtl_hgr_test", "file_roundtrip");
        let path = dir.join("t.hgr");
        let nl = parse_str("1 2\n1 2\n").unwrap();
        write(&nl, &path).unwrap();
        let again = read(&path).unwrap();
        assert_eq!(again.num_nets(), 1);
    }
}
