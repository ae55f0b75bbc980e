//! Streaming generation of multi-million-cell ISPD-like designs.
//!
//! [`crate::ispd_like::generate`] materializes the whole netlist in a
//! [`NetlistBuilder`] — fine at paper scale, but a 10M-cell design would
//! hold hundreds of MB of pins in memory just to serialize them again.
//! This module emits the same *kind* of design (embedded logic structures
//! on the low cell ids, a Rent-rule background wired by recursive
//! bipartition, boundary nets tying the two together) directly to a
//! [`Write`] sink as `.hgr` text in bounded memory: the only live state is
//! one structure's temporary builder, the recursion stack (`O(log cells)`)
//! and a reusable pin buffer.
//!
//! The `.hgr` header needs the net count before the body, so generation
//! runs twice with identical RNG streams: a counting pass, then the write
//! pass. Output is byte-deterministic for a given config, and a test pins
//! that the streamed bytes equal an in-memory twin built through
//! [`NetlistBuilder`].
//!
//! # Example
//!
//! ```
//! use gtl_synth::stream::{write_hgr, StreamDesignConfig};
//!
//! let mut out = Vec::new();
//! let stats = write_hgr(&StreamDesignConfig::new(2_000), &mut out)?;
//! assert_eq!(stats.cells, 2_000);
//! let nl = gtl_netlist::hgr::parse(out.as_slice(), "<streamed>")?;
//! assert_eq!(nl.num_cells(), 2_000);
//! # Ok::<(), gtl_netlist::NetlistError>(())
//! ```

use std::io::{BufWriter, Write};
use std::path::Path;

use gtl_netlist::{NetlistBuilder, NetlistError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::structures;

/// Configuration for the streaming ISPD-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamDesignConfig {
    /// Total number of cells in the design.
    pub cells: usize,
    /// RNG seed; same seed + config = byte-identical output.
    pub seed: u64,
    /// Target Rent exponent of the background wiring.
    pub rent_exponent: f64,
    /// How many logic structures to embed on the low cell ids.
    pub structures: usize,
}

impl StreamDesignConfig {
    /// A config for `cells` cells with the defaults used by
    /// [`crate::ispd_like`]: Rent exponent 0.65, seed `0x15bd`, and a
    /// structure count that grows with the design (`~cells^0.4`, min 3).
    pub fn new(cells: usize) -> Self {
        let structures = ((cells as f64).powf(0.4) as usize).clamp(3, 512);
        Self { cells, seed: 0x15bd, rent_exponent: 0.65, structures }
    }
}

/// Size report from a completed [`write_hgr`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Cells in the design (equals `config.cells`).
    pub cells: usize,
    /// Nets emitted.
    pub nets: usize,
    /// Total pins emitted (after per-net dedup).
    pub pins: u64,
}

/// Streams an ISPD-like design to `out` as `.hgr` text in bounded memory.
///
/// # Panics
///
/// Panics if `config.cells < 64` — smaller designs should use the
/// in-memory [`crate::ispd_like::generate`].
///
/// # Errors
///
/// Returns [`NetlistError::Io`] on write failure.
pub fn write_hgr<W: Write>(
    config: &StreamDesignConfig,
    out: W,
) -> Result<StreamStats, NetlistError> {
    assert!(config.cells >= 64, "streaming generator needs at least 64 cells");

    // Pass 1: count nets (the .hgr header precedes the body).
    let mut nets = 0usize;
    let mut pins = 0u64;
    emit_nets(config, &mut |net: &[u32]| {
        nets += 1;
        pins += net.len() as u64;
        Ok(())
    })?;

    // Pass 2: identical generation, this time writing lines.
    let mut w = BufWriter::new(out);
    writeln!(w, "{} {}", nets, config.cells)?;
    let mut line = String::with_capacity(128);
    emit_nets(config, &mut |net: &[u32]| {
        line.clear();
        for (k, pin) in net.iter().enumerate() {
            if k > 0 {
                line.push(' ');
            }
            // .hgr pins are 1-based.
            let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{}", pin + 1));
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
        Ok(())
    })?;
    w.flush()?;
    Ok(StreamStats { cells: config.cells, nets, pins })
}

/// [`write_hgr`] to a file path.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] on create/write failure.
pub fn write_hgr_file(
    config: &StreamDesignConfig,
    path: impl AsRef<Path>,
) -> Result<StreamStats, NetlistError> {
    let file = std::fs::File::create(path)?;
    write_hgr(config, file)
}

/// Runs one full deterministic generation, handing each net's deduped
/// 0-based pins to `sink` in emission order. Both [`write_hgr`] passes and
/// the in-memory equivalence test drive this same function.
fn emit_nets(
    config: &StreamDesignConfig,
    sink: &mut dyn FnMut(&[u32]) -> Result<(), NetlistError>,
) -> Result<(), NetlistError> {
    // gtl-lint: allow(no-rng-outside-derive-stream, reason = "generator master stream; generation is single-threaded and sequential")
    let mut rng = SmallRng::seed_from_u64(config.seed ^ config.cells as u64);
    let mut pins: Vec<u32> = Vec::with_capacity(16);

    // --- Embedded structures on the low cell ids -----------------------
    // Each structure lives in its own small temporary builder; only its
    // (base, len) range survives, for the boundary-net pass below.
    let budget = config.cells / 2;
    let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(config.structures);
    let mut base = 0u32;
    for i in 0..config.structures {
        if base as usize >= budget {
            break;
        }
        let mut b = NetlistBuilder::new();
        match i % 4 {
            0 => structures::decoder(&mut b, rng.gen_range(5..=8)),
            1 => structures::mux_tree(&mut b, rng.gen_range(6..=9)),
            2 => structures::multiplier_array(&mut b, rng.gen_range(6..=12)),
            _ => structures::ripple_carry_adder(&mut b, rng.gen_range(32..=128)),
        };
        let built = b.finish();
        for net in built.nets() {
            pins.clear();
            pins.extend(built.net_cells(net).iter().map(|c| base + c.index() as u32));
            sink(&pins)?;
        }
        ranges.push((base, built.num_cells() as u32));
        base += built.num_cells() as u32;
    }

    // --- Rent-rule background ------------------------------------------
    let bg_lo = base;
    let bg_hi = config.cells as u32;
    rent_wire_range(bg_lo, bg_hi, config.rent_exponent, &mut rng, &mut pins, sink)?;

    // --- Structure boundary nets ---------------------------------------
    if bg_hi > bg_lo {
        for &(lo, len) in &ranges {
            let links = ((len as f64).sqrt() as usize).max(4);
            for _ in 0..links {
                let inside = lo + rng.gen_range(0..len);
                let deg = crate::sample_net_degree(&mut rng, 6);
                pins.clear();
                pins.push(inside);
                for _ in 1..deg {
                    push_dedup(&mut pins, rng.gen_range(bg_lo..bg_hi));
                }
                sink(&pins)?;
            }
        }
    }
    Ok(())
}

/// Rent-rule wiring over the index range `[lo, hi)`, mirroring
/// [`crate::ispd_like::rent_wire`] but without materializing cell slices:
/// a region of `m` cells gets `~0.75·m^p` nets crossing its midline.
fn rent_wire_range(
    lo: u32,
    hi: u32,
    rent_exponent: f64,
    rng: &mut SmallRng,
    pins: &mut Vec<u32>,
    sink: &mut dyn FnMut(&[u32]) -> Result<(), NetlistError>,
) -> Result<(), NetlistError> {
    let m = (hi - lo) as usize;
    if m < 2 {
        return Ok(());
    }
    if m <= 8 {
        for c in lo..hi - 1 {
            pins.clear();
            pins.push(c);
            pins.push(c + 1);
            sink(pins)?;
        }
        return Ok(());
    }
    let mid = lo + (m / 2) as u32;
    rent_wire_range(lo, mid, rent_exponent, rng, pins, sink)?;
    rent_wire_range(mid, hi, rent_exponent, rng, pins, sink)?;
    let cross = (0.75 * (m as f64).powf(rent_exponent)).ceil() as usize;
    for _ in 0..cross {
        let deg = crate::sample_net_degree(rng, 8);
        pins.clear();
        // At least one pin per side so the net truly crosses the midline.
        pins.push(lo + rng.gen_range(0..mid - lo));
        push_dedup(pins, mid + rng.gen_range(0..hi - mid));
        for _ in 2..deg {
            push_dedup(pins, lo + rng.gen_range(0..hi - lo));
        }
        sink(pins)?;
    }
    Ok(())
}

/// Keep-first-occurrence dedup, matching [`NetlistBuilder::add_net`]
/// semantics so streamed bytes re-parse to the identical netlist.
fn push_dedup(pins: &mut Vec<u32>, pin: u32) {
    if !pins.contains(&pin) {
        pins.push(pin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::{hgr, CellId};

    #[test]
    fn output_is_deterministic() {
        let cfg = StreamDesignConfig::new(3_000);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let sa = write_hgr(&cfg, &mut a).unwrap();
        let sb = write_hgr(&cfg, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.nets > 0 && sa.pins > 0);
    }

    #[test]
    fn streamed_bytes_match_in_memory_twin() {
        // Feed the same emission into a NetlistBuilder and compare the
        // serialized forms byte for byte: proves the streaming writer and
        // the in-memory path describe the identical netlist.
        let cfg = StreamDesignConfig::new(1_500);
        let mut streamed = Vec::new();
        let stats = write_hgr(&cfg, &mut streamed).unwrap();

        let mut b = NetlistBuilder::with_capacity(cfg.cells, stats.nets);
        b.add_anonymous_cells(cfg.cells);
        emit_nets(&cfg, &mut |net| {
            b.add_anonymous_net(net.iter().map(|&p| CellId::new(p as usize)));
            Ok(())
        })
        .unwrap();
        let twin = b.finish();
        assert_eq!(String::from_utf8(streamed).unwrap(), hgr::to_string(&twin));
        assert_eq!(twin.num_pins() as u64, stats.pins);
    }

    #[test]
    fn streamed_design_parses_with_exact_cell_count() {
        let cfg = StreamDesignConfig { cells: 5_000, seed: 7, rent_exponent: 0.6, structures: 6 };
        let mut out = Vec::new();
        let stats = write_hgr(&cfg, &mut out).unwrap();
        let nl = hgr::parse(out.as_slice(), "<streamed>").unwrap();
        assert_eq!(nl.num_cells(), 5_000);
        assert_eq!(nl.num_nets(), stats.nets);
        assert_eq!(nl.num_pins() as u64, stats.pins);
        nl.validate().unwrap();
        // Pin density in a plausible standard-cell range.
        let a_g = nl.avg_pins_per_cell();
        assert!((1.5..8.0).contains(&a_g), "A(G) = {a_g}");
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = StreamDesignConfig::new(1_000);
        let mut a = Vec::new();
        write_hgr(&cfg, &mut a).unwrap();
        cfg.seed ^= 1;
        let mut b = Vec::new();
        write_hgr(&cfg, &mut b).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn file_writer_roundtrips() {
        let dir = gtl_core::testdir::test_dir("gtl_synth_stream_test", "file_writer_roundtrips");
        let path = dir.join("streamed.hgr");
        let stats = write_hgr_file(&StreamDesignConfig::new(800), &path).unwrap();
        let nl = hgr::read(&path).unwrap();
        assert_eq!(nl.num_cells(), 800);
        assert_eq!(nl.num_nets(), stats.nets);
    }

    #[test]
    #[should_panic(expected = "at least 64 cells")]
    fn tiny_design_panics() {
        let _ = write_hgr(&StreamDesignConfig::new(10), &mut Vec::new());
    }
}
