//! Frozen sharded placements.
//!
//! Places a fixed ISPD-like design (adaptec1 shape, ~4.2k cells) with an
//! explicit 2×2 and 3×3 shard grid at 1 and 2 workers, and folds the bits
//! of every x and y coordinate into an FNV-1a digest per grid. The
//! constants were recorded from the placer whose shard solve ran the
//! single-axis CG once per axis and found boundary cells by a serial
//! filter over the Laplacian, so any later change to the shard kernel or
//! the stitch must reproduce those placements bit for bit.
//!
//! The digest is hand-rolled on purpose: `DefaultHasher`'s algorithm is
//! not stable across Rust releases.

use tangled_logic::place::{place, Die, Placement, PlacerConfig};
use tangled_logic::synth::ispd_like::{generate, IspdBenchmark, IspdLikeConfig};

/// 64-bit FNV-1a over the coordinate bits, x then y per cell.
fn digest(placement: &Placement) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (x, y) in placement.xs().iter().zip(placement.ys()) {
        for bytes in [x.to_bits().to_le_bytes(), y.to_bits().to_le_bytes()] {
            for b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn sharded_placements_match_frozen_digests() {
    let g = generate(&IspdLikeConfig::new(IspdBenchmark::Adaptec1, 0.02));
    let nl = &g.netlist;
    assert!(nl.num_cells() > 4_000, "fixture too small: {}", nl.num_cells());
    let die = Die::for_netlist(nl, 0.6);

    let cases = [(2usize, 0x6d7f_ef3e_23f4_e530u64), (3, 0x87fd_7e7c_b0e7_86c9)];
    let mut mismatches = Vec::new();
    for (shard_grid, expected) in cases {
        for threads in [1usize, 2] {
            let config = PlacerConfig { shard_grid, threads, ..PlacerConfig::default() };
            let got = digest(&place(nl, &die, &config));
            if got != expected {
                mismatches.push(format!(
                    "grid {shard_grid} threads {threads}: got {got:#018x}, expected {expected:#018x}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "placement digests moved:\n{}", mismatches.join("\n"));
}
