//! Frozen Phase I orderings.
//!
//! Grows 16 seeds on a fixed ~5k-cell planted design under both growth
//! criteria, with and without the λ-threshold skip, and folds every
//! ordering (cells plus the cut, pin and absorbed profiles) into an
//! FNV-1a digest per configuration. The constants were recorded from the
//! grower before its packed-key rewrite, so any later change to the
//! Phase I internals must reproduce those orderings bit for bit.
//!
//! The digest is hand-rolled on purpose: `DefaultHasher`'s algorithm is
//! not stable across Rust releases.

use tangled_logic::netlist::{CellId, Netlist, NetlistBuilder};
use tangled_logic::synth::planted::{generate, PlantedConfig};
use tangled_logic::tangled::{GrowthConfig, GrowthCriterion, LinearOrdering, OrderingGrower};

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ordering(&mut self, ord: &LinearOrdering) {
        self.write(&(ord.len() as u64).to_le_bytes());
        for (k, cell) in ord.cells().iter().enumerate() {
            let stats = ord.stats_at(k);
            self.write(&cell.raw().to_le_bytes());
            self.write(&(stats.cut as u64).to_le_bytes());
            self.write(&(stats.pins as u64).to_le_bytes());
            self.write(&(stats.internal_nets as u64).to_le_bytes());
        }
    }
}

/// A two-block planted design plus 40 wide nets (24 to 47 pins). The
/// generator's nets stay below 12 pins, so without the wide ones the
/// λ-threshold skip would never fire.
fn design() -> Netlist {
    let planted = generate(&PlantedConfig {
        num_cells: 5_000,
        blocks: vec![400, 250],
        seed: 14,
        ..PlantedConfig::default()
    })
    .netlist;
    let n = planted.num_cells();
    let mut b = NetlistBuilder::new();
    b.add_anonymous_cells(n);
    for net in planted.nets() {
        b.add_anonymous_net(planted.net_cells(net).iter().copied());
    }
    for k in 0..40 {
        b.add_anonymous_net((0..24 + k % 24).map(|j| CellId::new((k * 7_919 + j * 131) % n)));
    }
    b.finish()
}

#[test]
fn orderings_match_frozen_digests() {
    let nl = &design();
    let seeds: Vec<CellId> = (0..16).map(|i| CellId::new(i * 311 % nl.num_cells())).collect();

    let cases = [
        (GrowthCriterion::WeightFirst, 20, 0x4280_b7ea_4c8a_6799u64),
        (GrowthCriterion::WeightFirst, usize::MAX, 0xb811_392e_eb62_e22d),
        (GrowthCriterion::CutFirst, 20, 0x3856_4ffe_ee17_f313),
        (GrowthCriterion::CutFirst, usize::MAX, 0x345d_2c03_0b5e_4eb8),
    ];
    let mut mismatches = Vec::new();
    for (criterion, lambda_threshold, expected) in cases {
        let mut grower =
            OrderingGrower::new(nl, GrowthConfig { max_len: 1_000, lambda_threshold, criterion });
        let mut ord = LinearOrdering::new();
        let mut digest = Fnv1a::new();
        for &seed in &seeds {
            grower.grow_into(seed, &mut ord);
            assert_eq!(ord.len(), 1_000, "seed {seed} ran out of connected cells");
            digest.ordering(&ord);
        }
        if digest.0 != expected {
            mismatches.push(format!(
                "{criterion:?}, lambda_threshold {lambda_threshold}: {:#018x} != {expected:#018x}",
                digest.0
            ));
        }
    }
    assert!(mismatches.is_empty(), "ordering digests drifted:\n{}", mismatches.join("\n"));
}
