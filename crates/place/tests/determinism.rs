//! Execution-layer determinism, end-to-end through the sharded placer:
//! the full placement (every cell coordinate, byte for byte) must be
//! identical for 1, 2 and 8 workers, and sharding must not wreck quality.

use gtl_place::{hpwl, place, Die, Placement, PlacerConfig};
use gtl_synth::ispd_like::{generate, IspdBenchmark, IspdLikeConfig};

fn testbed() -> gtl_synth::GeneratedCircuit {
    generate(&IspdLikeConfig::new(IspdBenchmark::Adaptec1, 0.01))
}

fn sharded_config(threads: usize) -> PlacerConfig {
    PlacerConfig { shard_grid: 3, threads, ..PlacerConfig::default() }
}

/// Same seed + same shard grid ⇒ identical cell coordinates for any
/// worker count. `Placement: PartialEq` compares every coordinate
/// exactly, so this is the byte-identical contract of ROADMAP applied to
/// a full sharded placement run.
#[test]
fn sharded_placement_identical_for_1_2_8_workers() {
    let g = testbed();
    let die = Die::for_netlist(&g.netlist, 0.6);
    let baseline = place(&g.netlist, &die, &sharded_config(1));
    for threads in [2, 8] {
        let run = place(&g.netlist, &die, &sharded_config(threads));
        assert_eq!(baseline, run, "placement changed with {threads} workers");
    }
}

/// The spreading step fans its bisection subtrees out over the workers
/// (`spread.rs`: serial down to depth 4, then at most 16 independent
/// subtrees), so a global (1×1) placement must be byte-identical
/// for 1, 2 and 8 workers too.
#[test]
fn spread_fanout_placement_identical_for_1_2_8_workers() {
    let g = testbed();
    // Reaching the fan-out depth needs a region at depth 4: with cells
    // split about evenly, all 16 regions there must hold more than the
    // loose-leaf bound of 4 × `leaf_cells` cells.
    let leaf_cells = PlacerConfig::default().spread.leaf_cells;
    assert!(g.netlist.num_cells() > 16 * 4 * leaf_cells, "fixture too small to fan out");
    let die = Die::for_netlist(&g.netlist, 0.6);
    let config = |threads| PlacerConfig { shard_grid: 1, threads, ..PlacerConfig::default() };
    let baseline = place(&g.netlist, &die, &config(1));
    for threads in [2, 8] {
        assert_eq!(baseline, place(&g.netlist, &die, &config(threads)), "{threads} workers");
    }
}

/// The sharded decomposition must genuinely run multi-shard on this
/// fixture (otherwise the test above degenerates to the global path):
/// the placed cells must spread over most of the 3×3 region grid, so the
/// per-iteration partitions were populated too.
#[test]
fn fixture_actually_shards() {
    let g = testbed();
    assert!(g.netlist.num_cells() > 2_000);
    let die = Die::for_netlist(&g.netlist, 0.6);
    let placed = place(&g.netlist, &die, &sharded_config(1));
    let grid = gtl_core::shard::ShardGrid::square(3, die.width, die.height);
    let occupied =
        grid.partition(placed.xs(), placed.ys()).iter().filter(|s| !s.is_empty()).count();
    assert!(occupied >= 7, "only {occupied}/9 shards occupied — fixture too degenerate");
}

/// Sharding is an approximation (block solves + boundary reconciliation),
/// but it must stay a *placement*: far better than random scatter and in
/// the same quality band as the global solve.
#[test]
fn sharded_quality_close_to_global() {
    let g = testbed();
    let die = Die::for_netlist(&g.netlist, 0.6);
    let sharded = place(&g.netlist, &die, &sharded_config(0));
    let global =
        place(&g.netlist, &die, &PlacerConfig { shard_grid: 1, ..PlacerConfig::default() });

    let n = g.netlist.num_cells();
    let random = Placement::from_coords(
        (0..n).map(|i| (i as f64 * 0.61803) % die.width).collect(),
        (0..n).map(|i| (i as f64 * std::f64::consts::FRAC_1_PI) % die.height).collect(),
    );
    let h_sharded = hpwl(&g.netlist, &sharded);
    let h_global = hpwl(&g.netlist, &global);
    let h_random = hpwl(&g.netlist, &random);
    assert!(h_sharded < 0.7 * h_random, "sharded {h_sharded} vs random {h_random}");
    assert!(h_sharded < 1.6 * h_global, "sharded {h_sharded} vs global {h_global}");
}
