//! The top-level anchored quadratic placer, sharded onto
//! [`gtl_core::exec`].
//!
//! Each solve/spread iteration decomposes the die into a deterministic
//! [`ShardGrid`] of regions (cells are binned by their spread-target
//! position), solves every shard's anchored system concurrently through
//! [`parallel_map_with`] — one reusable [`ShardSolver`] per worker — and
//! stitches the shards back together with a fixed-order boundary anchor
//! pass. The decomposition depends only on the netlist, die and config
//! (never on the worker count), so placements are byte-identical for any
//! thread count; see `crates/place/tests/determinism.rs`.

use gtl_core::cancel::{CancelToken, Cancelled};
use gtl_core::exec::{derive_stream, parallel_map_with};
use gtl_core::shard::{auto_grid, ShardGrid};
use gtl_netlist::{CellId, Netlist};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::quadratic::{Laplacian, LaplacianScratch, ShardSolver, SolveScratch};
use crate::spread::{spread_with_threads, SpreadConfig};
use crate::Die;

/// Auto-sharding aims at roughly this many cells per shard; below it the
/// die stays a single shard and the placer degenerates to the global
/// solve.
const SHARD_TARGET_CELLS: usize = 10_000;

/// Hard cap on the auto-sized shard grid side.
const MAX_SHARD_GRID: usize = 16;

/// Fixed-order Gauss–Seidel sweeps over shard-boundary cells after each
/// sharded solve.
const BOUNDARY_SWEEPS: usize = 2;

/// Relative amplitude of the per-shard anchor-target jitter (scaled by the
/// die side). Far below the CG tolerance; only decorrelates exactly
/// coincident targets produced by the gridded spreader.
const TARGET_JITTER: f64 = 1e-12;

/// Cell positions, indexed by [`CellId`].
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Placement {
    /// Builds a placement from coordinate vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ.
    pub fn from_coords(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        assert_eq!(xs.len(), ys.len(), "coordinate vectors must match");
        Self { xs, ys }
    }

    /// Number of placed cells.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Position of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    #[inline]
    pub fn position(&self, cell: CellId) -> (f64, f64) {
        (self.xs[cell.index()], self.ys[cell.index()])
    }

    /// Overwrites the position of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    #[inline]
    pub fn set_position(&mut self, cell: CellId, x: f64, y: f64) {
        self.xs[cell.index()] = x;
        self.ys[cell.index()] = y;
    }

    /// All x coordinates.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// All y coordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

/// Configuration of the global placer.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlacerConfig {
    /// Solve/spread iterations.
    pub iterations: usize,
    /// Initial anchor weight α (grows geometrically each iteration).
    pub anchor_start: f64,
    /// Multiplier applied to α per iteration.
    pub anchor_growth: f64,
    /// CG tolerance.
    pub tolerance: f64,
    /// CG iteration cap per solve.
    pub max_cg_iterations: usize,
    /// Anchor boost applied in the epilogue solve (the final spread is
    /// re-solved with `α × anchor_final_boost` so density wins at the end
    /// while connected groups stay locally tight).
    pub anchor_final_boost: f64,
    /// Spreading parameters.
    pub spread: SpreadConfig,
    /// Seed for the initial random placement (and, via
    /// [`derive_stream`], for every per-shard stream).
    pub seed: u64,
    /// Worker threads for the sharded solves and the spreading step; `0`
    /// means all cores. The placement is byte-identical for every value.
    pub threads: usize,
    /// Region-decomposition grid side `g` (the die splits into `g × g`
    /// shards). `0` auto-sizes toward ~10k cells per shard; `1` forces the
    /// single-shard (global) solve.
    pub shard_grid: usize,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            iterations: 10,
            anchor_start: 0.02,
            anchor_growth: 1.6,
            tolerance: 1e-6,
            max_cg_iterations: 300,
            anchor_final_boost: 30.0,
            spread: SpreadConfig::default(),
            seed: 0x91ace,
            threads: 0,
            shard_grid: 0,
        }
    }
}

impl PlacerConfig {
    /// The shard-grid side actually used for an `n`-cell design: the
    /// explicit [`PlacerConfig::shard_grid`], or the auto-sized grid.
    pub fn resolved_shard_grid(&self, n: usize) -> usize {
        if self.shard_grid == 0 {
            auto_grid(n, SHARD_TARGET_CELLS, MAX_SHARD_GRID)
        } else {
            self.shard_grid
        }
    }
}

/// Places `netlist` on `die` with anchored quadratic iterations
/// (SimPL-style): solve `(L + αI)x = α·x_spread`, spread the result, grow
/// α, repeat. Highly connected groups stay clustered (which is exactly how
/// GTLs turn into hotspots); spreading keeps densities bounded.
///
/// Every solve runs through the deterministic execution layer: the die is
/// decomposed into [`PlacerConfig::shard_grid`]² region shards whose
/// systems are solved concurrently (out-of-shard neighbors held fixed),
/// then shard-boundary cells are reconciled by a fixed-order Gauss–Seidel
/// anchor pass. A 1×1 grid degenerates to the exact global solve. Either
/// way the output does not depend on [`PlacerConfig::threads`].
///
/// The result is a *global* placement; run
/// [`legal::legalize`](crate::legal::legalize) for row-snapped positions.
///
/// # Panics
///
/// Panics if the netlist has no cells.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_place::{place, Die, PlacerConfig};
///
/// let mut b = NetlistBuilder::new();
/// let cells: Vec<_> = (0..16).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
/// for i in 0..15 {
///     b.add_anonymous_net([cells[i], cells[i + 1]]);
/// }
/// let nl = b.finish();
/// let die = Die::for_netlist(&nl, 0.5);
/// let placement = place(&nl, &die, &PlacerConfig::default());
/// assert_eq!(placement.len(), 16);
/// let (x, y) = placement.position(cells[0]);
/// assert!(x >= 0.0 && x <= die.width && y >= 0.0 && y <= die.height);
/// ```
pub fn place(netlist: &Netlist, die: &Die, config: &PlacerConfig) -> Placement {
    match place_with(netlist, die, config, None, &mut PlaceScratch::default()) {
        Ok(placement) => placement,
        Err(_) => unreachable!("a placement without a token cannot be cancelled"),
    }
}

/// Reusable cross-request scratch for [`place_with`]: today the
/// Laplacian build's triplet buffers. A long-lived caller (the serving
/// session) holds one per session so repeated placements of the same
/// netlist stop reallocating the `O(pins)` CSR intermediate.
#[derive(Debug, Default)]
pub struct PlaceScratch {
    laplacian: LaplacianScratch,
}

impl PlaceScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`place`] with an optional cancellation token and caller-owned
/// [`PlaceScratch`] (its contents on entry are ignored).
///
/// A present `token` is polled between solve/spread iterations: a fired
/// token makes the run return [`Cancelled`] at the next iteration
/// boundary (the checkpoint interval is one anchored solve + spread).
/// `None`, or a token that never fires, yields the placement of
/// [`place`] (same code path).
///
/// # Errors
///
/// [`Cancelled`] once the token fires.
///
/// # Panics
///
/// Panics if the netlist has no cells, like [`place`].
pub fn place_with(
    netlist: &Netlist,
    die: &Die,
    config: &PlacerConfig,
    token: Option<&CancelToken>,
    scratch: &mut PlaceScratch,
) -> Result<Placement, Cancelled> {
    assert!(netlist.num_cells() > 0, "cannot place an empty netlist");
    let checkpoint = gtl_core::cancel::checkpoint;
    let n = netlist.num_cells();
    // gtl-lint: allow(no-rng-outside-derive-stream, reason = "single sequential master stream for initial positions; nothing fans out from it")
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // Initial positions: uniform random.
    let mut xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..die.width)).collect();
    let mut ys: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..die.height)).collect();

    let lap = Laplacian::build_with(netlist, &mut scratch.laplacian);
    let grid_side = config.resolved_shard_grid(n);
    let mut alpha = config.anchor_start;

    for _ in 0..config.iterations {
        checkpoint(token)?;
        // Spread current positions to produce anchor targets.
        let spread_p = spread_with_threads(netlist, &xs, &ys, die, &config.spread, config.threads);
        solve_pass(&lap, die, config, grid_side, alpha, &spread_p, &mut xs, &mut ys);
        alpha *= config.anchor_growth;
    }

    checkpoint(token)?;
    // Epilogue: spread once more, then re-solve with a strongly boosted
    // anchor. Density wins globally (dense groups stay where spreading put
    // them instead of re-collapsing onto the die center), while connected
    // groups remain locally tight — the clustering-versus-congestion
    // trade-off the tangled-logic experiments study.
    let spread_p = spread_with_threads(netlist, &xs, &ys, die, &config.spread, config.threads);
    let alpha_final = alpha * config.anchor_final_boost;
    solve_pass(&lap, die, config, grid_side, alpha_final, &spread_p, &mut xs, &mut ys);
    Ok(Placement::from_coords(xs, ys))
}

/// One anchored solve toward `targets`, sharded when `grid_side > 1`,
/// followed by the in-die clamp. Updates `xs`/`ys` in place.
#[allow(clippy::too_many_arguments)]
fn solve_pass(
    lap: &Laplacian,
    die: &Die,
    config: &PlacerConfig,
    grid_side: usize,
    alpha: f64,
    targets: &Placement,
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
) {
    let n = lap.dim();
    if grid_side <= 1 {
        // Global solve; the two axes are independent work items. Each
        // worker keeps one set of CG work vectors and one rhs buffer, so
        // the only per-solve allocation is the returned solution.
        let (xs_now, ys_now): (&[f64], &[f64]) = (xs, ys);
        let anchor = vec![alpha; n];
        let mut solved = parallel_map_with(
            config.threads,
            2,
            |_worker| (SolveScratch::new(), Vec::new()),
            |(scratch, rhs), axis| {
                let (t, pos) =
                    if axis == 0 { (targets.xs(), xs_now) } else { (targets.ys(), ys_now) };
                rhs.clear();
                rhs.extend(t.iter().map(|&t| alpha * t));
                let mut x = pos.to_vec();
                lap.solve_anchored_into(
                    &anchor,
                    rhs,
                    &mut x,
                    config.tolerance,
                    config.max_cg_iterations,
                    scratch,
                );
                x
            },
        );
        *ys = solved.pop().expect("y axis solved");
        *xs = solved.pop().expect("x axis solved");
    } else {
        // Region decomposition: bin cells by their spread-target position
        // (targets are density-balanced, so shards are too). The partition
        // is a pure function of the targets — never of the thread count.
        let grid = ShardGrid::square(grid_side, die.width, die.height);
        let shards = grid.partition(targets.xs(), targets.ys());
        let jitter = TARGET_JITTER * die.width.max(die.height);
        let (xs_now, ys_now): (&[f64], &[f64]) = (xs, ys);

        let solved: Vec<ShardResult> = parallel_map_with(
            config.threads,
            shards.len(),
            |_worker| (ShardSolver::new(n), Vec::new(), Vec::new()),
            |(solver, tx, ty), s| {
                let cells = &shards[s];
                if cells.is_empty() {
                    return ShardResult::default();
                }
                // Per-shard RNG stream: decorrelates exactly coincident
                // targets (the gridded spreader emits many) so each
                // shard's system is canonically perturbed, independent of
                // scheduling.
                let mut rng = SmallRng::seed_from_u64(derive_stream(config.seed, s as u64));
                tx.clear();
                ty.clear();
                for &c in cells {
                    tx.push(targets.xs()[c as usize] + jitter * rng.gen_range(-0.5..0.5));
                    ty.push(targets.ys()[c as usize] + jitter * rng.gen_range(-0.5..0.5));
                }
                let (xs, ys) = solver.solve_shard(
                    lap,
                    cells,
                    alpha,
                    tx,
                    ty,
                    xs_now,
                    ys_now,
                    config.tolerance,
                    config.max_cg_iterations,
                );
                ShardResult { xs, ys, boundary: solver.boundary().to_vec() }
            },
        );

        // Stitch shard results back in fixed shard-then-cell order.
        for (cells, result) in shards.iter().zip(&solved) {
            for (k, &c) in cells.iter().enumerate() {
                xs[c as usize] = result.xs[k];
                ys[c as usize] = result.ys[k];
            }
        }

        // Fixed-order boundary anchor pass: cells with a neighbor in
        // another shard were solved against stale neighbor positions;
        // relax them (ascending cell id, serial, deterministic) against
        // the freshly stitched coordinates. Each update is the exact
        // stationarity condition of the global system at that cell.
        let boundary = merge_boundaries(solved.iter().map(|r| r.boundary.as_slice()));
        for _ in 0..BOUNDARY_SWEEPS {
            for &i in &boundary {
                let i = i as usize;
                let (mut acc_x, mut acc_y) = (0.0, 0.0);
                for (j, w) in lap.row(i) {
                    acc_x += w * xs[j];
                    acc_y += w * ys[j];
                }
                let denom = lap.degree(i) + alpha;
                xs[i] = (alpha * targets.xs()[i] + acc_x) / denom;
                ys[i] = (alpha * targets.ys()[i] + acc_y) / denom;
            }
        }
    }

    for i in 0..n {
        let (cx, cy) = die.clamp(xs[i], ys[i]);
        xs[i] = cx;
        ys[i] = cy;
    }
}

/// One shard's solve: the new coordinates of its cells (in shard order)
/// and its boundary cells ([`ShardSolver::boundary`]).
#[derive(Default)]
struct ShardResult {
    xs: Vec<f64>,
    ys: Vec<f64>,
    boundary: Vec<u32>,
}

/// The ascending-id list of every shard's boundary cells. Shards are
/// disjoint, so the lists never share a cell.
fn merge_boundaries<'a>(lists: impl Iterator<Item = &'a [u32]>) -> Vec<u32> {
    let mut all: Vec<u32> = lists.flatten().copied().collect();
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpwl;
    use gtl_netlist::NetlistBuilder;

    /// Two 12-cell cliques plus sparse filler.
    fn clustered_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..200).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for base in [0usize, 12] {
            for i in 0..12 {
                for j in (i + 1)..12 {
                    b.add_anonymous_net([cells[base + i], cells[base + j]]);
                }
            }
        }
        for i in 24..199 {
            b.add_anonymous_net([cells[i], cells[i + 1]]);
        }
        b.add_anonymous_net([cells[0], cells[100]]);
        b.add_anonymous_net([cells[12], cells[150]]);
        b.finish()
    }

    #[test]
    fn placer_beats_random_hpwl() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let placed = place(&nl, &die, &PlacerConfig::default());
        // Random baseline with the same seed scheme.
        let mut rng = SmallRng::seed_from_u64(1);
        let rx: Vec<f64> = (0..nl.num_cells()).map(|_| rng.gen_range(0.0..die.width)).collect();
        let ry: Vec<f64> = (0..nl.num_cells()).map(|_| rng.gen_range(0.0..die.height)).collect();
        let random = Placement::from_coords(rx, ry);
        let hp = hpwl(&nl, &placed);
        let hr = hpwl(&nl, &random);
        assert!(hp < 0.6 * hr, "placed {hp} vs random {hr}");
    }

    #[test]
    fn connected_cluster_stays_together() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let placed = place(&nl, &die, &PlacerConfig::default());
        // The 12-clique's spatial spread must be far below the die size.
        let xs: Vec<f64> =
            (0..12).map(|i| placed.position(gtl_netlist::CellId::new(i)).0).collect();
        let ys: Vec<f64> =
            (0..12).map(|i| placed.position(gtl_netlist::CellId::new(i)).1).collect();
        let w = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let h = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - ys.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(w < die.width / 2.0 && h < die.height / 2.0, "clique spread {w}×{h}");
    }

    #[test]
    fn all_cells_inside_die() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.7);
        let placed = place(&nl, &die, &PlacerConfig::default());
        for c in nl.cells() {
            let (x, y) = placed.position(c);
            assert!(x >= 0.0 && x <= die.width && y >= 0.0 && y <= die.height);
        }
    }

    #[test]
    fn deterministic() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let a = place(&nl, &die, &PlacerConfig::default());
        let b = place(&nl, &die, &PlacerConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn cancellable_place_with_live_token_is_identical() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let plain = place(&nl, &die, &PlacerConfig::default());
        let token = CancelToken::new();
        let cfg = PlacerConfig::default();
        let cancellable =
            place_with(&nl, &die, &cfg, Some(&token), &mut PlaceScratch::new()).unwrap();
        assert_eq!(plain, cancellable);
    }

    #[test]
    fn place_scratch_reuse_is_invisible() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let plain = place(&nl, &die, &PlacerConfig::default());
        let token = CancelToken::new();
        let mut scratch = PlaceScratch::new();
        let cfg = PlacerConfig::default();
        let first = place_with(&nl, &die, &cfg, Some(&token), &mut scratch).unwrap();
        let second = place_with(&nl, &die, &cfg, Some(&token), &mut scratch).unwrap();
        assert_eq!(plain, first);
        assert_eq!(plain, second);
    }

    #[test]
    fn cancelled_place_returns_structured_error() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let token = CancelToken::new();
        token.cancel();
        let err =
            place_with(&nl, &die, &PlacerConfig::default(), Some(&token), &mut PlaceScratch::new())
                .unwrap_err();
        assert_eq!(err.reason, gtl_core::cancel::CancelReason::Cancelled);
    }

    #[test]
    fn expired_deadline_stops_the_placer() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let token =
            CancelToken::with_deadline(gtl_core::cancel::Deadline::at(std::time::Instant::now()));
        let err =
            place_with(&nl, &die, &PlacerConfig::default(), Some(&token), &mut PlaceScratch::new())
                .unwrap_err();
        assert_eq!(err.reason, gtl_core::cancel::CancelReason::DeadlineExceeded);
    }

    #[test]
    fn merged_boundary_matches_shard_of_filter() {
        // The stitch's boundary list, merged from the shard extractions,
        // must equal the serial filter it replaced: every cell with a
        // Laplacian neighbor in another shard, in ascending id order.
        let g = gtl_synth::ispd_like::generate(&gtl_synth::ispd_like::IspdLikeConfig::new(
            gtl_synth::ispd_like::IspdBenchmark::Adaptec1,
            0.005,
        ));
        let nl = &g.netlist;
        let n = nl.num_cells();
        let lap = Laplacian::build(nl);
        let die = Die::for_netlist(nl, 0.6);
        let mut rng = SmallRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..die.width)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..die.height)).collect();
        for side in [2, 3, 5] {
            let shards = ShardGrid::square(side, die.width, die.height).partition(&xs, &ys);
            let mut solver = ShardSolver::new(n);
            let lists: Vec<Vec<u32>> = shards
                .iter()
                .map(|cells| {
                    let tx: Vec<f64> = cells.iter().map(|&c| xs[c as usize]).collect();
                    let ty: Vec<f64> = cells.iter().map(|&c| ys[c as usize]).collect();
                    solver.solve_shard(&lap, cells, 1.0, &tx, &ty, &xs, &ys, 1e-3, 2);
                    solver.boundary().to_vec()
                })
                .collect();
            let merged = merge_boundaries(lists.iter().map(Vec::as_slice));

            let mut shard_of = vec![0u32; n];
            for (s, cells) in shards.iter().enumerate() {
                for &c in cells {
                    shard_of[c as usize] = s as u32;
                }
            }
            let expect: Vec<u32> = (0..n)
                .filter(|&i| lap.row(i).any(|(j, _)| shard_of[j] != shard_of[i]))
                .map(|i| i as u32)
                .collect();
            assert!(!expect.is_empty(), "grid {side}");
            assert_eq!(merged, expect, "grid {side}");
        }
    }

    #[test]
    #[should_panic(expected = "empty netlist")]
    fn empty_netlist_panics() {
        let nl = NetlistBuilder::new().finish();
        let die = Die { width: 1.0, height: 1.0, rows: 1 };
        let _ = place(&nl, &die, &PlacerConfig::default());
    }

    #[test]
    fn placement_accessors() {
        let p = Placement::from_coords(vec![1.0, 2.0], vec![3.0, 4.0]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.position(CellId::new(1)), (2.0, 4.0));
        assert_eq!(p.xs(), &[1.0, 2.0]);
    }
}
