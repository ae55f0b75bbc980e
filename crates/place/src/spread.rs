//! Recursive-bisection density spreading.
//!
//! The quadratic solve clumps connected cells; spreading produces the
//! anchor targets that pull the placement apart. The algorithm here is a
//! deterministic recursive bisection (in the spirit of look-ahead
//! legalization / grid warping): a region's cells are ordered along its
//! longer axis and split at the **area median**, each half recursing into
//! the corresponding half-region, until a leaf holds a handful of cells
//! that are laid out on a uniform grid.
//!
//! Two properties matter for the tangled-logic experiments:
//!
//! * **order preservation** — cells keep their relative arrangement, so
//!   spreading is a gentle warp toward uniform density, not a scramble;
//! * **coherent cluster separation** — two dense groups collapsed onto
//!   the same point are split as units (ties break on cell id, and a
//!   group's ids are contiguous), so stacked GTL blobs move apart instead
//!   of interleaving. This is what lets cell inflation physically enlarge
//!   a blob's footprint.
//!
//! # Presorted partitioning and fan-out
//!
//! All cells are sorted once per axis by `(coordinate, cell id)`. Every
//! region is a range of both lists; a split finds the area median by a
//! prefix sum along the split axis's list and stable-partitions the other
//! list by a per-cell membership flag, so both children stay sorted
//! (the presorted k-d-tree construction): O(n) per level instead of a
//! sort per region. The top `FANOUT_DEPTH` levels run serially; the
//! subtrees below them (at most `2^FANOUT_DEPTH`, a pure function of the
//! input) are solved independently through [`gtl_core::exec`] and
//! stitched back. Subtrees own disjoint cells, so the result is
//! bit-identical for every worker count — and to the plain re-sorting
//! recursion, which the unit tests keep as an oracle.

use gtl_core::exec::parallel_map_with;
use gtl_netlist::Netlist;

use crate::{Die, Placement};

/// Parameters of the bisection spreader.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SpreadConfig {
    /// Target utilization: fraction of each region's area the cells of
    /// that region may demand before further splitting.
    pub target_utilization: f64,
    /// Stop splitting when a region holds at most this many cells.
    pub leaf_cells: usize,
    /// Hard recursion cap (guards degenerate inputs).
    pub max_depth: usize,
}

impl Default for SpreadConfig {
    fn default() -> Self {
        Self { target_utilization: 0.9, leaf_cells: 12, max_depth: 48 }
    }
}

/// Per-bin utilization snapshot of a placement.
#[derive(Debug, Clone)]
pub struct DensityMap {
    bins: usize,
    /// `area[by * bins + bx]` = total cell area in the bin.
    area: Vec<f64>,
    bin_capacity: f64,
}

impl DensityMap {
    /// Computes the density map of `placement` on a `bins × bins` grid.
    ///
    /// Shorthand for [`DensityMap::compute_striped`] with all cores; the
    /// result does not depend on the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the placement does not cover the netlist.
    pub fn compute(netlist: &Netlist, placement: &Placement, die: &Die, bins: usize) -> Self {
        Self::compute_striped(netlist, placement, die, bins, 0)
    }

    /// Computes the density map with the same stripe-batched decomposition
    /// as the congestion estimator: a serial O(cells) prepass bins cells
    /// to stripes of bin rows, then one work item per stripe accumulates
    /// only its own cells (in cell-id order, so the map is bit-identical
    /// for any `threads`; `0` = all cores).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the placement does not cover the netlist.
    pub fn compute_striped(
        netlist: &Netlist,
        placement: &Placement,
        die: &Die,
        bins: usize,
        threads: usize,
    ) -> Self {
        const STRIPE_ROWS: usize = gtl_core::shard::DEFAULT_STRIPE_ROWS;
        assert!(bins > 0, "bins must be positive");
        assert!(placement.len() >= netlist.num_cells(), "placement smaller than netlist");
        let bw = die.width / bins as f64;
        let bh = die.height / bins as f64;
        let row_stripes = gtl_core::shard::stripes(bins, STRIPE_ROWS);

        // Serial prepass: bin cells to their stripe (ascending cell id per
        // stripe, so every bin sees the same addition order as a plain
        // serial accumulation).
        let mut stripe_cells: Vec<Vec<u32>> = vec![Vec::new(); row_stripes.len()];
        for cell in netlist.cells() {
            let (_, y) = placement.position(cell);
            let by = ((y / bh) as usize).min(bins - 1);
            stripe_cells[by / STRIPE_ROWS].push(cell.index() as u32);
        }

        let slabs: Vec<Vec<f64>> = parallel_map_with(
            threads,
            row_stripes.len(),
            |_| (),
            |(), s| {
                let rows = &row_stripes[s];
                let mut slab = vec![0.0; rows.len() * bins];
                for &raw in &stripe_cells[s] {
                    let cell = gtl_netlist::CellId::from(raw);
                    let (x, y) = placement.position(cell);
                    let bx = ((x / bw) as usize).min(bins - 1);
                    let by = ((y / bh) as usize).min(bins - 1);
                    slab[(by - rows.start) * bins + bx] += netlist.cell_area(cell);
                }
                slab
            },
        );
        let mut area = vec![0.0; bins * bins];
        for (s, slab) in slabs.iter().enumerate() {
            let rows = &row_stripes[s];
            area[rows.start * bins..rows.end * bins].copy_from_slice(slab);
        }
        Self { bins, area, bin_capacity: bw * bh }
    }

    /// Grid side length.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Utilization (area / capacity) of bin `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn utilization(&self, bx: usize, by: usize) -> f64 {
        assert!(bx < self.bins && by < self.bins, "bin out of range");
        self.area[by * self.bins + bx] / self.bin_capacity
    }

    /// Largest bin utilization.
    pub fn max_utilization(&self) -> f64 {
        self.area.iter().fold(0.0f64, |m, &a| m.max(a / self.bin_capacity))
    }

    /// Mean bin utilization.
    pub fn mean_utilization(&self) -> f64 {
        if self.area.is_empty() {
            0.0
        } else {
            self.area.iter().sum::<f64>() / (self.bin_capacity * self.area.len() as f64)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Rect {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
}

impl Rect {
    fn width(&self) -> f64 {
        self.x1 - self.x0
    }
    fn height(&self) -> f64 {
        self.y1 - self.y0
    }
    fn area(&self) -> f64 {
        self.width() * self.height()
    }
}

/// Bisection levels run serially before the subtrees below them (at most
/// `2^FANOUT_DEPTH`) fan out. A constant, so the decomposition never
/// depends on the worker count.
const FANOUT_DEPTH: usize = 4;

/// Spreads `placement` toward uniform density, returning new positions
/// (the input is not modified).
///
/// Shorthand for the placer's spreading step with all cores; the result
/// does not depend on the worker count.
///
/// # Panics
///
/// Panics if the placement does not cover the netlist.
pub fn spread(
    netlist: &Netlist,
    placement: &Placement,
    die: &Die,
    config: &SpreadConfig,
) -> Placement {
    assert!(placement.len() >= netlist.num_cells(), "placement smaller than netlist");
    spread_with_threads(netlist, placement.xs(), placement.ys(), die, config, 0)
}

/// [`spread`] of the positions `(xs[c], ys[c])` on `threads` workers
/// (`0` = all cores); bit-identical for every value.
pub(crate) fn spread_with_threads(
    netlist: &Netlist,
    xs: &[f64],
    ys: &[f64],
    die: &Die,
    config: &SpreadConfig,
    threads: usize,
) -> Placement {
    let n = netlist.num_cells();
    if n == 0 {
        return Placement::from_coords(Vec::new(), Vec::new());
    }
    let ctx = Ctx { netlist, origx: &xs[..n], origy: &ys[..n], config };
    let [mut by_x, mut by_y]: [Vec<u32>; 2] = parallel_map_with(
        threads,
        2,
        |_| (),
        |(), axis| sorted_by_coord(if axis == 0 { ctx.origx } else { ctx.origy }),
    )
    .try_into()
    .expect("one list per axis");

    // The root sums its area in cell-id order; every other region sums in
    // its parent's split-axis order (see `Ctx::split`).
    let root = Region {
        lo: 0,
        hi: n,
        rect: Rect { x0: 0.0, y0: 0.0, x1: die.width, y1: die.height },
        depth: 0,
        area: (0..n as u32).map(|c| ctx.area(c)).sum(),
    };
    let mut subtrees = Vec::new();
    ctx.fan_out(&mut by_x, &mut by_y, &mut vec![false; n], &mut Vec::new(), root, &mut subtrees);

    let placed = parallel_map_with(
        threads,
        subtrees.len(),
        |_| Scratch::new(n),
        |s: &mut Scratch, t| {
            let r = subtrees[t];
            s.x.clear();
            s.x.extend_from_slice(&by_x[r.lo..r.hi]);
            s.y.clear();
            s.y.extend_from_slice(&by_y[r.lo..r.hi]);
            let mut out = Vec::with_capacity(r.hi - r.lo);
            let local = Region { lo: 0, hi: r.hi - r.lo, ..r };
            ctx.bisect(&mut s.x, &mut s.y, &mut s.left, &mut s.tmp, local, &mut out);
            out
        },
    );
    // Every cell lands in exactly one leaf, so this sets all of them.
    let (mut xs, mut ys) = (vec![0.0; n], vec![0.0; n]);
    for (c, x, y) in placed.into_iter().flatten() {
        xs[c as usize] = x;
        ys[c as usize] = y;
    }
    Placement::from_coords(xs, ys)
}

/// Cell ids ordered by `(coords[id], id)` under [`f64::total_cmp`].
fn sorted_by_coord(coords: &[f64]) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> =
        coords.iter().enumerate().map(|(c, &v)| (total_order_key(v), c as u32)).collect();
    // The keys are distinct per id, so the unstable sort is deterministic.
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, c)| c).collect()
}

/// The integer image of [`f64::total_cmp`]: `a.total_cmp(&b)` equals
/// `key(a).cmp(&key(b))`.
fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A bisection-tree node: cells `lo..hi` of both axis lists, the die
/// region they spread into, and their total area.
#[derive(Debug, Clone, Copy)]
struct Region {
    lo: usize,
    hi: usize,
    rect: Rect,
    depth: usize,
    area: f64,
}

/// One worker's partition buffers: the subtree's two axis lists, the
/// per-cell "goes left" flag (indexed by cell id) and the stable-partition
/// spill buffer.
struct Scratch {
    x: Vec<u32>,
    y: Vec<u32>,
    left: Vec<bool>,
    tmp: Vec<u32>,
}

impl Scratch {
    fn new(cells: usize) -> Self {
        Self { x: Vec::new(), y: Vec::new(), left: vec![false; cells], tmp: Vec::new() }
    }
}

struct Ctx<'a> {
    netlist: &'a Netlist,
    origx: &'a [f64],
    origy: &'a [f64],
    config: &'a SpreadConfig,
}

impl Ctx<'_> {
    fn area(&self, c: u32) -> f64 {
        self.netlist.cell_area(gtl_netlist::CellId::from(c))
    }

    /// Bisects serially down to [`FANOUT_DEPTH`], collecting the regions
    /// that remain (subtree roots and early leaves) in tree order.
    fn fan_out(
        &self,
        by_x: &mut [u32],
        by_y: &mut [u32],
        left: &mut [bool],
        tmp: &mut Vec<u32>,
        r: Region,
        out: &mut Vec<Region>,
    ) {
        if r.depth < FANOUT_DEPTH {
            if let Some((a, b)) = self.split(by_x, by_y, left, tmp, r) {
                self.fan_out(by_x, by_y, left, tmp, a, out);
                self.fan_out(by_x, by_y, left, tmp, b, out);
                return;
            }
        }
        out.push(r);
    }

    /// Bisects `r` to its leaves, appending `(cell, x, y)` per cell.
    fn bisect(
        &self,
        by_x: &mut [u32],
        by_y: &mut [u32],
        left: &mut [bool],
        tmp: &mut Vec<u32>,
        r: Region,
        out: &mut Vec<(u32, f64, f64)>,
    ) {
        match self.split(by_x, by_y, left, tmp, r) {
            None => self.place_leaf(&mut by_y[r.lo..r.hi], r.rect, out),
            Some((a, b)) => {
                self.bisect(by_x, by_y, left, tmp, a, out);
                self.bisect(by_x, by_y, left, tmp, b, out);
            }
        }
    }

    /// Splits `r` along its longer axis at the area median, partitioning
    /// both lists so each child's cells are contiguous and still sorted;
    /// `None` if `r` is a leaf.
    fn split(
        &self,
        by_x: &mut [u32],
        by_y: &mut [u32],
        left: &mut [bool],
        tmp: &mut Vec<u32>,
        r: Region,
    ) -> Option<(Region, Region)> {
        let len = r.hi - r.lo;
        // Leaf: few cells, loose region, or depth guard.
        let loose = r.area <= r.rect.area() * self.config.target_utilization
            && len <= self.config.leaf_cells * 4;
        if len <= self.config.leaf_cells || r.depth >= self.config.max_depth || loose {
            return None;
        }

        let horizontal = r.rect.width() >= r.rect.height();
        let (along, across) = if horizontal {
            (&by_x[r.lo..r.hi], &mut by_y[r.lo..r.hi])
        } else {
            (&by_y[r.lo..r.hi], &mut by_x[r.lo..r.hi])
        };
        let mut acc = 0.0;
        let mut split = len / 2;
        for (i, &c) in along.iter().enumerate() {
            acc += self.area(c);
            if acc >= r.area / 2.0 {
                split = (i + 1).min(len - 1).max(1);
                break;
            }
        }
        // Each child sums its area in this split-axis order.
        let (la, ra) = along.split_at(split);
        let area_a = la.iter().map(|&c| self.area(c)).sum();
        let area_b = ra.iter().map(|&c| self.area(c)).sum();
        for &c in la {
            left[c as usize] = true;
        }
        for &c in ra {
            left[c as usize] = false;
        }
        stable_partition(across, left, tmp);

        let (rect_a, rect_b) = if horizontal {
            let xm = r.rect.x0 + r.rect.width() / 2.0;
            (Rect { x1: xm, ..r.rect }, Rect { x0: xm, ..r.rect })
        } else {
            let ym = r.rect.y0 + r.rect.height() / 2.0;
            (Rect { y1: ym, ..r.rect }, Rect { y0: ym, ..r.rect })
        };
        let depth = r.depth + 1;
        let mid = r.lo + split;
        Some((
            Region { lo: r.lo, hi: mid, rect: rect_a, depth, area: area_a },
            Region { lo: mid, hi: r.hi, rect: rect_b, depth, area: area_b },
        ))
    }

    /// Lays leaf cells on a uniform grid inside `rect`, preserving the
    /// cells' relative (y, x) order, and appends `(cell, x, y)` per cell.
    fn place_leaf(&self, cells: &mut [u32], rect: Rect, out: &mut Vec<(u32, f64, f64)>) {
        if cells.is_empty() {
            return;
        }
        let (ox, oy) = (self.origx, self.origy);
        // Total orders (ties end on the unique cell id): unstable sorts
        // are deterministic.
        cells.sort_unstable_by(|&a, &b| {
            oy[a as usize]
                .total_cmp(&oy[b as usize])
                .then(ox[a as usize].total_cmp(&ox[b as usize]))
                .then(a.cmp(&b))
        });
        let n = cells.len();
        let aspect = (rect.width() / rect.height().max(1e-12)).max(1e-6);
        let cols = ((n as f64 * aspect).sqrt().ceil() as usize).clamp(1, n);
        let rows = n.div_ceil(cols);
        for (r, row) in cells.chunks_mut(cols).enumerate() {
            let y = rect.y0 + (r as f64 + 0.5) / rows as f64 * rect.height();
            // Within a row, order cells by x so left cells stay left.
            row.sort_unstable_by(|&a, &b| {
                ox[a as usize].total_cmp(&ox[b as usize]).then(a.cmp(&b))
            });
            let width = row.len();
            for (j, &c) in row.iter().enumerate() {
                out.push((c, rect.x0 + (j as f64 + 0.5) / width as f64 * rect.width(), y));
            }
        }
    }
}

/// Moves the cells flagged in `left` to the front of `cells`, keeping the
/// relative order within both groups.
fn stable_partition(cells: &mut [u32], left: &[bool], tmp: &mut Vec<u32>) {
    tmp.clear();
    let mut kept = 0;
    for i in 0..cells.len() {
        let c = cells[i];
        if left[c as usize] {
            cells[kept] = c;
            kept += 1;
        } else {
            tmp.push(c);
        }
    }
    cells[kept..].copy_from_slice(tmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::{CellId, NetlistBuilder};
    use proptest::prelude::*;

    /// The spreader before presorted partitioning, kept verbatim as the
    /// oracle for the bit-identity proptests: every region re-sorts its
    /// cells along the split axis and every leaf row is a fresh `Vec`.
    mod reference {
        use gtl_netlist::Netlist;

        use super::super::{Rect, SpreadConfig};
        use crate::{Die, Placement};

        /// Spreads `placement` toward uniform density, returning new positions
        /// (the input is not modified).
        ///
        /// # Panics
        ///
        /// Panics if the placement does not cover the netlist.
        pub fn spread(
            netlist: &Netlist,
            placement: &Placement,
            die: &Die,
            config: &SpreadConfig,
        ) -> Placement {
            assert!(placement.len() >= netlist.num_cells(), "placement smaller than netlist");
            let n = netlist.num_cells();
            let mut xs = placement.xs()[..n].to_vec();
            let mut ys = placement.ys()[..n].to_vec();
            if n == 0 {
                return Placement::from_coords(xs, ys);
            }
            let mut order: Vec<u32> = (0..n as u32).collect();
            let rect = Rect { x0: 0.0, y0: 0.0, x1: die.width, y1: die.height };
            let ctx = Ctx { netlist, origx: placement.xs(), origy: placement.ys(), config };
            bisect(&ctx, &mut order, rect, 0, &mut xs, &mut ys);
            Placement::from_coords(xs, ys)
        }

        struct Ctx<'a> {
            netlist: &'a Netlist,
            origx: &'a [f64],
            origy: &'a [f64],
            config: &'a SpreadConfig,
        }

        fn bisect(
            ctx: &Ctx<'_>,
            cells: &mut [u32],
            rect: Rect,
            depth: usize,
            xs: &mut [f64],
            ys: &mut [f64],
        ) {
            let total_area: f64 =
                cells.iter().map(|&c| ctx.netlist.cell_area(gtl_netlist::CellId::from(c))).sum();

            // Leaf: few cells, loose region, or depth guard.
            let loose = total_area <= rect.area() * ctx.config.target_utilization
                && cells.len() <= ctx.config.leaf_cells * 4;
            if cells.len() <= ctx.config.leaf_cells || depth >= ctx.config.max_depth || loose {
                place_leaf(ctx, cells, rect, xs, ys);
                return;
            }

            // Split along the longer axis at the area median.
            let horizontal = rect.width() >= rect.height();
            if horizontal {
                cells.sort_by(|&a, &b| {
                    ctx.origx[a as usize].total_cmp(&ctx.origx[b as usize]).then(a.cmp(&b))
                });
            } else {
                cells.sort_by(|&a, &b| {
                    ctx.origy[a as usize].total_cmp(&ctx.origy[b as usize]).then(a.cmp(&b))
                });
            }
            let mut acc = 0.0;
            let mut split = cells.len() / 2;
            for (i, &c) in cells.iter().enumerate() {
                acc += ctx.netlist.cell_area(gtl_netlist::CellId::from(c));
                if acc >= total_area / 2.0 {
                    split = (i + 1).min(cells.len() - 1).max(1);
                    break;
                }
            }
            let (left, right) = cells.split_at_mut(split);
            let (ra, rb) = if horizontal {
                let xm = rect.x0 + rect.width() / 2.0;
                (Rect { x1: xm, ..rect }, Rect { x0: xm, ..rect })
            } else {
                let ym = rect.y0 + rect.height() / 2.0;
                (Rect { y1: ym, ..rect }, Rect { y0: ym, ..rect })
            };
            bisect(ctx, left, ra, depth + 1, xs, ys);
            bisect(ctx, right, rb, depth + 1, xs, ys);
        }

        /// Lays leaf cells on a uniform grid inside `rect`, preserving the
        /// cells' relative (y, x) order.
        fn place_leaf(
            ctx: &Ctx<'_>,
            cells: &mut [u32],
            rect: Rect,
            xs: &mut [f64],
            ys: &mut [f64],
        ) {
            if cells.is_empty() {
                return;
            }
            cells.sort_by(|&a, &b| {
                ctx.origy[a as usize]
                    .total_cmp(&ctx.origy[b as usize])
                    .then(ctx.origx[a as usize].total_cmp(&ctx.origx[b as usize]))
                    .then(a.cmp(&b))
            });
            let n = cells.len();
            let aspect = (rect.width() / rect.height().max(1e-12)).max(1e-6);
            let cols = ((n as f64 * aspect).sqrt().ceil() as usize).clamp(1, n);
            let rows = n.div_ceil(cols);
            for (i, &c) in cells.iter().enumerate() {
                let (r, col) = (i / cols, i % cols);
                // Within a row, order cells by x for minimal warping.
                xs[c as usize] = rect.x0 + (col as f64 + 0.5) / cols as f64 * rect.width();
                ys[c as usize] = rect.y0 + (r as f64 + 0.5) / rows as f64 * rect.height();
            }
            // Re-sort each row segment by original x so left cells stay left.
            for r in 0..rows {
                let lo = r * cols;
                let hi = ((r + 1) * cols).min(n);
                let mut row: Vec<u32> = cells[lo..hi].to_vec();
                row.sort_by(|&a, &b| {
                    ctx.origx[a as usize].total_cmp(&ctx.origx[b as usize]).then(a.cmp(&b))
                });
                for (j, &c) in row.iter().enumerate() {
                    xs[c as usize] = rect.x0 + (j as f64 + 0.5) / (hi - lo) as f64 * rect.width();
                }
            }
        }
    }

    fn uniform_netlist(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(n);
        b.finish()
    }

    #[test]
    fn density_map_counts_areas() {
        let nl = uniform_netlist(4);
        let die = Die { width: 10.0, height: 10.0, rows: 10 };
        let p = Placement::from_coords(vec![1.0; 4], vec![1.0; 4]);
        let map = DensityMap::compute(&nl, &p, &die, 2);
        assert!((map.utilization(0, 0) - 4.0 / 25.0).abs() < 1e-12);
        assert_eq!(map.utilization(1, 1), 0.0);
        assert!(map.max_utilization() > map.mean_utilization());
    }

    #[test]
    fn spreading_reduces_peak_density() {
        let n = 400;
        let nl = uniform_netlist(n);
        let die = Die { width: 40.0, height: 40.0, rows: 40 };
        // Everything piled in one corner.
        let p = Placement::from_coords(vec![2.0; n], vec![2.0; n]);
        let before = DensityMap::compute(&nl, &p, &die, 8).max_utilization();
        let spread_p = spread(&nl, &p, &die, &SpreadConfig::default());
        let after = DensityMap::compute(&nl, &spread_p, &die, 8).max_utilization();
        assert!(after < before / 4.0, "peak {before} → {after}");
    }

    #[test]
    fn spreading_keeps_cells_in_die() {
        let n = 100;
        let nl = uniform_netlist(n);
        let die = Die { width: 10.0, height: 10.0, rows: 10 };
        let p = Placement::from_coords(vec![9.9; n], vec![9.9; n]);
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        for c in nl.cells() {
            let (x, y) = s.position(c);
            assert!((0.0..=10.0).contains(&x) && (0.0..=10.0).contains(&y));
        }
    }

    #[test]
    fn stacked_clusters_separate_coherently() {
        // Two groups of contiguous ids stacked at the same point must end
        // up in (mostly) disjoint regions, not interleaved.
        let n = 200;
        let nl = uniform_netlist(n);
        let die = Die { width: 20.0, height: 20.0, rows: 20 };
        let p = Placement::from_coords(vec![10.0; n], vec![10.0; n]);
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        let centroid = |range: std::ops::Range<usize>| {
            let mut cx = 0.0;
            let mut cy = 0.0;
            for i in range.clone() {
                let (x, y) = s.position(CellId::new(i));
                cx += x;
                cy += y;
            }
            (cx / range.len() as f64, cy / range.len() as f64)
        };
        let (ax, ay) = centroid(0..100);
        let (bx, by) = centroid(100..200);
        let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        assert!(dist > 5.0, "cluster centroids only {dist:.2} apart");
    }

    #[test]
    fn order_preserved_along_x() {
        // Cells on a line keep their left-to-right order after spreading.
        let n = 64;
        let nl = uniform_netlist(n);
        let die = Die { width: 64.0, height: 64.0, rows: 64 };
        let xs: Vec<f64> = (0..n).map(|i| 20.0 + i as f64 * 0.01).collect();
        let ys = vec![32.0; n];
        let p = Placement::from_coords(xs, ys);
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        // Compare x-order of the extreme cells.
        let first = s.position(CellId::new(0)).0;
        let last = s.position(CellId::new(n - 1)).0;
        assert!(first < last, "order flipped: {first} vs {last}");
    }

    #[test]
    fn already_uniform_placement_stays_bounded() {
        let n = 64;
        let nl = uniform_netlist(n);
        let die = Die { width: 40.0, height: 40.0, rows: 40 };
        let xs: Vec<f64> = (0..n).map(|i| (i % 8) as f64 * 5.0 + 2.5).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i / 8) as f64 * 5.0 + 2.5).collect();
        let p = Placement::from_coords(xs, ys);
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        // Max displacement stays within a couple of grid pitches.
        for c in nl.cells() {
            let (x0, y0) = p.position(c);
            let (x1, y1) = s.position(c);
            let d = (x1 - x0).abs() + (y1 - y0).abs();
            assert!(d < 15.0, "cell {c} moved {d}");
        }
    }

    #[test]
    fn deterministic() {
        let n = 150;
        let nl = uniform_netlist(n);
        let die = Die { width: 15.0, height: 15.0, rows: 15 };
        let p = Placement::from_coords(vec![7.0; n], vec![7.0; n]);
        let a = spread(&nl, &p, &die, &SpreadConfig::default());
        let b = spread(&nl, &p, &die, &SpreadConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_netlist() {
        let nl = uniform_netlist(0);
        let die = Die { width: 1.0, height: 1.0, rows: 1 };
        let p = Placement::from_coords(vec![], vec![]);
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        assert!(s.is_empty());
    }

    /// A netlist of `areas.len()` unconnected cells with the given areas.
    fn netlist_with_areas(areas: &[f64]) -> Netlist {
        let mut b = NetlistBuilder::new();
        for &a in areas {
            b.add_cell(String::new(), a);
        }
        b.finish()
    }

    /// Maps unit-square samples to positions by one of five layouts:
    /// uniform, a tight clump, one shared point, a 4×4 lattice of heavy
    /// ties (edges included), and the die boundary (with `-0.0`s).
    fn layout(kind: usize, unit: &[(f64, f64)], die: &Die) -> (Vec<f64>, Vec<f64>) {
        let (w, h) = (die.width, die.height);
        let lattice = |t: f64, side: f64| (t * 4.0).floor().min(3.0) / 3.0 * side;
        unit.iter()
            .map(|&(u, v)| match kind {
                0 => (u * w, v * h),
                1 => (0.3 * w + 0.5 * u, 0.6 * h + 0.5 * v),
                2 => (w / 3.0, h / 3.0),
                3 => (lattice(u, w), lattice(v, h)),
                _ => match (u * 4.0) as usize {
                    0 => (if v < 0.25 { -0.0 } else { 0.0 }, v * h),
                    1 => (w, v * h),
                    2 => (v * w, 0.0),
                    _ => (v * w, h),
                },
            })
            .unzip()
    }

    /// Asserts the presorted spreader equals the re-sorting oracle bit for
    /// bit, at 1, 2 and 8 workers.
    fn assert_matches_reference(
        nl: &Netlist,
        xs: Vec<f64>,
        ys: Vec<f64>,
        die: &Die,
        config: &SpreadConfig,
    ) {
        let bits = |p: &Placement| -> Vec<(u64, u64)> {
            p.xs().iter().zip(p.ys()).map(|(x, y)| (x.to_bits(), y.to_bits())).collect()
        };
        let p = Placement::from_coords(xs, ys);
        let want = bits(&reference::spread(nl, &p, die, config));
        for threads in [1, 2, 8] {
            let got = spread_with_threads(nl, p.xs(), p.ys(), die, config, threads);
            assert_eq!(bits(&got), want, "{threads} threads, {config:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random netlists with non-uniform areas, every layout and every
        /// `SpreadConfig` corner. Sizes come in three bands: up to 40 cells
        /// (the tree stops above the fan-out depth), up to 400 and up to
        /// 3000 (subtrees reach far below it). `leaf_cells: 0` splits
        /// single cells off empty halves (the `split` clamp).
        #[test]
        fn presorted_spread_is_bit_equal_to_reference(
            (areas, unit) in (0usize..3)
                .prop_flat_map(|band| [1usize..40, 40..400, 400..3000][band].clone())
                .prop_flat_map(|n| (
                    proptest::collection::vec(0.05f64..4.0, n),
                    proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), n),
                )),
            kind in 0usize..5,
            (leaf, depth, util) in (0usize..4, 0usize..3, 0usize..3),
            (w, h) in (4.0f64..64.0, 4.0f64..64.0),
        ) {
            let nl = netlist_with_areas(&areas);
            let die = Die { width: w, height: h, rows: 8 };
            let (xs, ys) = layout(kind, &unit, &die);
            let config = SpreadConfig {
                target_utilization: [0.3, 0.9, 1.5][util],
                leaf_cells: [0, 1, 4, 12][leaf],
                max_depth: [0, 3, 48][depth],
            };
            assert_matches_reference(&nl, xs, ys, &die, &config);
        }
    }

    #[test]
    fn child_area_sums_in_parent_split_order() {
        // The left half of the root's x-split is {B1, B2, t1..t4}. Summed
        // in that x order (tiny cells first) its area is 2 + 2^-51; in
        // cell-id order the tiny cells vanish into 2.0. The child then
        // splits along y, where B1 comes first with exactly 1.0 — a split
        // only the id-order total would make.
        let tiny = f64::EPSILON / 2.0;
        let nl = netlist_with_areas(&[1.0, 1.0, tiny, tiny, tiny, tiny, 1.0, 1.0]);
        let die = Die { width: 20.0, height: 12.0, rows: 12 };
        let xs = vec![2.0, 3.0, 1.0, 1.1, 1.2, 1.3, 15.0, 16.0];
        let ys = vec![1.0, 9.0, 5.0, 6.0, 7.0, 8.0, 6.0, 6.0];
        let config = SpreadConfig { target_utilization: 0.9, leaf_cells: 1, max_depth: 48 };
        assert_matches_reference(&nl, xs, ys, &die, &config);
    }

    #[test]
    fn fan_out_stops_at_fixed_depth() {
        let n = 2000;
        let nl = uniform_netlist(n);
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.618_034) % 1.0 * 40.0).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.754_877) % 1.0 * 40.0).collect();
        let subtrees = |config: &SpreadConfig| {
            let ctx = Ctx { netlist: &nl, origx: &xs, origy: &ys, config };
            let (mut by_x, mut by_y) = (sorted_by_coord(&xs), sorted_by_coord(&ys));
            let rect = Rect { x0: 0.0, y0: 0.0, x1: 40.0, y1: 40.0 };
            let root = Region { lo: 0, hi: n, rect, depth: 0, area: n as f64 };
            let mut out = Vec::new();
            ctx.fan_out(&mut by_x, &mut by_y, &mut vec![false; n], &mut Vec::new(), root, &mut out);
            out
        };
        let deep = subtrees(&SpreadConfig::default());
        assert_eq!(deep.len(), 1 << FANOUT_DEPTH);
        assert!(deep.iter().all(|r| r.depth == FANOUT_DEPTH));
        // The subtrees tile the lists in order.
        assert!(deep.windows(2).all(|w| w[0].hi == w[1].lo) && deep[15].hi == n);
        // A shallower depth cap ends the tree above the fan-out depth.
        let shallow = subtrees(&SpreadConfig { max_depth: 3, ..SpreadConfig::default() });
        assert_eq!(shallow.len(), 8);
        assert!(shallow.iter().all(|r| r.depth == 3));
    }

    #[test]
    fn total_order_key_matches_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b), "{a} {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bin out of range")]
    fn density_map_bounds() {
        let nl = uniform_netlist(1);
        let die = Die { width: 4.0, height: 4.0, rows: 4 };
        let p = Placement::from_coords(vec![0.0], vec![0.0]);
        let map = DensityMap::compute(&nl, &p, &die, 2);
        let _ = map.utilization(2, 0);
    }
}
