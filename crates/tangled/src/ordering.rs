//! Phase I: linear-ordering generation by greedy cell agglomeration.
//!
//! Starting from a seed cell, the grower repeatedly adds the frontier cell
//! with the strongest connection to the growing group (paper §3.2.1). The
//! connection weight of a candidate `v` is
//!
//! ```text
//! w(v) = Σ over nets e ∋ v with e ∩ C ≠ ∅ of 1 / (λ(e) + 1)
//! ```
//!
//! where `λ(e)` is the number of pins of `e` outside the group (`v`
//! included). Nets mostly inside the group weigh more, so growth prefers
//! the interior of a tangled structure. Ties are broken by the smaller cut
//! increase (the paper's min-cut secondary criterion), then by cell id for
//! determinism.
//!
//! Following the paper's complexity knob, weight *updates* are skipped for
//! nets with `λ(e) ≥ lambda_threshold` (default 20) — their per-cell weight
//! contribution changes negligibly — while the cut and the absorb counts
//! stay exact.
//!
//! The frontier lives in an indexed binary max-heap with one entry per
//! frontier cell. Within one growth the weight, the touched-net count
//! and the absorb count of a cell only ever increase, so a key never
//! decreases and every update is a sift-up in place. `add_cell` records
//! each cell whose key changed once and refreshes it once at the end, so
//! a cell on many of the new cell's nets costs one heap update, not one
//! per net. The order is total (primary, secondary, then lower cell id),
//! so the pop order — and every ordering — does not depend on how the
//! heap is laid out.
//!
//! The produced [`LinearOrdering`] records, for every prefix of the order,
//! the cut `T(C)`, the cumulative pin count, and the number of absorbed
//! (fully internal) nets, which is everything Phase II needs to evaluate
//! the score curve in `O(Z)`.
//!
//! # Example
//!
//! ```
//! use gtl_netlist::{CellId, NetlistBuilder};
//! use gtl_tangled::{GrowthConfig, OrderingGrower};
//!
//! // A triangle plus a pendant cell: growth from inside the triangle
//! // gathers the triangle before the pendant.
//! let mut b = NetlistBuilder::new();
//! let c: Vec<_> = (0..4).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
//! b.add_anonymous_net([c[0], c[1]]);
//! b.add_anonymous_net([c[1], c[2]]);
//! b.add_anonymous_net([c[0], c[2]]);
//! b.add_anonymous_net([c[2], c[3]]);
//! let nl = b.finish();
//!
//! let mut grower = OrderingGrower::new(&nl, GrowthConfig::default());
//! let ordering = grower.grow(c[0]);
//! assert_eq!(ordering.cells()[3], c[3]); // pendant joins last
//! assert_eq!(ordering.cut_at(3), 0);     // whole graph absorbed
//! ```

use std::cmp::Ordering as CmpOrdering;

use gtl_netlist::{CellId, Netlist, SubsetStats};

#[cfg(test)]
mod lazy_reference;

/// Which quantity drives candidate selection during growth.
///
/// The paper argues (§3.2.1) that emphasizing the connection weight over
/// min-cut "is particularly important at the beginning of cell
/// agglomeration": min-cut-first tends to pull in weakly connected outside
/// cells. [`CutFirst`](GrowthCriterion::CutFirst) exists for the ablation
/// benches that demonstrate exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum GrowthCriterion {
    /// Maximize connection weight; break ties by smaller cut increase
    /// (the paper's choice).
    #[default]
    WeightFirst,
    /// Minimize cut increase; break ties by larger connection weight
    /// (the baseline the paper argues against).
    CutFirst,
}

/// Tuning parameters for the Phase I grower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GrowthConfig {
    /// Maximum ordering length `Z` (paper: at most 100K cells).
    pub max_len: usize,
    /// Nets with at least this many external pins do not propagate weight
    /// updates (paper: 20). Use `usize::MAX` for exact weights.
    pub lambda_threshold: usize,
    /// Primary/secondary selection criterion.
    pub criterion: GrowthCriterion,
}

impl Default for GrowthConfig {
    fn default() -> Self {
        Self { max_len: 100_000, lambda_threshold: 20, criterion: GrowthCriterion::default() }
    }
}

/// A linear ordering of cells with per-prefix connectivity profiles.
///
/// Produced by [`OrderingGrower::grow`]; consumed by Phase II candidate
/// extraction and by the figure benches that plot score-versus-size curves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LinearOrdering {
    cells: Vec<CellId>,
    cut_profile: Vec<u32>,
    pin_profile: Vec<u64>,
    absorbed_profile: Vec<u32>,
}

impl LinearOrdering {
    /// An empty ordering, ready to be filled by
    /// [`OrderingGrower::grow_into`] (its buffers are reused across
    /// growths).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the ordering, keeping the allocated buffers.
    fn clear(&mut self) {
        self.cells.clear();
        self.cut_profile.clear();
        self.pin_profile.clear();
        self.absorbed_profile.clear();
    }

    /// The cells in agglomeration order; the seed is first.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Number of cells in the ordering.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Net cut `T(C_k)` of the prefix holding the first `k + 1` cells.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn cut_at(&self, k: usize) -> usize {
        self.cut_profile[k] as usize
    }

    /// Total pins on the first `k + 1` cells.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn pins_at(&self, k: usize) -> usize {
        self.pin_profile[k] as usize
    }

    /// Full [`SubsetStats`] of the prefix holding the first `k + 1` cells.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn stats_at(&self, k: usize) -> SubsetStats {
        SubsetStats {
            size: k + 1,
            cut: self.cut_profile[k] as usize,
            pins: self.pin_profile[k] as usize,
            internal_nets: self.absorbed_profile[k] as usize,
        }
    }

    /// The first `k + 1` cells as a vector (one candidate group).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn prefix(&self, k: usize) -> Vec<CellId> {
        self.cells[..=k].to_vec()
    }
}

/// Frontier-heap entry: a frontier cell and its current (primary,
/// secondary) key. Higher keys win, then the lower cell id, so the order
/// is total and the heap maximum is unique. The heap holds exactly one
/// entry per frontier cell, refreshed whenever the cell's key rises.
#[derive(Debug, Clone, Copy)]
struct Entry {
    primary: f64,
    secondary: f64,
    cell: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.primary
            .total_cmp(&other.primary)
            .then_with(|| self.secondary.total_cmp(&other.secondary))
            .then_with(|| other.cell.cmp(&self.cell))
    }
}

/// `FrontierHeap::pos` value of a cell that has no heap entry.
const ABSENT: u32 = u32::MAX;

/// Indexed binary max-heap over [`Entry`], with the heap slot of every
/// cell in `pos` so a cell's entry can be found and raised in place.
#[derive(Debug)]
struct FrontierHeap {
    entries: Vec<Entry>,
    /// Heap slot of each cell's entry, or [`ABSENT`].
    pos: Vec<u32>,
}

impl FrontierHeap {
    fn new(num_cells: usize) -> Self {
        Self { entries: Vec::new(), pos: vec![ABSENT; num_cells] }
    }

    /// Inserts `e`, or replaces its cell's entry by `e`. The key must not
    /// be lower than the one it replaces, so a sift-up restores the heap.
    fn raise(&mut self, e: Entry) {
        let slot = match self.pos[e.cell as usize] {
            ABSENT => {
                self.entries.push(e);
                self.entries.len() - 1
            }
            slot => {
                debug_assert!(e >= self.entries[slot as usize], "frontier key decreased");
                slot as usize
            }
        };
        self.sift_up(slot, e);
    }

    /// Removes and returns the maximum entry.
    fn pop(&mut self) -> Option<Entry> {
        let last = self.entries.pop()?;
        let top = match self.entries.first() {
            Some(&top) => {
                self.sift_down(last);
                top
            }
            None => last,
        };
        self.pos[top.cell as usize] = ABSENT;
        Some(top)
    }

    /// Moves the hole at `slot` up until `e` fits, then places `e` there.
    fn sift_up(&mut self, mut slot: usize, e: Entry) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            let above = self.entries[parent];
            if above > e {
                break;
            }
            self.place(slot, above);
            slot = parent;
        }
        self.place(slot, e);
    }

    /// Moves the hole at the root down until `e` fits, then places `e`
    /// there.
    fn sift_down(&mut self, e: Entry) {
        let len = self.entries.len();
        let mut slot = 0;
        loop {
            let left = 2 * slot + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child =
                if right < len && self.entries[right] > self.entries[left] { right } else { left };
            let below = self.entries[child];
            if e > below {
                break;
            }
            self.place(slot, below);
            slot = child;
        }
        self.place(slot, e);
    }

    #[inline]
    fn place(&mut self, slot: usize, e: Entry) {
        self.entries[slot] = e;
        self.pos[e.cell as usize] = slot as u32;
    }

    /// Empties the heap, clearing `pos` only for the cells it still held.
    fn clear(&mut self) {
        for e in self.entries.drain(..) {
            self.pos[e.cell as usize] = ABSENT;
        }
    }
}

/// Reusable Phase I engine.
///
/// Holds `O(|V| + |E|)` scratch buffers so that running many seeds on the
/// same netlist (the paper launches 100) only pays for the cells and nets
/// actually touched by each growth, not for re-allocation.
#[derive(Debug)]
pub struct OrderingGrower<'a> {
    netlist: &'a Netlist,
    config: GrowthConfig,
    in_group: Vec<bool>,
    /// Pins of each net inside the group.
    net_inside: Vec<u32>,
    /// Current connection weight of each frontier cell.
    weight: Vec<f64>,
    /// Incident nets of each cell that are touched (≥ 1 pin inside).
    touched_nets: Vec<u32>,
    /// Incident nets of each cell where the cell is the only outside pin.
    absorb: Vec<u32>,
    cell_dirty: Vec<bool>,
    dirty_cells: Vec<u32>,
    dirty_nets: Vec<u32>,
    /// Whether a cell's key changed during the running `add_cell`.
    key_changed: Vec<bool>,
    /// The cells with `key_changed` set.
    changed_cells: Vec<u32>,
    frontier: FrontierHeap,
}

impl<'a> OrderingGrower<'a> {
    /// Creates a grower for `netlist`.
    pub fn new(netlist: &'a Netlist, config: GrowthConfig) -> Self {
        Self {
            netlist,
            config,
            in_group: vec![false; netlist.num_cells()],
            net_inside: vec![0; netlist.num_nets()],
            weight: vec![0.0; netlist.num_cells()],
            touched_nets: vec![0; netlist.num_cells()],
            absorb: vec![0; netlist.num_cells()],
            cell_dirty: vec![false; netlist.num_cells()],
            dirty_cells: Vec::new(),
            dirty_nets: Vec::new(),
            key_changed: vec![false; netlist.num_cells()],
            changed_cells: Vec::new(),
            frontier: FrontierHeap::new(netlist.num_cells()),
        }
    }

    /// The configuration this grower runs with.
    pub fn config(&self) -> &GrowthConfig {
        &self.config
    }

    /// Grows a linear ordering from `seed`.
    ///
    /// The ordering ends when `max_len` cells are gathered or the connected
    /// region around the seed is exhausted.
    ///
    /// Allocates a fresh [`LinearOrdering`]; hot paths that run many
    /// growths should prefer [`Self::grow_into`] with a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if `seed` is out of bounds for the netlist.
    pub fn grow(&mut self, seed: CellId) -> LinearOrdering {
        let mut ordering = LinearOrdering::new();
        self.grow_into(seed, &mut ordering);
        ordering
    }

    /// Grows a linear ordering from `seed` into a caller-owned buffer,
    /// reusing its allocations (`out` is cleared first).
    ///
    /// The result is identical to [`Self::grow`] — buffer reuse is
    /// invisible in the output, which is what lets per-worker scratch
    /// state satisfy the execution layer's determinism contract
    /// (see [`gtl_core`]).
    ///
    /// # Panics
    ///
    /// Panics if `seed` is out of bounds for the netlist.
    pub fn grow_into(&mut self, seed: CellId, out: &mut LinearOrdering) {
        assert!(seed.index() < self.netlist.num_cells(), "seed {seed} out of bounds");
        self.reset();

        let cap = self.config.max_len.min(self.netlist.num_cells());
        out.clear();
        out.cells.reserve(cap);
        out.cut_profile.reserve(cap);
        out.pin_profile.reserve(cap);
        out.absorbed_profile.reserve(cap);

        let mut cut = 0i64;
        let mut pins = 0u64;
        let mut absorbed = 0i64;

        self.add_cell(seed, &mut cut, &mut pins, &mut absorbed, out);

        while out.cells.len() < self.config.max_len {
            let Some(next) = self.frontier.pop() else { break };
            self.add_cell(CellId::from(next.cell), &mut cut, &mut pins, &mut absorbed, out);
        }
    }

    /// The (primary, secondary) max-heap key of a frontier cell under the
    /// configured criterion.
    #[inline]
    fn keys(&self, cell: CellId) -> (f64, f64) {
        let w = self.weight[cell.index()];
        let d = -(self.delta_cut(cell) as f64); // higher = smaller cut growth
        match self.config.criterion {
            GrowthCriterion::WeightFirst => (w, d),
            GrowthCriterion::CutFirst => (d, w),
        }
    }

    /// Cut increase if `cell` were added now: new nets touched minus nets
    /// absorbed (cell is their last outside pin). Used as tie-break.
    #[inline]
    fn delta_cut(&self, cell: CellId) -> i32 {
        let untouched =
            self.netlist.cell_degree(cell) as i32 - self.touched_nets[cell.index()] as i32;
        untouched - self.absorb[cell.index()] as i32
    }

    #[inline]
    fn mark_dirty(&mut self, cell: CellId) {
        if !self.cell_dirty[cell.index()] {
            self.cell_dirty[cell.index()] = true;
            self.dirty_cells.push(cell.raw());
        }
    }

    /// Records that `cell`'s key changed; `add_cell` refreshes its heap
    /// entry once at the end.
    #[inline]
    fn mark_changed(&mut self, cell: CellId) {
        if !self.key_changed[cell.index()] {
            self.key_changed[cell.index()] = true;
            self.changed_cells.push(cell.raw());
        }
    }

    fn add_cell(
        &mut self,
        v: CellId,
        cut: &mut i64,
        pins: &mut u64,
        absorbed: &mut i64,
        ordering: &mut LinearOrdering,
    ) {
        debug_assert!(!self.in_group[v.index()]);
        self.mark_dirty(v);
        self.in_group[v.index()] = true;
        *pins += self.netlist.cell_degree(v) as u64;

        for i in 0..self.netlist.cell_nets(v).len() {
            let net = self.netlist.cell_nets(v)[i];
            let deg = self.netlist.net_degree(net);
            let old_in = self.net_inside[net.index()] as usize;
            if old_in == 0 {
                self.dirty_nets.push(net.raw());
            }
            self.net_inside[net.index()] = (old_in + 1) as u32;
            let new_in = old_in + 1;

            let was_cut = old_in > 0 && old_in < deg;
            let is_cut = new_in < deg; // new_in > 0 always
            *cut += is_cut as i64 - was_cut as i64;
            if new_in == deg {
                *absorbed += 1;
            }

            let outside_new = deg - new_in;
            if old_in == 0 {
                // First touch: every other pin becomes (or strengthens) a
                // frontier cell.
                let w = 1.0 / (outside_new as f64 + 1.0);
                for j in 0..deg {
                    let u = self.netlist.net_cells(net)[j];
                    if u == v || self.in_group[u.index()] {
                        continue;
                    }
                    self.mark_dirty(u);
                    self.touched_nets[u.index()] += 1;
                    self.weight[u.index()] += w;
                    self.mark_changed(u);
                }
            } else {
                // The net shrank by one outside pin; update frontier weights
                // unless the net is large (the paper's λ ≥ 20 skip).
                let outside_old = deg - old_in;
                if outside_old < self.config.lambda_threshold.saturating_add(1) {
                    let dw = 1.0 / (outside_new as f64 + 1.0) - 1.0 / (outside_old as f64 + 1.0);
                    for j in 0..deg {
                        let u = self.netlist.net_cells(net)[j];
                        if self.in_group[u.index()] {
                            continue;
                        }
                        self.mark_dirty(u);
                        self.weight[u.index()] += dw;
                        self.mark_changed(u);
                    }
                }
            }

            if outside_new == 1 {
                // Exactly one pin remains outside: adding it would absorb
                // the net. Track for the min-cut tie-break.
                for j in 0..deg {
                    let u = self.netlist.net_cells(net)[j];
                    if !self.in_group[u.index()] {
                        self.mark_dirty(u);
                        self.absorb[u.index()] += 1;
                        self.mark_changed(u);
                        break;
                    }
                }
            }
        }

        // The refresh order shapes the heap but not the pop order, which
        // the total order on entries fixes.
        while let Some(raw) = self.changed_cells.pop() {
            self.key_changed[raw as usize] = false;
            let (primary, secondary) = self.keys(CellId::from(raw));
            self.frontier.raise(Entry { primary, secondary, cell: raw });
        }

        ordering.cells.push(v);
        ordering.cut_profile.push(u32::try_from(*cut).expect("cut fits u32"));
        ordering.pin_profile.push(*pins);
        ordering.absorbed_profile.push(u32::try_from(*absorbed).expect("absorbed fits u32"));
    }

    /// Clears only the state touched by the previous growth.
    fn reset(&mut self) {
        for raw in self.dirty_cells.drain(..) {
            let i = raw as usize;
            self.in_group[i] = false;
            self.weight[i] = 0.0;
            self.touched_nets[i] = 0;
            self.absorb[i] = 0;
            self.cell_dirty[i] = false;
        }
        for raw in self.dirty_nets.drain(..) {
            self.net_inside[raw as usize] = 0;
        }
        self.frontier.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::{CellSet, NetlistBuilder};
    use proptest::prelude::*;
    use proptest::strategy::Just;

    /// Builds two 5-cliques bridged by a single 2-pin net.
    fn two_cliques() -> (Netlist, Vec<CellId>) {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..10).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for base in [0, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    b.add_anonymous_net([cells[base + i], cells[base + j]]);
                }
            }
        }
        b.add_anonymous_net([cells[0], cells[5]]);
        (b.finish(), cells)
    }

    #[test]
    fn grows_clique_before_bridge() {
        let (nl, cells) = two_cliques();
        let mut g = OrderingGrower::new(&nl, GrowthConfig::default());
        let ord = g.grow(cells[1]);
        assert_eq!(ord.len(), 10);
        // First 5 cells must be exactly the first clique.
        let first: CellSet = ord.cells()[..5].iter().copied().collect();
        for (i, &cell) in cells.iter().enumerate().take(5) {
            assert!(first.contains(cell), "clique member {i} missing from prefix");
        }
        // Cut at the clique boundary is exactly the bridge net.
        assert_eq!(ord.cut_at(4), 1);
        // After absorbing everything the cut is zero.
        assert_eq!(ord.cut_at(9), 0);
    }

    #[test]
    fn profiles_match_direct_subset_stats() {
        let (nl, cells) = two_cliques();
        let mut g = OrderingGrower::new(&nl, GrowthConfig::default());
        let ord = g.grow(cells[7]);
        for k in 0..ord.len() {
            let set: CellSet =
                CellSet::from_cells(nl.num_cells(), ord.cells()[..=k].iter().copied());
            let direct = SubsetStats::compute(&nl, &set);
            let profiled = ord.stats_at(k);
            assert_eq!(direct, profiled, "prefix {k}");
        }
    }

    #[test]
    fn max_len_respected() {
        let (nl, cells) = two_cliques();
        let mut g =
            OrderingGrower::new(&nl, GrowthConfig { max_len: 3, ..GrowthConfig::default() });
        let ord = g.grow(cells[0]);
        assert_eq!(ord.len(), 3);
    }

    #[test]
    fn disconnected_region_stops_early() {
        let mut b = NetlistBuilder::new();
        let c: Vec<_> = (0..4).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        b.add_anonymous_net([c[0], c[1]]);
        b.add_anonymous_net([c[2], c[3]]);
        let nl = b.finish();
        let mut g = OrderingGrower::new(&nl, GrowthConfig::default());
        let ord = g.grow(c[0]);
        assert_eq!(ord.len(), 2);
        assert_eq!(ord.cut_at(1), 0);
    }

    #[test]
    fn grow_into_reuses_buffer_and_matches_grow() {
        let (nl, cells) = two_cliques();
        let mut g = OrderingGrower::new(&nl, GrowthConfig::default());
        let fresh = g.grow(cells[6]);
        let mut reused = LinearOrdering::new();
        // Fill with one growth, then overwrite with another: the reused
        // buffer must leave no trace of its previous contents.
        g.grow_into(cells[1], &mut reused);
        g.grow_into(cells[6], &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn grower_is_reusable_and_deterministic() {
        let (nl, cells) = two_cliques();
        let mut g = OrderingGrower::new(&nl, GrowthConfig::default());
        let a = g.grow(cells[2]);
        let b = g.grow(cells[8]);
        let a2 = g.grow(cells[2]);
        assert_eq!(a, a2, "same seed must reproduce the same ordering");
        assert_ne!(a.cells()[0], b.cells()[0]);
    }

    #[test]
    fn isolated_seed_yields_singleton() {
        let mut b = NetlistBuilder::new();
        let c0 = b.add_cell("c0", 1.0);
        b.add_cell("c1", 1.0);
        let nl = b.finish();
        let mut g = OrderingGrower::new(&nl, GrowthConfig::default());
        let ord = g.grow(c0);
        assert_eq!(ord.len(), 1);
        assert_eq!(ord.cut_at(0), 0);
        assert_eq!(ord.pins_at(0), 0);
    }

    #[test]
    fn exact_weights_match_thresholded_on_small_nets() {
        // With all nets below the threshold the λ-skip changes nothing.
        let (nl, cells) = two_cliques();
        let mut exact = OrderingGrower::new(
            &nl,
            GrowthConfig { lambda_threshold: usize::MAX, ..GrowthConfig::default() },
        );
        let mut thresh = OrderingGrower::new(&nl, GrowthConfig::default());
        assert_eq!(exact.grow(cells[3]), thresh.grow(cells[3]));
    }

    #[test]
    fn weight_prefers_small_nets() {
        // Seed s is on a 2-pin net to a, and a 4-pin net to {b, c, d}.
        // The 2-pin neighbor has weight 1/2 > 1/4 and must be added first.
        let mut bld = NetlistBuilder::new();
        let s = bld.add_cell("s", 1.0);
        let a = bld.add_cell("a", 1.0);
        let b = bld.add_cell("b", 1.0);
        let c = bld.add_cell("c", 1.0);
        let d = bld.add_cell("d", 1.0);
        bld.add_anonymous_net([s, a]);
        bld.add_anonymous_net([s, b, c, d]);
        let nl = bld.finish();
        let mut g = OrderingGrower::new(&nl, GrowthConfig::default());
        let ord = g.grow(s);
        assert_eq!(ord.cells()[1], a);
    }

    #[test]
    fn tie_break_prefers_absorbing_cell() {
        // Both x and y connect to the seed via one 2-pin net each (equal
        // weight). x has a second net to the seed's other net partner…
        // Construct: s-x, s-y, plus net {x, s} duplicated is deduped, so:
        // s-x (2pin), s-y (2pin), and x-z (2pin) gives x delta_cut = 1-0?
        // Simpler: y is degree-1 (only net to s) → adding y absorbs its
        // net (delta −… ) while x has an extra outside net (delta bigger).
        let mut bld = NetlistBuilder::new();
        let s = bld.add_cell("s", 1.0);
        let x = bld.add_cell("x", 1.0);
        let y = bld.add_cell("y", 1.0);
        let z = bld.add_cell("z", 1.0);
        bld.add_anonymous_net([s, x]);
        bld.add_anonymous_net([s, y]);
        bld.add_anonymous_net([x, z]);
        let nl = bld.finish();
        let mut g = OrderingGrower::new(&nl, GrowthConfig::default());
        let ord = g.grow(s);
        // x and y have equal weight 1/2; y's delta_cut = -1 (absorbs s-y),
        // x's delta_cut = 0 (absorbs s-x but opens x-z).
        assert_eq!(ord.cells()[1], y);
    }

    #[test]
    fn cut_first_criterion_changes_growth() {
        // Seed s has a 2-pin net to a (weight ½) and a 4-pin net to
        // {b, c, d} (weight ¼ each); b also hangs on a pendant net.
        // WeightFirst picks a (strongest connection); CutFirst prefers
        // the candidate with the smallest cut growth — c or d (degree 1,
        // absorb-eligible) over a only when deltas differ; construct so
        // they do: give a an extra outside net.
        let mut bld = NetlistBuilder::new();
        let s = bld.add_cell("s", 1.0);
        let a = bld.add_cell("a", 1.0);
        let b = bld.add_cell("b", 1.0);
        let c = bld.add_cell("c", 1.0);
        let d = bld.add_cell("d", 1.0);
        let e = bld.add_cell("e", 1.0);
        bld.add_anonymous_net([s, a]);
        bld.add_anonymous_net([a, e]); // a has an extra outside net
        bld.add_anonymous_net([s, b, c, d]);
        let nl = bld.finish();

        let weight_first = OrderingGrower::new(&nl, GrowthConfig::default()).grow(s);
        assert_eq!(weight_first.cells()[1], a, "weight-first picks the ½-weight neighbor");

        let cut_first = OrderingGrower::new(
            &nl,
            GrowthConfig { criterion: GrowthCriterion::CutFirst, ..GrowthConfig::default() },
        )
        .grow(s);
        // a would add net a-e to the cut (Δ = +1 − 1 = 0); b/c/d keep the
        // 4-pin net in the cut without opening a new one but don't absorb
        // it either (Δ = 0 − 0 = 0)… ties resolve by weight then id; the
        // essential check is that the orders differ and profiles stay
        // exact.
        assert_eq!(cut_first.len(), weight_first.len());
        for k in 0..cut_first.len() {
            let set: gtl_netlist::CellSet =
                CellSet::from_cells(nl.num_cells(), cut_first.cells()[..=k].iter().copied());
            assert_eq!(SubsetStats::compute(&nl, &set), cut_first.stats_at(k));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn seed_out_of_bounds_panics() {
        let (nl, _) = two_cliques();
        let mut g = OrderingGrower::new(&nl, GrowthConfig::default());
        let _ = g.grow(CellId::new(999));
    }

    /// A random netlist: mostly small nets plus a few wide ones, so that
    /// both sides of every `lambda_threshold` in the tests are hit.
    fn random_netlist() -> impl Strategy<Value = Netlist> {
        (2usize..60)
            .prop_flat_map(|n| {
                let small = proptest::collection::vec(proptest::collection::vec(0..n, 1..5), 0..90);
                let wide = proptest::collection::vec(proptest::collection::vec(0..n, 5..40), 0..4);
                (Just(n), small, wide)
            })
            .prop_map(|(n, small, wide)| {
                let mut b = NetlistBuilder::new();
                b.add_anonymous_cells(n);
                for pins in small.iter().chain(&wide) {
                    b.add_anonymous_net(pins.iter().map(|&p| CellId::new(p)));
                }
                b.finish()
            })
    }

    /// A growth configuration from the test's index ranges.
    fn config(criterion: usize, lambda: usize, max_len: usize) -> GrowthConfig {
        GrowthConfig {
            max_len,
            lambda_threshold: [1, 20, usize::MAX][lambda],
            criterion: [GrowthCriterion::WeightFirst, GrowthCriterion::CutFirst][criterion],
        }
    }

    /// Checks the frontier heap between growth steps: it holds exactly
    /// the frontier (cells outside the group on a touched net), each
    /// entry carries its cell's current key, `pos` points at every entry
    /// and at nothing else, and the heap property holds.
    fn assert_frontier_consistent(g: &OrderingGrower<'_>) {
        let heap = &g.frontier;
        for (slot, e) in heap.entries.iter().enumerate() {
            let cell = CellId::from(e.cell);
            assert_eq!(heap.pos[cell.index()] as usize, slot, "pos of {cell}");
            assert!(!g.in_group[cell.index()], "in-group cell {cell} in the heap");
            let (primary, secondary) = g.keys(cell);
            assert_eq!(e.primary.to_bits(), primary.to_bits(), "stale primary of {cell}");
            assert_eq!(e.secondary.to_bits(), secondary.to_bits(), "stale secondary of {cell}");
            if slot > 0 {
                assert!(heap.entries[(slot - 1) / 2] > *e, "heap order at slot {slot}");
            }
        }
        for c in 0..g.netlist.num_cells() {
            let frontier = !g.in_group[c] && g.touched_nets[c] > 0;
            assert_eq!(heap.pos[c] != ABSENT, frontier, "frontier membership of c{c}");
            assert!(!g.key_changed[c], "key_changed left set on c{c}");
        }
        assert!(g.changed_cells.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The indexed-heap grower returns exactly the ordering of the
        /// lazy-heap grower it replaced, for both criteria, every
        /// `lambda_threshold` regime and `max_len` clipping, with one
        /// grower and one output buffer reused across several seeds.
        #[test]
        fn indexed_heap_matches_lazy_heap_oracle(
            nl in random_netlist(),
            criterion in 0usize..2,
            lambda in 0usize..3,
            max_len in 1usize..70,
            seeds in proptest::collection::vec(0usize..60, 1..6),
        ) {
            let cfg = config(criterion, lambda, max_len);
            let mut grower = OrderingGrower::new(&nl, cfg);
            let mut oracle = lazy_reference::LazyGrower::new(&nl, cfg);
            let mut reused = LinearOrdering::new();
            for seed in seeds {
                let seed = CellId::new(seed % nl.num_cells());
                grower.grow_into(seed, &mut reused);
                let mut expected = LinearOrdering::new();
                oracle.grow_into(seed, &mut expected);
                prop_assert_eq!(&reused, &expected);
            }
        }

        /// After every accepted cell — each `max_len` stops the growth
        /// right after that many cells — the heap holds exactly the
        /// frontier with consistent positions, also when the grower
        /// was used for an earlier growth.
        #[test]
        fn heap_holds_exactly_the_frontier_after_every_cell(
            nl in random_netlist(),
            criterion in 0usize..2,
            lambda in 0usize..3,
            seeds in (0usize..60, 0usize..60),
        ) {
            let mut g = OrderingGrower::new(&nl, config(criterion, lambda, usize::MAX));
            let earlier = CellId::new(seeds.0 % nl.num_cells());
            let seed = CellId::new(seeds.1 % nl.num_cells());
            let mut out = LinearOrdering::new();
            g.grow_into(seed, &mut out);
            let full = out.len();
            for k in 1..=full {
                g.config.max_len = usize::MAX;
                g.grow_into(earlier, &mut out);
                g.config.max_len = k;
                g.grow_into(seed, &mut out);
                prop_assert_eq!(out.len(), k);
                assert_frontier_consistent(&g);
            }
        }
    }
}
