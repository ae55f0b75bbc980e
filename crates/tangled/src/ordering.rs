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
//! frontier cell. Each entry is a single `u128` key whose integer order
//! is the selection order: the order-preserving bit images of the primary
//! and secondary criteria (the `total_cmp` image of the weight, the
//! reversed image of the cut increase) above `!cell`, so a sift step is
//! one integer compare and a tie goes to the lower cell id. Within one
//! growth the weight, the touched-net count and the absorb count of a
//! cell only ever increase, so a key never decreases and every update is
//! a sift-up in place. `add_cell` records each cell whose key changed
//! once and refreshes it once at the end, so a cell on many of the new
//! cell's nets costs one heap update, not one per net. The order is
//! total, so the pop order — and every ordering — does not depend on how
//! the heap is laid out.
//!
//! All per-cell state (weight, touched-net and absorb counts, heap slot,
//! and the in-group/dirty/changed flags) sits in one 24-byte record, so a
//! pin visit touches one record — usually one cache line — instead of a
//! slot in each of several arrays.
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

#[cfg(test)]
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

/// The (primary, secondary, cell) comparator of the `f64`-keyed heap
/// entries the packed keys replaced: higher keys win, then the lower cell
/// id. Kept as the oracle for the packed-key images and for the lazy-heap
/// reference grower.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct Entry {
    primary: f64,
    secondary: f64,
    cell: u32,
}

#[cfg(test)]
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
#[cfg(test)]
impl Eq for Entry {}

#[cfg(test)]
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.primary
            .total_cmp(&other.primary)
            .then_with(|| self.secondary.total_cmp(&other.secondary))
            .then_with(|| other.cell.cmp(&self.cell))
    }
}

/// The heap key of a frontier cell: one integer whose order is the
/// (primary, secondary, lower cell id) order of the growth criterion.
///
/// The weight enters as its `f64::total_cmp` image and the cut term as
/// the reversed image of `delta_cut`, i.e. the order of `-delta_cut` (the
/// `f64` key `-(delta_cut as f64)` never takes `+0.0`, so the orders
/// agree). `WeightFirst` packs (weight:64, cut:32, !cell:32) and
/// `CutFirst` packs (cut:32, weight:64, !cell:32).
#[inline]
fn pack_key(criterion: GrowthCriterion, weight: f64, delta_cut: i32, cell: u32) -> u128 {
    let bits = weight.to_bits();
    let w = (if bits >> 63 == 0 { bits | 1 << 63 } else { !bits }) as u128;
    let d = !(delta_cut as u32 ^ 1 << 31) as u128;
    let high = match criterion {
        GrowthCriterion::WeightFirst => w << 32 | d,
        GrowthCriterion::CutFirst => d << 64 | w,
    };
    high << 32 | !cell as u128
}

/// The cell a packed key belongs to.
#[inline]
fn key_cell(key: u128) -> u32 {
    !(key as u32)
}

/// `CellState::pos` value of a cell that has no heap entry.
const ABSENT: u32 = u32::MAX;

/// `CellState::flags` bit: the cell is in the group.
const IN_GROUP: u8 = 1;
/// `CellState::flags` bit: the cell is on the dirty list.
const DIRTY: u8 = 2;
/// `CellState::flags` bit: the cell's key changed during the running
/// `add_cell` and is on the changed list.
const CHANGED: u8 = 4;

/// Everything growth keeps per cell, in 24 bytes, so a pin visit reads
/// and writes one record (usually one cache line).
#[derive(Debug, Clone, Copy)]
struct CellState {
    /// Connection weight (frontier cells).
    weight: f64,
    /// Incident nets that are touched (≥ 1 pin inside).
    touched: u32,
    /// Incident nets where the cell is the only outside pin.
    absorb: u32,
    /// Heap slot of the cell's entry, or [`ABSENT`].
    pos: u32,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<CellState>() == 24);

const FRESH: CellState = CellState { weight: 0.0, touched: 0, absorb: 0, pos: ABSENT, flags: 0 };

/// Indexed binary max-heap of packed keys; each cell's slot lives in its
/// [`CellState::pos`], so an entry can be found and raised in place.
#[derive(Debug, Default)]
struct FrontierHeap {
    keys: Vec<u128>,
}

impl FrontierHeap {
    /// Inserts `key`, or replaces its cell's entry by `key`. The key must
    /// not be lower than the one it replaces, so a sift-up restores the
    /// heap.
    fn raise(&mut self, cells: &mut [CellState], key: u128) {
        let slot = match cells[key_cell(key) as usize].pos {
            ABSENT => {
                self.keys.push(key);
                self.keys.len() - 1
            }
            slot => {
                debug_assert!(key >= self.keys[slot as usize], "frontier key decreased");
                slot as usize
            }
        };
        self.sift_up(cells, slot, key);
    }

    /// Removes the maximum entry and returns its cell.
    fn pop(&mut self, cells: &mut [CellState]) -> Option<u32> {
        let last = self.keys.pop()?;
        let top = match self.keys.first() {
            Some(&top) => {
                self.sift_down(cells, last);
                top
            }
            None => last,
        };
        let cell = key_cell(top);
        cells[cell as usize].pos = ABSENT;
        Some(cell)
    }

    /// Moves the hole at `slot` up until `key` fits, then places `key`
    /// there.
    fn sift_up(&mut self, cells: &mut [CellState], mut slot: usize, key: u128) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            let above = self.keys[parent];
            if above > key {
                break;
            }
            self.place(cells, slot, above);
            slot = parent;
        }
        self.place(cells, slot, key);
    }

    /// Moves the hole at the root down until `key` fits, then places
    /// `key` there.
    fn sift_down(&mut self, cells: &mut [CellState], key: u128) {
        let len = self.keys.len();
        let mut slot = 0;
        loop {
            let left = 2 * slot + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child =
                if right < len && self.keys[right] > self.keys[left] { right } else { left };
            let below = self.keys[child];
            if key > below {
                break;
            }
            self.place(cells, slot, below);
            slot = child;
        }
        self.place(cells, slot, key);
    }

    #[inline]
    fn place(&mut self, cells: &mut [CellState], slot: usize, key: u128) {
        self.keys[slot] = key;
        cells[key_cell(key) as usize].pos = slot as u32;
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
    cells: Vec<CellState>,
    /// Pins of each net inside the group.
    net_inside: Vec<u32>,
    /// The cells with [`DIRTY`] set.
    dirty_cells: Vec<u32>,
    dirty_nets: Vec<u32>,
    /// The cells with [`CHANGED`] set.
    changed_cells: Vec<u32>,
    frontier: FrontierHeap,
}

impl<'a> OrderingGrower<'a> {
    /// Creates a grower for `netlist`.
    pub fn new(netlist: &'a Netlist, config: GrowthConfig) -> Self {
        Self {
            netlist,
            config,
            cells: vec![FRESH; netlist.num_cells()],
            net_inside: vec![0; netlist.num_nets()],
            dirty_cells: Vec::new(),
            dirty_nets: Vec::new(),
            changed_cells: Vec::new(),
            frontier: FrontierHeap::default(),
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

        self.add_cell(seed.raw(), &mut cut, &mut pins, &mut absorbed, out);

        while out.cells.len() < self.config.max_len {
            let Some(next) = self.frontier.pop(&mut self.cells) else { break };
            self.add_cell(next, &mut cut, &mut pins, &mut absorbed, out);
        }
    }

    /// The packed heap key of a frontier cell under the configured
    /// criterion.
    #[inline]
    fn key(&self, cell: u32) -> u128 {
        let s = &self.cells[cell as usize];
        // Cut increase if the cell were added now: new nets touched
        // minus nets absorbed (the cell is their last outside pin).
        let untouched = self.netlist.cell_degree(CellId::from(cell)) as i32 - s.touched as i32;
        pack_key(self.config.criterion, s.weight, untouched - s.absorb as i32, cell)
    }

    /// Marks an outside cell's key as changed (and the cell dirty) and
    /// returns its state; `add_cell` refreshes its heap entry once at
    /// the end. Returns `None` for a cell in the group.
    #[inline]
    fn outside_changed(&mut self, u: CellId) -> Option<&mut CellState> {
        let s = &mut self.cells[u.index()];
        if s.flags & (IN_GROUP | CHANGED) == 0 {
            // CHANGED implies DIRTY, so only an unchanged cell can be new.
            if s.flags & DIRTY == 0 {
                self.dirty_cells.push(u.raw());
            }
            s.flags |= DIRTY | CHANGED;
            self.changed_cells.push(u.raw());
        }
        (s.flags & IN_GROUP == 0).then_some(s)
    }

    fn add_cell(
        &mut self,
        v: u32,
        cut: &mut i64,
        pins: &mut u64,
        absorbed: &mut i64,
        ordering: &mut LinearOrdering,
    ) {
        let netlist = self.netlist;
        let vid = CellId::from(v);
        let s = &mut self.cells[v as usize];
        debug_assert!(s.flags & IN_GROUP == 0);
        if s.flags & DIRTY == 0 {
            self.dirty_cells.push(v);
        }
        s.flags |= IN_GROUP | DIRTY;
        *pins += netlist.cell_degree(vid) as u64;

        for &net in netlist.cell_nets(vid) {
            let pins_of = netlist.net_cells(net);
            let deg = pins_of.len();
            let old_in = self.net_inside[net.index()] as usize;
            if old_in == 0 {
                self.dirty_nets.push(net.raw());
            }
            let new_in = old_in + 1;
            self.net_inside[net.index()] = new_in as u32;

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
                for &u in pins_of {
                    if let Some(s) = self.outside_changed(u) {
                        s.touched += 1;
                        s.weight += w;
                    }
                }
            } else {
                // The net shrank by one outside pin; update frontier weights
                // unless the net is large (the paper's λ ≥ 20 skip).
                let outside_old = deg - old_in;
                if outside_old < self.config.lambda_threshold.saturating_add(1) {
                    let dw = 1.0 / (outside_new as f64 + 1.0) - 1.0 / (outside_old as f64 + 1.0);
                    for &u in pins_of {
                        if let Some(s) = self.outside_changed(u) {
                            s.weight += dw;
                        }
                    }
                }
            }

            if outside_new == 1 {
                // Exactly one pin remains outside: adding it would absorb
                // the net. Track for the min-cut tie-break.
                for &u in pins_of {
                    if let Some(s) = self.outside_changed(u) {
                        s.absorb += 1;
                        break;
                    }
                }
            }
        }

        // The refresh order shapes the heap but not the pop order, which
        // the total order on keys fixes.
        while let Some(u) = self.changed_cells.pop() {
            self.cells[u as usize].flags &= !CHANGED;
            let key = self.key(u);
            self.frontier.raise(&mut self.cells, key);
        }

        ordering.cells.push(vid);
        ordering.cut_profile.push(u32::try_from(*cut).expect("cut fits u32"));
        ordering.pin_profile.push(*pins);
        ordering.absorbed_profile.push(u32::try_from(*absorbed).expect("absorbed fits u32"));
    }

    /// Clears only the state touched by the previous growth.
    fn reset(&mut self) {
        for raw in self.dirty_cells.drain(..) {
            self.cells[raw as usize] = FRESH;
        }
        for raw in self.dirty_nets.drain(..) {
            self.net_inside[raw as usize] = 0;
        }
        self.frontier.keys.clear();
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
    /// entry is its cell's freshly packed key, every `pos` points back at
    /// its own slot, no changed flag is left set, and the heap property
    /// holds.
    fn assert_frontier_consistent(g: &OrderingGrower<'_>) {
        let keys = &g.frontier.keys;
        for (slot, &key) in keys.iter().enumerate() {
            let cell = key_cell(key);
            assert_eq!(g.cells[cell as usize].pos as usize, slot, "pos of c{cell}");
            assert_eq!(key, g.key(cell), "stale key of c{cell}");
            if slot > 0 {
                assert!(keys[(slot - 1) / 2] > key, "heap order at slot {slot}");
            }
        }
        for (c, s) in g.cells.iter().enumerate() {
            let frontier = s.flags & IN_GROUP == 0 && s.touched > 0;
            assert_eq!(s.pos != ABSENT, frontier, "frontier membership of c{c}");
            assert_eq!(s.flags & CHANGED, 0, "changed flag left set on c{c}");
        }
        assert!(g.changed_cells.is_empty());
    }

    /// Connection weights: the signed zeros, subnormals, `f64::MAX`,
    /// arbitrary bit patterns (negatives, infinities and NaNs among
    /// them) and sums of `1/(k+1)` terms like the grower's, drawn from a
    /// small `k` range so that equal sums recur.
    fn weight() -> impl Strategy<Value = f64> {
        (0usize..6, 0u64..=u64::MAX, proptest::collection::vec(0usize..4, 0..5)).prop_map(
            |(kind, bits, ks)| match kind {
                0 => [0.0, -0.0, f64::MAX, f64::MIN_POSITIVE][(bits % 4) as usize],
                1 => f64::from_bits(bits % (1 << 52)), // ±0 or a positive subnormal
                2 => -f64::from_bits(bits % (1 << 52)),
                3 => f64::from_bits(bits),
                _ => ks.iter().map(|&k| 1.0 / (k as f64 + 1.0)).sum(),
            },
        )
    }

    /// Cut increases: negative, zero, large positive and anywhere in `i32`.
    fn delta_cut() -> impl Strategy<Value = i32> {
        (0usize..4, -40i32..0, 1 << 24..=i32::MAX, i32::MIN..=i32::MAX)
            .prop_map(|(kind, negative, large, any)| [negative, 0, large, any][kind])
    }

    /// A (weight, delta_cut, cell) triple.
    fn frontier_key() -> impl Strategy<Value = (f64, i32, u32)> {
        (weight(), delta_cut(), 0u32..=u32::MAX)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Comparing packed keys gives the same `Ordering` as the
        /// `total_cmp` comparator of the `f64` entries, under both
        /// criteria. `same` makes the second key equal to the first in
        /// weight and cut, so ties down to the cell id are covered.
        #[test]
        fn packed_keys_order_like_entry_comparator(
            a in frontier_key(),
            b in frontier_key(),
            same in 0usize..3,
        ) {
            let b = if same == 0 { (a.0, a.1, b.2) } else { b };
            for criterion in [GrowthCriterion::WeightFirst, GrowthCriterion::CutFirst] {
                let entry = |(w, dc, cell): (f64, i32, u32)| {
                    let d = -(dc as f64);
                    let (primary, secondary) = match criterion {
                        GrowthCriterion::WeightFirst => (w, d),
                        GrowthCriterion::CutFirst => (d, w),
                    };
                    Entry { primary, secondary, cell }
                };
                let packed = |(w, dc, cell): (f64, i32, u32)| pack_key(criterion, w, dc, cell);
                prop_assert_eq!(packed(a).cmp(&packed(b)), entry(a).cmp(&entry(b)));
                prop_assert_eq!(key_cell(packed(a)), a.2);
            }
        }
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
