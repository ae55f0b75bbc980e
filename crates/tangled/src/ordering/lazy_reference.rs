//! The lazy-heap Phase I grower the indexed frontier heap replaced, kept
//! verbatim as a test oracle: it pushes a fresh heap entry on every key
//! change and skips stale entries at pop time. The property tests in
//! `ordering.rs` check that [`super::OrderingGrower`] produces the
//! identical [`LinearOrdering`] for every seed and configuration.

use std::collections::BinaryHeap;

use gtl_netlist::{CellId, Netlist};

use super::{Entry, GrowthConfig, GrowthCriterion, LinearOrdering};

#[derive(Debug)]
pub(super) struct LazyGrower<'a> {
    netlist: &'a Netlist,
    config: GrowthConfig,
    in_group: Vec<bool>,
    net_inside: Vec<u32>,
    weight: Vec<f64>,
    touched_nets: Vec<u32>,
    absorb: Vec<u32>,
    cell_dirty: Vec<bool>,
    dirty_cells: Vec<u32>,
    dirty_nets: Vec<u32>,
    heap: BinaryHeap<Entry>,
}

impl<'a> LazyGrower<'a> {
    pub(super) fn new(netlist: &'a Netlist, config: GrowthConfig) -> Self {
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
            heap: BinaryHeap::new(),
        }
    }

    pub(super) fn grow_into(&mut self, seed: CellId, out: &mut LinearOrdering) {
        assert!(seed.index() < self.netlist.num_cells(), "seed {seed} out of bounds");
        self.reset();
        out.clear();

        let mut cut = 0i64;
        let mut pins = 0u64;
        let mut absorbed = 0i64;

        self.add_cell(seed, &mut cut, &mut pins, &mut absorbed, out);

        while out.cells.len() < self.config.max_len {
            let Some(next) = self.pop_best() else { break };
            self.add_cell(next, &mut cut, &mut pins, &mut absorbed, out);
        }
    }

    fn pop_best(&mut self) -> Option<CellId> {
        while let Some(e) = self.heap.pop() {
            let c = e.cell as usize;
            if self.in_group[c] {
                continue;
            }
            let (primary, secondary) = self.keys(CellId::from(e.cell));
            if e.primary == primary && e.secondary == secondary {
                return Some(CellId::from(e.cell));
            }
        }
        None
    }

    fn keys(&self, cell: CellId) -> (f64, f64) {
        let w = self.weight[cell.index()];
        let d = -(self.delta_cut(cell) as f64);
        match self.config.criterion {
            GrowthCriterion::WeightFirst => (w, d),
            GrowthCriterion::CutFirst => (d, w),
        }
    }

    fn delta_cut(&self, cell: CellId) -> i32 {
        let untouched =
            self.netlist.cell_degree(cell) as i32 - self.touched_nets[cell.index()] as i32;
        untouched - self.absorb[cell.index()] as i32
    }

    fn mark_dirty(&mut self, cell: CellId) {
        if !self.cell_dirty[cell.index()] {
            self.cell_dirty[cell.index()] = true;
            self.dirty_cells.push(cell.raw());
        }
    }

    fn push_entry(&mut self, cell: CellId) {
        let (primary, secondary) = self.keys(cell);
        self.heap.push(Entry { primary, secondary, cell: cell.raw() });
    }

    fn add_cell(
        &mut self,
        v: CellId,
        cut: &mut i64,
        pins: &mut u64,
        absorbed: &mut i64,
        ordering: &mut LinearOrdering,
    ) {
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
            let is_cut = new_in < deg;
            *cut += is_cut as i64 - was_cut as i64;
            if new_in == deg {
                *absorbed += 1;
            }

            let outside_new = deg - new_in;
            if old_in == 0 {
                let w = 1.0 / (outside_new as f64 + 1.0);
                for j in 0..deg {
                    let u = self.netlist.net_cells(net)[j];
                    if u == v || self.in_group[u.index()] {
                        continue;
                    }
                    self.mark_dirty(u);
                    self.touched_nets[u.index()] += 1;
                    self.weight[u.index()] += w;
                    self.push_entry(u);
                }
            } else {
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
                        self.push_entry(u);
                    }
                }
            }

            if outside_new == 1 {
                for j in 0..deg {
                    let u = self.netlist.net_cells(net)[j];
                    if !self.in_group[u.index()] {
                        self.mark_dirty(u);
                        self.absorb[u.index()] += 1;
                        self.push_entry(u);
                        break;
                    }
                }
            }
        }

        ordering.cells.push(v);
        ordering.cut_profile.push(u32::try_from(*cut).expect("cut fits u32"));
        ordering.pin_profile.push(*pins);
        ordering.absorbed_profile.push(u32::try_from(*absorbed).expect("absorbed fits u32"));
    }

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
        self.heap.clear();
    }
}
