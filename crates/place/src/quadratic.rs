//! Quadratic wirelength model: sparse Laplacian + conjugate gradients.
//!
//! Nets are modeled as springs: small nets as cliques (every pin pair gets
//! weight `2/d`), large nets as stars (every pin tied to the first pin as
//! hub) to keep the matrix sparse while still pulling high-fanout nets —
//! decoder rails, select lines — toward a common point. Minimizing the quadratic wirelength
//! `xᵀLx − 2bᵀx` per axis reduces to the SPD system `(L + αI)x = αt + b`
//! where `αI` anchors cells to targets `t` (SimPL-style pseudo-pins) and
//! `b` carries fixed-cell terms. The system is solved with a hand-written
//! Jacobi-preconditioned conjugate-gradient.
//!
//! # Kernel shape
//!
//! The CG inner loops are fused — the x/r update, the Jacobi `z` solve and
//! the `rz`/`rr` reductions run in one pass over the vectors, and the CSR
//! apply folds the anchor term into its row loop — but every fusion keeps
//! the exact per-element operation order and the sequential index-order
//! reductions of the original four-pass kernels, so results are
//! **bit-identical** to the unfused form (pinned by the `reference` tests
//! in this module). Steady-state solves allocate nothing: callers own the
//! output buffers ([`Laplacian::solve_anchored_into`],
//! [`ShardSolver::solve_shard_into`]) and the CG work vectors live in
//! reusable scratch ([`SolveScratch`], [`ShardSolver`]), as does the
//! triplet pass of the CSR build ([`LaplacianScratch`]).
//!
//! The shard solve runs **both axes in one CG sweep**. The x and y systems
//! share the shard matrix, so the work vectors hold one `[x, y]` pair per
//! cell: each SpMV walks a row's `columns`/`values` once, gathers both
//! axes of a neighbor in one load and folds `p·Ap` into the row loop, and
//! one pass does the x/r/z update and the `rz`/`rr` reductions of both
//! axes. Each axis keeps its own `alpha`, `beta`, residual and
//! convergence target and stops on its own (converged, `p·Ap <= 0`, or the
//! iteration cap); a stopped axis is never written again. Per axis the
//! coordinates are bit-identical to a single-axis CG run once per axis,
//! which the `two_axis` tests check against that kernel kept verbatim.
//! [`ShardSolver::solve_shard_into`] returns each axis' iteration count.

use gtl_netlist::Netlist;

/// Threshold above which a net is modeled as a star instead of a clique.
const CLIQUE_LIMIT: usize = 8;

/// Computes `out[i] = diagonal[i]·v[i] − Σₖ values[k]·v[columns[k]]` over
/// each CSR row `i` — the one sparse kernel behind both the global and the
/// shard solves. Row entries are walked through slice iterators (no
/// per-element bounds checks) with a single sequential accumulator, in the
/// same k-order as the original indexed loop: bit-identical, just
/// branch-free enough for the compiler to keep the row pipeline full.
fn csr_apply_into(
    offsets: &[usize],
    columns: &[u32],
    values: &[f64],
    diagonal: &[f64],
    v: &[f64],
    out: &mut [f64],
) {
    for i in 0..diagonal.len() {
        let (start, end) = (offsets[i], offsets[i + 1]);
        let mut acc = diagonal[i] * v[i];
        for (&c, &w) in columns[start..end].iter().zip(&values[start..end]) {
            acc -= w * v[c as usize];
        }
        out[i] = acc;
    }
}

/// [`csr_apply_into`] with the SimPL anchor term folded into the row
/// loop: `out[i] = (L·v)[i] + anchor[i]·v[i]`, replacing the original
/// two-pass apply (multiply, then a second sweep adding the anchor term)
/// with one pass. The anchor product is still added to the finished row
/// accumulator — same operations, same order, bit-identical.
fn csr_apply_anchored_into(
    offsets: &[usize],
    columns: &[u32],
    values: &[f64],
    diagonal: &[f64],
    anchor: &[f64],
    v: &[f64],
    out: &mut [f64],
) {
    for i in 0..diagonal.len() {
        let (start, end) = (offsets[i], offsets[i + 1]);
        let mut acc = diagonal[i] * v[i];
        for (&c, &w) in columns[start..end].iter().zip(&values[start..end]) {
            acc -= w * v[c as usize];
        }
        out[i] = acc + anchor[i] * v[i];
    }
}

/// Reusable scratch for [`Laplacian::build_with`]: the triplet list and
/// row-count/cursor arrays of the CSR construction, hoisted out of the
/// build so repeated builds (one per placement request on the serving
/// path) stop reallocating the `O(pins)` intermediate.
#[derive(Debug, Clone, Default)]
pub struct LaplacianScratch {
    triplets: Vec<(u32, u32, f64)>,
    counts: Vec<usize>,
    cursor: Vec<usize>,
}

impl LaplacianScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable CG work vectors for [`Laplacian::solve_anchored_into`]: the
/// residual, preconditioned residual, search direction, matrix-vector
/// product and Jacobi preconditioner. One `SolveScratch` per worker makes
/// steady-state anchored solves allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    precond: Vec<f64>,
}

impl SolveScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A symmetric sparse matrix in CSR form, representing the connectivity
/// Laplacian of a netlist.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_place::quadratic::Laplacian;
///
/// let mut b = NetlistBuilder::new();
/// let x = b.add_cell("x", 1.0);
/// let y = b.add_cell("y", 1.0);
/// b.add_anonymous_net([x, y]);
/// let nl = b.finish();
/// let lap = Laplacian::build(&nl);
/// assert_eq!(lap.dim(), 2);
/// // Lx for x = [1, -1] equals [2w, -2w]: both entries nonzero.
/// let out = lap.multiply(&[1.0, -1.0]);
/// assert!(out[0] > 0.0 && out[1] < 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Laplacian {
    offsets: Vec<usize>,
    columns: Vec<u32>,
    values: Vec<f64>,
    diagonal: Vec<f64>,
}

impl Laplacian {
    /// Builds the Laplacian of `netlist` with the clique/path hybrid model.
    pub fn build(netlist: &Netlist) -> Self {
        Self::build_with(netlist, &mut LaplacianScratch::new())
    }

    /// [`Laplacian::build`] with caller-owned scratch: the triplet pass
    /// and the count/cursor arrays reuse `scratch`'s buffers, so repeated
    /// builds allocate only the CSR arrays of the result itself. The
    /// result is identical to [`Laplacian::build`] — scratch contents on
    /// entry are ignored.
    pub fn build_with(netlist: &Netlist, scratch: &mut LaplacianScratch) -> Self {
        let n = netlist.num_cells();
        // Accumulate off-diagonal entries per row in a triplet pass.
        let triplets = &mut scratch.triplets;
        triplets.clear();
        for net in netlist.nets() {
            let cells = netlist.net_cells(net);
            let d = cells.len();
            if d < 2 {
                continue;
            }
            if d <= CLIQUE_LIMIT {
                let w = 2.0 / d as f64;
                for i in 0..d {
                    for j in (i + 1)..d {
                        triplets.push((cells[i].raw(), cells[j].raw(), w));
                    }
                }
            } else {
                // Star model: hub = first pin, preserving O(d) sparsity.
                // Total edge weight (d−1)·w matches the clique's d−1.
                let w = 1.0;
                let hub = cells[0].raw();
                for &pin in &cells[1..] {
                    triplets.push((hub, pin.raw(), w));
                }
            }
        }

        // Count row populations (both directions), prefix-sum, fill.
        let counts = &mut scratch.counts;
        counts.clear();
        counts.resize(n, 0);
        for &(i, j, _) in triplets.iter() {
            counts[i as usize] += 1;
            counts[j as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for c in counts.iter() {
            offsets.push(offsets.last().unwrap() + c);
        }
        let nnz = *offsets.last().unwrap();
        let mut columns = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        let cursor = &mut scratch.cursor;
        cursor.clear();
        cursor.extend_from_slice(&offsets[..n]);
        let mut diagonal = vec![0.0f64; n];
        for &(i, j, w) in triplets.iter() {
            columns[cursor[i as usize]] = j;
            values[cursor[i as usize]] = w;
            cursor[i as usize] += 1;
            columns[cursor[j as usize]] = i;
            values[cursor[j as usize]] = w;
            cursor[j as usize] += 1;
            diagonal[i as usize] += w;
            diagonal[j as usize] += w;
        }
        Self { offsets, columns, values, diagonal }
    }

    /// Matrix dimension (number of cells).
    pub fn dim(&self) -> usize {
        self.diagonal.len()
    }

    /// Off-diagonal entries of row `i` as `(column, weight)` pairs.
    ///
    /// A pair of cells connected by several nets appears once per net —
    /// consumers must sum duplicates (as [`Laplacian::multiply`] does).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim()`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        (self.offsets[i]..self.offsets[i + 1])
            .map(move |k| (self.columns[k] as usize, self.values[k]))
    }

    /// Total incident edge weight of cell `i` (the Laplacian diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim()`.
    pub fn degree(&self, i: usize) -> f64 {
        self.diagonal[i]
    }

    /// Computes `y = Lx` (diagonal minus off-diagonals).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "dimension mismatch");
        let mut y = vec![0.0; x.len()];
        self.multiply_into(x, &mut y);
        y
    }

    fn multiply_into(&self, x: &[f64], y: &mut [f64]) {
        csr_apply_into(&self.offsets, &self.columns, &self.values, &self.diagonal, x, y);
    }

    /// Solves `(L + diag(anchor)) x = rhs` by Jacobi-preconditioned CG.
    ///
    /// `anchor` is the per-cell pseudo-pin weight (`αᵢ ≥ 0`); at least one
    /// entry must be positive or the system is singular. `x0` provides the
    /// starting guess. Returns the solution and the iterations used.
    /// Allocating convenience wrapper around
    /// [`Laplacian::solve_anchored_into`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if every anchor weight is zero.
    pub fn solve_anchored(
        &self,
        anchor: &[f64],
        rhs: &[f64],
        x0: &[f64],
        tolerance: f64,
        max_iterations: usize,
    ) -> (Vec<f64>, usize) {
        let mut x = x0.to_vec();
        let iters = self.solve_anchored_into(
            anchor,
            rhs,
            &mut x,
            tolerance,
            max_iterations,
            &mut SolveScratch::new(),
        );
        (x, iters)
    }

    /// [`Laplacian::solve_anchored`] without the output and work-vector
    /// allocations: `x` holds the starting guess on entry and the solution
    /// on return, and all CG vectors live in `scratch` (contents on entry
    /// are ignored). Returns the iterations used. Bit-identical to
    /// [`Laplacian::solve_anchored`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if every anchor weight is zero.
    pub fn solve_anchored_into(
        &self,
        anchor: &[f64],
        rhs: &[f64],
        x: &mut [f64],
        tolerance: f64,
        max_iterations: usize,
        scratch: &mut SolveScratch,
    ) -> usize {
        let n = self.dim();
        assert_eq!(anchor.len(), n, "anchor dimension mismatch");
        assert_eq!(rhs.len(), n, "rhs dimension mismatch");
        assert_eq!(x.len(), n, "x0 dimension mismatch");
        assert!(anchor.iter().any(|&a| a > 0.0), "all-zero anchors make the system singular");

        let SolveScratch { r, z, p, ap, precond } = scratch;
        precond.clear();
        precond.extend((0..n).map(|i| 1.0 / (self.diagonal[i] + anchor[i]).max(1e-12)));
        r.resize(n, 0.0);
        z.resize(n, 0.0);
        p.resize(n, 0.0);
        ap.resize(n, 0.0);

        // Initial residual, fused with the Jacobi solve and the rz/rr
        // reductions (independent accumulators, index order — the same
        // operation sequence as the separate passes).
        csr_apply_anchored_into(
            &self.offsets,
            &self.columns,
            &self.values,
            &self.diagonal,
            anchor,
            x,
            ap,
        );
        let mut rz = 0.0f64;
        let mut rr = 0.0f64;
        for i in 0..n {
            let ri = rhs[i] - ap[i];
            r[i] = ri;
            let zi = precond[i] * ri;
            z[i] = zi;
            p[i] = zi;
            rz += ri * zi;
            rr += ri * ri;
        }
        let target = tolerance * tolerance * rhs.iter().map(|v| v * v).sum::<f64>().max(1e-30);

        for iter in 0..max_iterations {
            if rr <= target {
                return iter;
            }
            csr_apply_anchored_into(
                &self.offsets,
                &self.columns,
                &self.values,
                &self.diagonal,
                anchor,
                p,
                ap,
            );
            let pap: f64 = p.iter().zip(ap.iter()).map(|(a, b)| a * b).sum();
            if pap <= 0.0 {
                break; // numerical breakdown; current x is best effort
            }
            let alpha = rz / pap;
            // Fused x/r update + Jacobi z + rz/rr reductions: one pass
            // instead of four, same per-element ops in the same order.
            let mut rz_new = 0.0f64;
            let mut rr_new = 0.0f64;
            for i in 0..n {
                x[i] += alpha * p[i];
                let ri = r[i] - alpha * ap[i];
                r[i] = ri;
                let zi = precond[i] * ri;
                z[i] = zi;
                rz_new += ri * zi;
                rr_new += ri * ri;
            }
            let beta = rz_new / rz.max(1e-30);
            rz = rz_new;
            rr = rr_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        max_iterations
    }
}

/// Computes `out[i] = (A·v)[i]` for both axes of `v` at once, with
/// `A = diagonal − offdiag` in CSR form, and returns the per-axis dot
/// products `Σᵢ v[i]·out[i]` (CG's `p·Ap`). Each row's `columns`/`values`
/// are walked once and update both accumulators, and `v[i]` is one
/// `[x, y]` gather. Per axis the operations and their order match
/// [`csr_apply_into`] followed by an index-order dot product.
fn csr_apply2_dot(
    offsets: &[usize],
    columns: &[u32],
    values: &[f64],
    diagonal: &[f64],
    v: &[[f64; 2]],
    out: &mut [[f64; 2]],
) -> [f64; 2] {
    let mut dot = [0.0f64; 2];
    for i in 0..diagonal.len() {
        let (start, end) = (offsets[i], offsets[i + 1]);
        let vi = v[i];
        let mut acc = [diagonal[i] * vi[0], diagonal[i] * vi[1]];
        for (&c, &w) in columns[start..end].iter().zip(&values[start..end]) {
            let vc = v[c as usize];
            acc[0] -= w * vc[0];
            acc[1] -= w * vc[1];
        }
        out[i] = acc;
        dot[0] += vi[0] * acc[0];
        dot[1] += vi[1] * acc[1];
    }
    dot
}

/// Reusable scratch for solving *shard-restricted* anchored systems.
///
/// The sharded placer decomposes the die into a grid of regions and solves
/// each region's cells as an independent quadratic system, treating
/// neighbors outside the shard as fixed (Dirichlet coupling: their current
/// positions move to the right-hand side, their edge weights stay on the
/// diagonal, so the local matrix remains SPD). One `ShardSolver` is built
/// per *worker* of [`gtl_core::exec::parallel_map_with`] and reused across
/// every shard that worker claims — the local CSR and all CG vectors are
/// allocated once and recycled, per the execution layer's scratch
/// contract.
///
/// The x and y systems share the shard matrix, so one Jacobi-CG carries
/// both: every sweep over the local CSR advances both axes, while each
/// axis keeps its own step sizes, residual and convergence target and
/// stops on its own (see [`ShardSolver::solve_shard_into`]). The
/// extraction also records the shard's *boundary* cells — those with a
/// neighbor outside the shard — for the placer's stitch.
///
/// The result of [`ShardSolver::solve_shard`] is a pure function of its
/// arguments; nothing about buffer reuse or worker identity leaks into the
/// output.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_place::quadratic::{Laplacian, ShardSolver};
///
/// // Three cells in a chain; solve the shard {0, 1} with cell 2 fixed.
/// let mut b = NetlistBuilder::new();
/// let cells: Vec<_> = (0..3).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
/// b.add_anonymous_net([cells[0], cells[1]]);
/// b.add_anonymous_net([cells[1], cells[2]]);
/// let nl = b.finish();
/// let lap = Laplacian::build(&nl);
///
/// let mut solver = ShardSolver::new(nl.num_cells());
/// let xs = [0.0, 0.0, 10.0];
/// let ys = [0.0, 0.0, 0.0];
/// let (sx, _sy) = solver.solve_shard(
///     &lap, &[0, 1], 1.0, &[0.0, 0.0], &[0.0, 0.0], &xs, &ys, 1e-10, 100,
/// );
/// // Cell 1 is pulled toward the fixed cell 2 at x = 10; cell 0 follows.
/// assert!(sx[1] > sx[0] && sx[1] > 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ShardSolver {
    /// Epoch stamp per global cell; `mark[g] == epoch` ⇔ `g` is in the
    /// current shard.
    mark: Vec<u32>,
    /// Local index of each global cell (valid only where `mark` matches).
    local_of: Vec<u32>,
    epoch: u32,
    // Shard-local CSR (columns hold *local* indices).
    offsets: Vec<usize>,
    columns: Vec<u32>,
    values: Vec<f64>,
    diagonal: Vec<f64>,
    /// Shard cells with a neighbor outside the shard, in `cells` order.
    boundary: Vec<u32>,
    // CG vectors, one `[x, y]` pair per local cell. `r` holds the
    // right-hand side (anchor plus fixed-neighbor terms) until the first
    // residual replaces it.
    r: Vec<[f64; 2]>,
    p: Vec<[f64; 2]>,
    ap: Vec<[f64; 2]>,
}

impl ShardSolver {
    /// Creates a solver for shards of a `num_cells`-cell design.
    pub fn new(num_cells: usize) -> Self {
        Self {
            mark: vec![0; num_cells],
            local_of: vec![0; num_cells],
            epoch: 0,
            offsets: Vec::new(),
            columns: Vec::new(),
            values: Vec::new(),
            diagonal: Vec::new(),
            boundary: Vec::new(),
            r: Vec::new(),
            p: Vec::new(),
            ap: Vec::new(),
        }
    }

    /// Solves both axes of the anchored system restricted to `cells`.
    ///
    /// Allocating convenience wrapper around
    /// [`ShardSolver::solve_shard_into`]; returns the new coordinates of
    /// the shard cells, in `cells` order.
    ///
    /// # Panics
    ///
    /// Panics if `anchor_weight <= 0`, the target slices do not match
    /// `cells`, or any cell index is out of range for the Laplacian.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_shard(
        &mut self,
        lap: &Laplacian,
        cells: &[u32],
        anchor_weight: f64,
        targets_x: &[f64],
        targets_y: &[f64],
        xs: &[f64],
        ys: &[f64],
        tolerance: f64,
        max_iterations: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut out_x = Vec::new();
        let mut out_y = Vec::new();
        self.solve_shard_into(
            lap,
            cells,
            anchor_weight,
            targets_x,
            targets_y,
            xs,
            ys,
            tolerance,
            max_iterations,
            &mut out_x,
            &mut out_y,
        );
        (out_x, out_y)
    }

    /// [`ShardSolver::solve_shard`] writing into caller-provided buffers.
    ///
    /// `targets_x`/`targets_y` are the anchor targets of the shard cells
    /// (indexed like `cells`); `xs`/`ys` are the full current coordinate
    /// vectors, used both as the CG starting guess and as the fixed
    /// positions of out-of-shard neighbors. `out_x`/`out_y` are resized to
    /// the shard and double as the CG solution vectors — loaded with the
    /// starting guess, iterated in place, left holding the new shard
    /// coordinates in `cells` order. With buffers reused across calls the
    /// steady state allocates nothing.
    ///
    /// Both axes run in one Jacobi-CG over the shard matrix. Each axis
    /// stops on its own — when its residual meets its target, on a
    /// non-positive curvature `p·Ap`, or at `max_iterations` — and a
    /// stopped axis is never updated again, so every coordinate is
    /// bit-identical to a separate single-axis CG per axis. Returns the
    /// CG iterations each axis ran, `[x, y]`.
    ///
    /// # Panics
    ///
    /// Panics if `anchor_weight <= 0`, the target slices do not match
    /// `cells`, or any cell index is out of range for the Laplacian.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_shard_into(
        &mut self,
        lap: &Laplacian,
        cells: &[u32],
        anchor_weight: f64,
        targets_x: &[f64],
        targets_y: &[f64],
        xs: &[f64],
        ys: &[f64],
        tolerance: f64,
        max_iterations: usize,
        out_x: &mut Vec<f64>,
        out_y: &mut Vec<f64>,
    ) -> [usize; 2] {
        let m = cells.len();
        assert!(anchor_weight > 0.0, "anchor weight must be positive");
        assert_eq!(targets_x.len(), m, "targets_x must match cells");
        assert_eq!(targets_y.len(), m, "targets_y must match cells");

        // Stamp shard membership (O(shard), no clearing of the full map).
        self.epoch += 1;
        for (k, &c) in cells.iter().enumerate() {
            self.mark[c as usize] = self.epoch;
            self.local_of[c as usize] = k as u32;
        }

        // Extract the shard-local CSR; edges leaving the shard keep their
        // weight on the diagonal, push `w · neighbor_position` onto the
        // per-axis right-hand side and make the cell a boundary cell.
        self.offsets.clear();
        self.offsets.push(0);
        self.columns.clear();
        self.values.clear();
        self.diagonal.clear();
        self.boundary.clear();
        self.r.clear();
        for (k, &c) in cells.iter().enumerate() {
            let g = c as usize;
            let (mut ex, mut ey) = (0.0, 0.0);
            let mut crosses = false;
            for (j, w) in lap.row(g) {
                if self.mark[j] == self.epoch {
                    self.columns.push(self.local_of[j]);
                    self.values.push(w);
                } else {
                    ex += w * xs[j];
                    ey += w * ys[j];
                    crosses = true;
                }
            }
            if crosses {
                self.boundary.push(c);
            }
            self.offsets.push(self.columns.len());
            self.diagonal.push(lap.degree(g) + anchor_weight);
            self.r.push([anchor_weight * targets_x[k] + ex, anchor_weight * targets_y[k] + ey]);
        }

        // The starting guess: in the outputs, which the CG iterates in
        // place, and interleaved in `p` for the first product (the CG
        // overwrites `p` after it).
        out_x.clear();
        out_x.extend(cells.iter().map(|&c| xs[c as usize]));
        out_y.clear();
        out_y.extend(cells.iter().map(|&c| ys[c as usize]));
        self.p.clear();
        self.p.extend(cells.iter().map(|&c| [xs[c as usize], ys[c as usize]]));

        self.cg([out_x, out_y], tolerance, max_iterations)
    }

    /// The cells of the most recently solved shard that have a neighbor
    /// outside it, in the order of that solve's `cells` (so ascending
    /// when `cells` is). Empty before the first solve.
    pub(crate) fn boundary(&self) -> &[u32] {
        &self.boundary
    }

    /// Two-axis Jacobi-preconditioned CG on the current local system,
    /// iterating `x` in place from starting guess to solution. On entry
    /// `self.r` holds the right-hand side and `self.p` the starting guess.
    /// Returns the iterations each axis ran.
    ///
    /// Per axis this is exactly the single-axis shard CG: the same
    /// per-element operations in the same order, the Jacobi solve in its
    /// division form (`r / diag.max(1e-12)`, which is not bit-equal to
    /// multiplying by a precomputed reciprocal), and every reduction a
    /// sequential index-order sum. The fused reductions start from `0.0`
    /// where `Iterator::sum` starts from `−0.0`; the two differ only when
    /// every term is `−0.0`. A sum of squares never is (`(−0.0)² = +0.0`,
    /// and an empty sum reaches the target's `max(1e-30)` either way), and
    /// an all-`−0.0` `p·Ap` stops the axis as `pap <= 0` under either
    /// start.
    fn cg(&mut self, x: [&mut [f64]; 2], tolerance: f64, max_iterations: usize) -> [usize; 2] {
        let m = self.diagonal.len();
        let Self { offsets, columns, values, diagonal, r, p, ap, .. } = self;
        ap.resize(m, [0.0; 2]);

        csr_apply2_dot(offsets, columns, values, diagonal, p, ap);
        let mut rz = [0.0f64; 2];
        let mut rr = [0.0f64; 2];
        let mut bb = [0.0f64; 2];
        for i in 0..m {
            let d = diagonal[i].max(1e-12);
            for a in 0..2 {
                let bi = r[i][a];
                let ri = bi - ap[i][a];
                r[i][a] = ri;
                let zi = ri / d;
                p[i][a] = zi;
                rz[a] += ri * zi;
                rr[a] += ri * ri;
                bb[a] += bi * bi;
            }
        }
        let target = bb.map(|b| tolerance * tolerance * b.max(1e-30));

        // `live[a]` until axis `a` stops; `iterations[a]` is then fixed.
        let mut live = [true; 2];
        let mut iterations = [max_iterations; 2];
        for iter in 0..max_iterations {
            for a in 0..2 {
                if live[a] && rr[a] <= target[a] {
                    live[a] = false;
                    iterations[a] = iter;
                }
            }
            if live == [false; 2] {
                break;
            }
            let pap = csr_apply2_dot(offsets, columns, values, diagonal, p, ap);
            for a in 0..2 {
                if live[a] && pap[a] <= 0.0 {
                    live[a] = false; // numerical breakdown; current x is best effort
                    iterations[a] = iter;
                }
            }
            if live == [false; 2] {
                break;
            }
            let alpha = [rz[0] / pap[0], rz[1] / pap[1]];
            let mut rz_new = [0.0f64; 2];
            let mut rr_new = [0.0f64; 2];
            for i in 0..m {
                let d = diagonal[i].max(1e-12);
                for a in 0..2 {
                    if live[a] {
                        x[a][i] += alpha[a] * p[i][a];
                        let ri = r[i][a] - alpha[a] * ap[i][a];
                        r[i][a] = ri;
                        let zi = ri / d;
                        rz_new[a] += ri * zi;
                        rr_new[a] += ri * ri;
                    }
                }
            }
            let mut beta = [0.0f64; 2];
            for a in 0..2 {
                if live[a] {
                    beta[a] = rz_new[a] / rz[a].max(1e-30);
                    rz[a] = rz_new[a];
                    rr[a] = rr_new[a];
                }
            }
            // The Jacobi `z = r / diag` is recomputed here (the same
            // division, so the same bits) rather than stored.
            for i in 0..m {
                let d = diagonal[i].max(1e-12);
                for a in 0..2 {
                    if live[a] {
                        p[i][a] = r[i][a] / d + beta[a] * p[i][a];
                    }
                }
            }
        }
        iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::NetlistBuilder;

    fn chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let first = b.add_anonymous_cells(n);
        for i in 0..n - 1 {
            b.add_anonymous_net([gtl_netlist::CellId::new(i), gtl_netlist::CellId::new(i + 1)]);
        }
        let _ = first;
        b.finish()
    }

    /// The pre-fusion kernels, kept verbatim as bit-exactness oracles for
    /// the fused loops above.
    mod reference {
        use super::super::{csr_apply_into, Laplacian};

        pub fn multiply_into(lap: &Laplacian, x: &[f64], y: &mut [f64]) {
            for i in 0..lap.dim() {
                let mut acc = lap.diagonal[i] * x[i];
                for k in lap.offsets[i]..lap.offsets[i + 1] {
                    acc -= lap.values[k] * x[lap.columns[k] as usize];
                }
                y[i] = acc;
            }
        }

        /// The original four-pass `solve_anchored` (two-pass apply,
        /// top-of-loop rr reduction, separate x/r, z, rz, p loops).
        pub fn solve_anchored(
            lap: &Laplacian,
            anchor: &[f64],
            rhs: &[f64],
            x0: &[f64],
            tolerance: f64,
            max_iterations: usize,
        ) -> (Vec<f64>, usize) {
            let n = lap.dim();
            let apply = |x: &[f64], out: &mut Vec<f64>| {
                multiply_into(lap, x, out);
                for i in 0..n {
                    out[i] += anchor[i] * x[i];
                }
            };
            let precond: Vec<f64> =
                (0..n).map(|i| 1.0 / (lap.diagonal[i] + anchor[i]).max(1e-12)).collect();

            let mut x = x0.to_vec();
            let mut ax = vec![0.0; n];
            apply(&x, &mut ax);
            let mut r: Vec<f64> = (0..n).map(|i| rhs[i] - ax[i]).collect();
            let mut z: Vec<f64> = (0..n).map(|i| precond[i] * r[i]).collect();
            let mut p = z.clone();
            let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let target = tolerance * tolerance * rhs.iter().map(|v| v * v).sum::<f64>().max(1e-30);

            let mut ap = vec![0.0; n];
            for iter in 0..max_iterations {
                let rr: f64 = r.iter().map(|v| v * v).sum();
                if rr <= target {
                    return (x, iter);
                }
                apply(&p, &mut ap);
                let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
                if pap <= 0.0 {
                    break;
                }
                let alpha = rz / pap;
                for i in 0..n {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                for i in 0..n {
                    z[i] = precond[i] * r[i];
                }
                let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
                let beta = rz_new / rz.max(1e-30);
                rz = rz_new;
                for i in 0..n {
                    p[i] = z[i] + beta * p[i];
                }
            }
            (x, max_iterations)
        }

        /// The original shard CG (division-form Jacobi), run on a
        /// whole-design shard: local CSR = global CSR, diagonal shifted
        /// by the anchor weight, no Dirichlet terms.
        pub fn full_shard_cg(
            lap: &Laplacian,
            anchor_weight: f64,
            rhs: &[f64],
            x0: &[f64],
            tolerance: f64,
            max_iterations: usize,
        ) -> Vec<f64> {
            let m = lap.dim();
            let diagonal: Vec<f64> = lap.diagonal.iter().map(|d| d + anchor_weight).collect();
            let apply = |v: &[f64], out: &mut [f64]| {
                for i in 0..m {
                    let mut acc = diagonal[i] * v[i];
                    for k in lap.offsets[i]..lap.offsets[i + 1] {
                        acc -= lap.values[k] * v[lap.columns[k] as usize];
                    }
                    out[i] = acc;
                }
            };
            let mut x = x0.to_vec();
            let mut ap = vec![0.0; m];
            apply(&x, &mut ap);
            let mut r: Vec<f64> = (0..m).map(|i| rhs[i] - ap[i]).collect();
            let mut z: Vec<f64> = (0..m).map(|i| r[i] / diagonal[i].max(1e-12)).collect();
            let mut p = z.clone();
            let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let target = tolerance * tolerance * rhs.iter().map(|v| v * v).sum::<f64>().max(1e-30);

            for _ in 0..max_iterations {
                let rr: f64 = r.iter().map(|v| v * v).sum();
                if rr <= target {
                    break;
                }
                apply(&p, &mut ap);
                let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
                if pap <= 0.0 {
                    break;
                }
                let alpha = rz / pap;
                for i in 0..m {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                for i in 0..m {
                    z[i] = r[i] / diagonal[i].max(1e-12);
                }
                let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
                let beta = rz_new / rz.max(1e-30);
                rz = rz_new;
                for i in 0..m {
                    p[i] = z[i] + beta * p[i];
                }
            }
            x
        }

        /// The shard solver before the two-axis kernel: the extraction,
        /// then the single-axis `cg` once per axis, kept verbatim as the
        /// bit-exactness oracle of [`super::super::ShardSolver`]. The one
        /// change is that `cg` returns the iterations it ran, so the
        /// per-axis counts can be compared too.
        pub struct ShardSolver {
            mark: Vec<u32>,
            local_of: Vec<u32>,
            epoch: u32,
            offsets: Vec<usize>,
            columns: Vec<u32>,
            values: Vec<f64>,
            diagonal: Vec<f64>,
            ext_x: Vec<f64>,
            ext_y: Vec<f64>,
            rhs: Vec<f64>,
            r: Vec<f64>,
            z: Vec<f64>,
            p: Vec<f64>,
            ap: Vec<f64>,
        }

        impl ShardSolver {
            pub fn new(num_cells: usize) -> Self {
                Self {
                    mark: vec![0; num_cells],
                    local_of: vec![0; num_cells],
                    epoch: 0,
                    offsets: Vec::new(),
                    columns: Vec::new(),
                    values: Vec::new(),
                    diagonal: Vec::new(),
                    ext_x: Vec::new(),
                    ext_y: Vec::new(),
                    rhs: Vec::new(),
                    r: Vec::new(),
                    z: Vec::new(),
                    p: Vec::new(),
                    ap: Vec::new(),
                }
            }

            #[allow(clippy::too_many_arguments)]
            pub fn solve_shard_into(
                &mut self,
                lap: &Laplacian,
                cells: &[u32],
                anchor_weight: f64,
                targets_x: &[f64],
                targets_y: &[f64],
                xs: &[f64],
                ys: &[f64],
                tolerance: f64,
                max_iterations: usize,
                out_x: &mut Vec<f64>,
                out_y: &mut Vec<f64>,
            ) -> [usize; 2] {
                let m = cells.len();
                self.epoch += 1;
                for (k, &c) in cells.iter().enumerate() {
                    self.mark[c as usize] = self.epoch;
                    self.local_of[c as usize] = k as u32;
                }
                self.offsets.clear();
                self.offsets.push(0);
                self.columns.clear();
                self.values.clear();
                self.diagonal.clear();
                self.ext_x.clear();
                self.ext_y.clear();
                for &c in cells {
                    let g = c as usize;
                    let (mut ex, mut ey) = (0.0, 0.0);
                    for (j, w) in lap.row(g) {
                        if self.mark[j] == self.epoch {
                            self.columns.push(self.local_of[j]);
                            self.values.push(w);
                        } else {
                            ex += w * xs[j];
                            ey += w * ys[j];
                        }
                    }
                    self.offsets.push(self.columns.len());
                    self.diagonal.push(lap.degree(g) + anchor_weight);
                    self.ext_x.push(ex);
                    self.ext_y.push(ey);
                }

                self.rhs.resize(m, 0.0);
                out_x.resize(m, 0.0);
                for k in 0..m {
                    self.rhs[k] = anchor_weight * targets_x[k] + self.ext_x[k];
                    out_x[k] = xs[cells[k] as usize];
                }
                let iters_x = self.cg(out_x, tolerance, max_iterations);
                out_y.resize(m, 0.0);
                for k in 0..m {
                    self.rhs[k] = anchor_weight * targets_y[k] + self.ext_y[k];
                    out_y[k] = ys[cells[k] as usize];
                }
                let iters_y = self.cg(out_y, tolerance, max_iterations);
                [iters_x, iters_y]
            }

            fn cg(&mut self, x: &mut [f64], tolerance: f64, max_iterations: usize) -> usize {
                let m = self.diagonal.len();
                self.r.resize(m, 0.0);
                self.z.resize(m, 0.0);
                self.p.resize(m, 0.0);
                self.ap.resize(m, 0.0);

                csr_apply_into(
                    &self.offsets,
                    &self.columns,
                    &self.values,
                    &self.diagonal,
                    x,
                    &mut self.ap,
                );
                let mut rz = 0.0f64;
                let mut rr = 0.0f64;
                for i in 0..m {
                    let ri = self.rhs[i] - self.ap[i];
                    self.r[i] = ri;
                    let zi = ri / self.diagonal[i].max(1e-12);
                    self.z[i] = zi;
                    self.p[i] = zi;
                    rz += ri * zi;
                    rr += ri * ri;
                }
                let target =
                    tolerance * tolerance * self.rhs.iter().map(|v| v * v).sum::<f64>().max(1e-30);

                for iter in 0..max_iterations {
                    if rr <= target {
                        return iter;
                    }
                    csr_apply_into(
                        &self.offsets,
                        &self.columns,
                        &self.values,
                        &self.diagonal,
                        &self.p,
                        &mut self.ap,
                    );
                    let pap: f64 = self.p.iter().zip(&self.ap).map(|(a, b)| a * b).sum();
                    if pap <= 0.0 {
                        return iter; // numerical breakdown; current x is best effort
                    }
                    let alpha = rz / pap;
                    let mut rz_new = 0.0f64;
                    let mut rr_new = 0.0f64;
                    for (i, xi) in x.iter_mut().enumerate().take(m) {
                        *xi += alpha * self.p[i];
                        let ri = self.r[i] - alpha * self.ap[i];
                        self.r[i] = ri;
                        let zi = ri / self.diagonal[i].max(1e-12);
                        self.z[i] = zi;
                        rz_new += ri * zi;
                        rr_new += ri * ri;
                    }
                    let beta = rz_new / rz.max(1e-30);
                    rz = rz_new;
                    rr = rr_new;
                    for i in 0..m {
                        self.p[i] = self.z[i] + beta * self.p[i];
                    }
                }
                max_iterations
            }
        }
    }

    /// Deterministic pseudo-random vector for kernel identity tests.
    fn noise(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let h = gtl_core::derive_stream(seed, i as u64);
                (h % 10_000) as f64 / 1_000.0 - 5.0
            })
            .collect()
    }

    /// A denser test graph: a chain plus a few large star nets.
    fn mixed(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(n);
        for i in 0..n - 1 {
            b.add_anonymous_net([gtl_netlist::CellId::new(i), gtl_netlist::CellId::new(i + 1)]);
        }
        for start in [0, n / 3, n / 2] {
            b.add_anonymous_net((start..(start + 15).min(n)).map(gtl_netlist::CellId::new));
        }
        b.finish()
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let nl = chain(10);
        let lap = Laplacian::build(&nl);
        let ones = vec![1.0; 10];
        let out = lap.multiply(&ones);
        for v in out {
            assert!(v.abs() < 1e-12, "L·1 must be 0, got {v}");
        }
    }

    #[test]
    fn clique_weights_match_model() {
        // 3-pin net: clique weight 2/3 per pair; diagonal = 2 pairs × 2/3.
        let mut b = NetlistBuilder::new();
        let c = b.add_anonymous_cells(3);
        b.add_anonymous_net([c, gtl_netlist::CellId::new(1), gtl_netlist::CellId::new(2)]);
        let nl = b.finish();
        let lap = Laplacian::build(&nl);
        let e0 = lap.multiply(&[1.0, 0.0, 0.0]);
        assert!((e0[0] - 4.0 / 3.0).abs() < 1e-12);
        assert!((e0[1] + 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn large_net_uses_star_model() {
        // A 20-pin net must produce O(d) nonzeros, not O(d²).
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(20);
        b.add_anonymous_net((0..20).map(gtl_netlist::CellId::new));
        let nl = b.finish();
        let lap = Laplacian::build(&nl);
        let e0 = lap.multiply(&[1.0; 20]);
        assert!(e0.iter().all(|v| v.abs() < 1e-12));
        // A leaf pin touches only itself and the hub.
        let mut unit = vec![0.0; 20];
        unit[10] = 1.0;
        let row = lap.multiply(&unit);
        let nonzero = row.iter().filter(|v| v.abs() > 1e-12).count();
        assert_eq!(nonzero, 2, "star leaf row should touch exactly 2 cells");
        // The hub touches everyone.
        let mut hub = vec![0.0; 20];
        hub[0] = 1.0;
        let hub_row = lap.multiply(&hub);
        assert_eq!(hub_row.iter().filter(|v| v.abs() > 1e-12).count(), 20);
    }

    #[test]
    fn build_with_matches_build_and_reuses_scratch() {
        let mut scratch = LaplacianScratch::new();
        for nl in [chain(40), mixed(60), chain(7)] {
            let fresh = Laplacian::build(&nl);
            let reused = Laplacian::build_with(&nl, &mut scratch);
            assert_eq!(fresh.offsets, reused.offsets);
            assert_eq!(fresh.columns, reused.columns);
            assert_eq!(fresh.values, reused.values);
            assert_eq!(fresh.diagonal, reused.diagonal);
        }
    }

    #[test]
    fn csr_apply_matches_reference_bitwise() {
        for nl in [chain(50), mixed(80)] {
            let lap = Laplacian::build(&nl);
            let x = noise(lap.dim(), 21);
            let mut expect = vec![0.0; lap.dim()];
            reference::multiply_into(&lap, &x, &mut expect);
            assert_eq!(lap.multiply(&x), expect);
        }
    }

    #[test]
    fn fused_solve_matches_reference_bitwise() {
        // The fused CG must reproduce the original four-pass kernel to the
        // last bit: converged, iteration-capped, and loose-tolerance runs.
        for nl in [chain(60), mixed(90)] {
            let lap = Laplacian::build(&nl);
            let n = lap.dim();
            let anchor: Vec<f64> = noise(n, 1).iter().map(|v| v.abs() + 0.01).collect();
            let rhs = noise(n, 2);
            let x0 = noise(n, 3);
            for (tol, iters) in [(1e-10, 500), (1e-10, 7), (0.5, 500)] {
                let (ex, eit) = reference::solve_anchored(&lap, &anchor, &rhs, &x0, tol, iters);
                let (fx, fit) = lap.solve_anchored(&anchor, &rhs, &x0, tol, iters);
                assert_eq!(ex, fx, "tol={tol} iters={iters}");
                assert_eq!(eit, fit, "tol={tol} iters={iters}");
            }
        }
    }

    #[test]
    fn fused_shard_cg_matches_reference_bitwise() {
        // On a whole-design shard the Dirichlet terms vanish, so the shard
        // CG reduces to the reference division-form kernel exactly.
        for nl in [chain(40), mixed(70)] {
            let lap = Laplacian::build(&nl);
            let n = lap.dim();
            let cells: Vec<u32> = (0..n as u32).collect();
            let targets = noise(n, 4);
            let xs = noise(n, 5);
            let ys = noise(n, 6);
            let aw = 0.75;
            for (tol, iters) in [(1e-10, 400), (1e-10, 5)] {
                let rhs_x: Vec<f64> = targets.iter().map(|t| aw * t).collect();
                let expect_x = reference::full_shard_cg(&lap, aw, &rhs_x, &xs, tol, iters);
                let expect_y = reference::full_shard_cg(&lap, aw, &rhs_x, &ys, tol, iters);
                let mut solver = ShardSolver::new(n);
                let (sx, sy) =
                    solver.solve_shard(&lap, &cells, aw, &targets, &targets, &xs, &ys, tol, iters);
                assert_eq!(sx, expect_x, "x tol={tol} iters={iters}");
                assert_eq!(sy, expect_y, "y tol={tol} iters={iters}");
            }
        }
    }

    #[test]
    fn solve_anchored_into_reuse_is_invisible() {
        // One scratch across differently-sized solves must not change any
        // result, and the in-place entry point must match the wrapper.
        let mut scratch = SolveScratch::new();
        for (n, seed) in [(50usize, 10u64), (20, 11), (80, 12)] {
            let lap = Laplacian::build(&chain(n));
            let anchor = vec![0.3; n];
            let rhs = noise(n, seed);
            let x0 = noise(n, seed + 100);
            let (expect, eit) = lap.solve_anchored(&anchor, &rhs, &x0, 1e-10, 300);
            let mut x = x0.clone();
            let iters = lap.solve_anchored_into(&anchor, &rhs, &mut x, 1e-10, 300, &mut scratch);
            assert_eq!(expect, x, "n={n}");
            assert_eq!(eit, iters, "n={n}");
        }
    }

    #[test]
    fn solve_shard_into_reuses_buffers_without_changing_results() {
        let n = 24;
        let lap = Laplacian::build(&mixed(n));
        let xs = noise(n, 30);
        let ys = noise(n, 31);
        let mut solver = ShardSolver::new(n);
        let a: Vec<u32> = (0..8).collect();
        let b: Vec<u32> = (8..n as u32).collect();
        let ta = vec![1.0; a.len()];
        let tb = vec![-2.0; b.len()];
        let expect = solver.solve_shard(&lap, &a, 1.0, &ta, &ta, &xs, &ys, 1e-10, 200);
        // Dirty, wrongly-sized buffers left over from another shard…
        let (mut ox, mut oy) = (vec![9.9; b.len()], Vec::new());
        solver.solve_shard_into(&lap, &b, 1.0, &tb, &tb, &xs, &ys, 1e-10, 200, &mut ox, &mut oy);
        // …must be fully overwritten by the next solve.
        solver.solve_shard_into(&lap, &a, 1.0, &ta, &ta, &xs, &ys, 1e-10, 200, &mut ox, &mut oy);
        assert_eq!(expect, (ox, oy));
    }

    /// A random `n`-cell netlist drawn from `seed`: `2n` nets of 2–4 pins
    /// plus star nets of 9–20 pins (above [`CLIQUE_LIMIT`]).
    fn random_netlist(n: usize, seed: u64) -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(n);
        let mut k = 0u64;
        let mut draw = |bound: usize| {
            k += 1;
            (gtl_core::derive_stream(seed, k) % bound as u64) as usize
        };
        for net in 0..2 * n + n / 16 + 1 {
            let pins = if net < 2 * n { 2 + draw(3) } else { CLIQUE_LIMIT + 1 + draw(12) };
            let pins: Vec<_> = (0..pins).map(|_| gtl_netlist::CellId::new(draw(n))).collect();
            b.add_anonymous_net(pins);
        }
        b.finish()
    }

    /// Inputs of a two-axis oracle case on an `n`-cell random design. The
    /// axes get different starting points and targets, so they converge
    /// at different iterations; `ty_converged` are y targets for which
    /// the y system starts converged (`rhs = A·y0`, up to rounding).
    struct TwoAxisFixture {
        lap: Laplacian,
        xs: Vec<f64>,
        ys: Vec<f64>,
        tx: Vec<f64>,
        ty: Vec<f64>,
        ty_converged: Vec<f64>,
    }

    fn two_axis_fixture(n: usize, seed: u64, anchor_weight: f64) -> TwoAxisFixture {
        let lap = Laplacian::build(&random_netlist(n, seed));
        let xs = noise(n, seed ^ 1);
        let ys: Vec<f64> = noise(n, seed ^ 2).iter().map(|v| 3.0 * v + 40.0).collect();
        let tx = noise(n, seed ^ 3);
        let ty = noise(n, seed ^ 4).iter().map(|v| 0.5 * v - 20.0).collect();
        // aw·t + Σ_out w·y_j = (L + aw)·y0 on the shard rows ⇔ t = y + (L·y)/aw.
        let ly = lap.multiply(&ys);
        let ty_converged = ys.iter().zip(&ly).map(|(y, l)| y + l / anchor_weight).collect();
        TwoAxisFixture { lap, xs, ys, tx, ty, ty_converged }
    }

    /// Solves `cells` with `solver` and with the single-axis oracle and
    /// asserts equal bits on both axes, equal per-axis iteration counts,
    /// and the boundary cells of the extraction. Returns the counts.
    fn assert_two_axis_matches(
        solver: &mut ShardSolver,
        f: &TwoAxisFixture,
        cells: &[u32],
        anchor_weight: f64,
        converged_y: bool,
        (tolerance, max_iterations): (f64, usize),
    ) -> [usize; 2] {
        let gather = |v: &[f64]| cells.iter().map(|&c| v[c as usize]).collect::<Vec<_>>();
        let tx = gather(&f.tx);
        let ty = gather(if converged_y { &f.ty_converged } else { &f.ty });
        let (mut ex, mut ey) = (Vec::new(), Vec::new());
        let expect = reference::ShardSolver::new(f.lap.dim()).solve_shard_into(
            &f.lap,
            cells,
            anchor_weight,
            &tx,
            &ty,
            &f.xs,
            &f.ys,
            tolerance,
            max_iterations,
            &mut ex,
            &mut ey,
        );
        // Dirty, wrongly sized output buffers must be fully overwritten.
        let (mut gx, mut gy) = (vec![f64::NAN; 3], Vec::new());
        let got = solver.solve_shard_into(
            &f.lap,
            cells,
            anchor_weight,
            &tx,
            &ty,
            &f.xs,
            &f.ys,
            tolerance,
            max_iterations,
            &mut gx,
            &mut gy,
        );
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let case = format!("m={} tol={tolerance} iters={max_iterations}", cells.len());
        assert_eq!(bits(&gx), bits(&ex), "x axis, {case}");
        assert_eq!(bits(&gy), bits(&ey), "y axis, {case}");
        assert_eq!(got, expect, "per-axis iterations, {case}");
        let crosses =
            |c: u32| f.lap.row(c as usize).any(|(j, _)| cells.binary_search(&(j as u32)).is_err());
        let boundary: Vec<u32> = cells.iter().copied().filter(|&c| crosses(c)).collect();
        assert_eq!(solver.boundary(), boundary.as_slice(), "boundary, {case}");
        got
    }

    /// Tolerance and iteration-cap corners of the oracle comparison.
    const TWO_AXIS_LIMITS: [(f64, usize); 5] =
        [(1e-10, 300), (1e-10, 5), (1e-10, 1), (0.3, 300), (1e-6, 300)];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random netlists with star nets; random cell subsets as shards,
        /// so out-of-shard Dirichlet terms are present, plus an empty
        /// shard; one solver reused across all of them; y either free or
        /// converged on entry; every limit in [`TWO_AXIS_LIMITS`].
        #[test]
        fn two_axis_matches_single_axis_oracle(
            seed in 0u64..1 << 48,
            n in 1usize..120,
            parts in 1usize..5,
            aw in 0usize..3,
        ) {
            let anchor_weight = [0.02, 0.75, 30.0][aw];
            let f = two_axis_fixture(n, seed, anchor_weight);
            let mut shards = vec![Vec::new(); parts + 1];
            for c in 0..n as u32 {
                shards[(gtl_core::derive_stream(seed ^ 5, u64::from(c)) % parts as u64) as usize]
                    .push(c);
            }
            let mut solver = ShardSolver::new(n);
            for cells in &shards {
                for converged_y in [false, true] {
                    for limits in TWO_AXIS_LIMITS {
                        assert_two_axis_matches(
                            &mut solver,
                            &f,
                            cells,
                            anchor_weight,
                            converged_y,
                            limits,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_axis_axes_stop_independently() {
        // The cases the oracle comparison relies on do occur: the axes
        // converge at different iterations, and an axis that starts
        // converged runs none while the other keeps going.
        let f = two_axis_fixture(100, 7, 0.75);
        let mut solver = ShardSolver::new(100);
        let half: Vec<u32> = (0..100).filter(|c| c % 3 != 0).collect();
        let free = assert_two_axis_matches(&mut solver, &f, &half, 0.75, false, (1e-10, 300));
        assert!(free[0] != free[1] && free.iter().all(|&i| i > 0 && i < 300), "{free:?}");
        let conv = assert_two_axis_matches(&mut solver, &f, &half, 0.75, true, (1e-10, 300));
        assert_eq!(conv, [free[0], 0]);
        assert!(!solver.boundary().is_empty());
    }

    #[test]
    fn anchored_solve_reaches_targets_when_disconnected() {
        // No nets: solution = targets exactly.
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(4);
        let nl = b.finish();
        let lap = Laplacian::build(&nl);
        let anchor = vec![1.0; 4];
        let targets = [3.0, -1.0, 0.5, 7.0];
        let rhs: Vec<f64> = targets.iter().map(|t| t * 1.0).collect();
        let (x, _) = lap.solve_anchored(&anchor, &rhs, &[0.0; 4], 1e-10, 100);
        for (xi, ti) in x.iter().zip(&targets) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn anchored_solve_balances_spring_and_anchor() {
        // Two cells joined by a net (w=1), anchored at 0 and 10 with α=1:
        // minimize (x0-x1)² + ... → symmetric pull towards each other.
        let mut b = NetlistBuilder::new();
        let c0 = b.add_cell("a", 1.0);
        let c1 = b.add_cell("b", 1.0);
        b.add_anonymous_net([c0, c1]);
        let nl = b.finish();
        let lap = Laplacian::build(&nl);
        let anchor = vec![1.0, 1.0];
        let rhs = vec![0.0, 10.0];
        let (x, _) = lap.solve_anchored(&anchor, &rhs, &[0.0, 0.0], 1e-12, 200);
        // Symmetry: x0 + x1 = 10; attraction: x1 - x0 < 10.
        assert!((x[0] + x[1] - 10.0).abs() < 1e-8, "{x:?}");
        assert!(x[1] - x[0] < 10.0 - 1e-6, "{x:?}");
        assert!(x[1] - x[0] > 0.0, "{x:?}");
    }

    #[test]
    fn cg_converges_on_chain() {
        let nl = chain(100);
        let lap = Laplacian::build(&nl);
        let anchor = vec![0.1; 100];
        let targets: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let rhs: Vec<f64> = targets.iter().map(|t| 0.1 * t).collect();
        let (x, iters) = lap.solve_anchored(&anchor, &rhs, &vec![0.0; 100], 1e-8, 1000);
        assert!(iters < 1000, "CG did not converge");
        // Residual check.
        let mut ax = lap.multiply(&x);
        for i in 0..100 {
            ax[i] += 0.1 * x[i];
        }
        let res: f64 = ax.iter().zip(&rhs).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!(res < 1e-10, "residual {res}");
    }

    #[test]
    fn shard_solver_matches_global_on_full_shard() {
        // One shard holding every cell has no external neighbors: the
        // shard solve must agree with the global anchored solve.
        let n = 30;
        let nl = chain(n);
        let lap = Laplacian::build(&nl);
        let targets: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37) % 5.0).collect();
        let anchor = vec![0.5; n];
        let rhs: Vec<f64> = targets.iter().map(|t| 0.5 * t).collect();
        let x0 = vec![0.0; n];
        let (global, _) = lap.solve_anchored(&anchor, &rhs, &x0, 1e-12, 500);
        let mut solver = ShardSolver::new(n);
        let cells: Vec<u32> = (0..n as u32).collect();
        let (sx, sy) =
            solver.solve_shard(&lap, &cells, 0.5, &targets, &targets, &x0, &x0, 1e-12, 500);
        for i in 0..n {
            assert!((sx[i] - global[i]).abs() < 1e-8, "x[{i}]: {} vs {}", sx[i], global[i]);
            assert!((sy[i] - global[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn shard_solver_reuse_is_invisible() {
        // Solving shard B between two solves of shard A must not change
        // A's result — scratch reuse stays outside the output.
        let n = 20;
        let nl = chain(n);
        let lap = Laplacian::build(&nl);
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys = vec![1.0; n];
        let ta = vec![2.5; 6];
        let tb = vec![7.5; 14];
        let a: Vec<u32> = (0..6).collect();
        let b: Vec<u32> = (6..20).collect();
        let mut solver = ShardSolver::new(n);
        let first = solver.solve_shard(&lap, &a, 1.0, &ta, &ta, &xs, &ys, 1e-10, 200);
        let _ = solver.solve_shard(&lap, &b, 1.0, &tb, &tb, &xs, &ys, 1e-10, 200);
        let again = solver.solve_shard(&lap, &a, 1.0, &ta, &ta, &xs, &ys, 1e-10, 200);
        assert_eq!(first, again);
    }

    #[test]
    fn row_and_degree_expose_csr() {
        let nl = chain(4);
        let lap = Laplacian::build(&nl);
        // Interior cell 1 neighbors 0 and 2, each with weight 1 (2/d, d=2).
        let row: Vec<(usize, f64)> = lap.row(1).collect();
        assert_eq!(row.len(), 2);
        let sum: f64 = row.iter().map(|(_, w)| w).sum();
        assert!((sum - lap.degree(1)).abs() < 1e-12);
        assert!((lap.degree(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn zero_anchor_panics() {
        let nl = chain(4);
        let lap = Laplacian::build(&nl);
        let _ = lap.solve_anchored(&[0.0; 4], &[0.0; 4], &[0.0; 4], 1e-8, 10);
    }
}
