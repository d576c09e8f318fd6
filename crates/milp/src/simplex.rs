//! Two-phase primal simplex for the LP relaxation, on a flat tableau with
//! sparse row updates.
//!
//! The solver converts a [`Model`] to standard form (`Ax = b`, `x >= 0`)
//! by shifting, mirroring or splitting variables according to their bounds,
//! then runs the classic tableau method: phase 1 minimizes the sum of
//! artificial variables to find a basic feasible solution, phase 2 optimizes
//! the true objective. Pricing takes the most negative reduced cost
//! (Dantzig) for a stall budget, then switches to Bland's rule, so the
//! method terminates on degenerate instances.
//!
//! # The kernel
//!
//! The Γ-robust encoding's LPs run to a few hundred rows and columns with
//! only a few percent of the entries nonzero, so the tableau is kept flat
//! and every pass skips what is known to be zero:
//!
//! * the coefficients are one row-major `Vec<f64>` with a fixed row stride
//!   and the rhs in a vector of its own; the standard form is written
//!   straight into it, and branch & bound reuses one workspace across all
//!   nodes, so no iteration allocates;
//! * each row has a mask of the column blocks that may hold a nonzero;
//!   pricing, pivot-row gathering and clearing between solves walk only
//!   those blocks, and pricing reads only rows whose basic column has a
//!   cost;
//! * a pivot gathers the entering column and the normalized pivot row's
//!   nonzeros once, then updates only those entries of the rows with a
//!   nonzero in the entering column.
//!
//! # Same pivots as a dense sweep
//!
//! Every entry that is computed gets the same operations in the same order
//! as in a dense full-row tableau. The skipped updates, in elimination and
//! pricing alike, are `x -= f * 0.0`, which leave `x` unchanged except
//! maybe the sign of a zero, and no pricing, ratio-test or purge comparison
//! can see that sign. The rhs is always updated, so basic values keep their
//! exact bits. The pivot sequence, the `milp.pivots` count, the branch &
//! bound tree and every returned value are therefore those of the dense
//! kernel (pinned by `pivot_path_is_pinned` in `tests/proptest_ilp.rs`).

use crate::{Model, Objective, Sense, SolveError, TOL};

/// Status of an LP relaxation solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LpStatus {
    /// Proven optimal.
    Optimal,
    /// Empty feasible region.
    Infeasible,
    /// Objective unbounded in the optimization direction.
    Unbounded,
}

/// Result of solving the LP relaxation of a model.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Solve outcome.
    pub status: LpStatus,
    /// Values of the *original* model variables (empty unless optimal).
    pub values: Vec<f64>,
    /// Objective value in the model's own direction (0 unless optimal).
    pub objective: f64,
}

impl LpResult {
    fn without_solution(status: LpStatus) -> Self {
        Self {
            status,
            values: Vec::new(),
            objective: 0.0,
        }
    }
}

/// How an original variable is represented in standard form.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lb + x'`, `x' >= 0`; optional explicit upper-bound row.
    Shifted { col: usize, lb: f64 },
    /// `x = ub - x'`, `x' >= 0` (used when only an upper bound is finite).
    Mirrored { col: usize, ub: f64 },
    /// `x = x+ - x-` (free variable).
    Split { pos: usize, neg: usize },
    /// Fixed variable (`lb == ub`): substituted out entirely.
    Fixed { value: f64 },
}

impl VarMap {
    /// The constant part of the substitution (`lb`, `ub` or the fixed
    /// value), which a term `c * x` moves to the right-hand side.
    fn offset(self) -> Option<f64> {
        match self {
            VarMap::Shifted { lb, .. } => Some(lb),
            VarMap::Mirrored { ub, .. } => Some(ub),
            VarMap::Split { .. } => None,
            VarMap::Fixed { value } => Some(value),
        }
    }

    /// Calls `add(column, coefficient)` for the column part of a term
    /// `c * x` (`add` accumulates with `+=`; `x += -c` is `x -= c`).
    fn for_each_column(self, c: f64, mut add: impl FnMut(usize, f64)) {
        match self {
            VarMap::Shifted { col, .. } => add(col, c),
            VarMap::Mirrored { col, .. } => add(col, -c),
            VarMap::Split { pos, neg } => {
                add(pos, c);
                add(neg, -c);
            }
            VarMap::Fixed { .. } => {}
        }
    }
}

/// Solves the LP relaxation of `model` (integrality dropped, bounds kept).
///
/// # Errors
///
/// Returns [`SolveError::IterationLimit`] if the simplex cycles past its
/// safety limit (should not happen with Bland's rule, but guards against
/// numerical pathologies).
pub fn solve_lp(model: &Model) -> Result<LpResult, SolveError> {
    LpWorkspace::default().solve(model)
}

/// The buffers of an LP solve, kept between solves: branch & bound holds
/// one across all nodes of a search, so a node's LP allocates only its
/// result. [`solve_lp`] is a solve on a fresh workspace.
#[derive(Debug, Default)]
pub(crate) struct LpWorkspace {
    /// Standard-form mapping of each model variable.
    maps: Vec<VarMap>,
    /// `(sense, rhs)` of each standard-form row before normalization:
    /// the constraints, then one upper-bound row per shifted variable
    /// with a finite upper bound.
    rows: Vec<(Sense, f64)>,
    tableau: Tableau,
    /// Value of each structural column at the optimum.
    col_values: Vec<f64>,
}

impl LpWorkspace {
    /// [`solve_lp`] on this workspace's buffers.
    pub(crate) fn solve(&mut self, model: &Model) -> Result<LpResult, SolveError> {
        let (dir, obj) = match &model.objective {
            Some((d, e)) => (*d, e),
            None => return Err(SolveError::MissingObjective),
        };

        // --- 1. Map variables to non-negative standard-form columns. ----------
        self.maps.clear();
        let mut nstruct = 0usize;
        for v in &model.vars {
            if v.lb > v.ub + TOL {
                return Ok(LpResult::without_solution(LpStatus::Infeasible));
            }
            let map = if (v.ub - v.lb).abs() <= TOL && v.lb.is_finite() {
                VarMap::Fixed { value: v.lb }
            } else if v.lb.is_finite() {
                nstruct += 1;
                VarMap::Shifted {
                    col: nstruct - 1,
                    lb: v.lb,
                }
            } else if v.ub.is_finite() {
                nstruct += 1;
                VarMap::Mirrored {
                    col: nstruct - 1,
                    ub: v.ub,
                }
            } else {
                nstruct += 2;
                VarMap::Split {
                    pos: nstruct - 2,
                    neg: nstruct - 1,
                }
            };
            self.maps.push(map);
        }

        // --- 2. Row senses and right-hand sides. ------------------------------
        self.rows.clear();
        for con in &model.constraints {
            let mut rhs = con.rhs;
            for (v, c) in con.expr.iter() {
                if let Some(offset) = self.maps[v.0].offset() {
                    rhs -= c * offset;
                }
            }
            self.rows.push((con.sense, rhs));
        }
        for (v, map) in model.vars.iter().zip(&self.maps) {
            if let VarMap::Shifted { lb, .. } = *map {
                if v.ub.is_finite() {
                    self.rows.push((Sense::Le, v.ub - lb));
                }
            }
        }

        // --- 3. Write the standard form into the tableau. ---------------------
        let tableau = &mut self.tableau;
        tableau.reset(nstruct, &self.rows);
        for (i, con) in model.constraints.iter().enumerate() {
            for (v, c) in con.expr.iter() {
                self.maps[v.0].for_each_column(c, |j, c| tableau.add(i, j, c));
            }
        }
        let mut bound_row = model.constraints.len();
        for (v, map) in model.vars.iter().zip(&self.maps) {
            if let VarMap::Shifted { col, .. } = *map {
                if v.ub.is_finite() {
                    tableau.add(bound_row, col, 1.0);
                    bound_row += 1;
                }
            }
        }
        tableau.augment(&self.rows);
        // Objective in standard-form columns, normalized to minimization.
        let mut obj_const = obj.constant();
        let mut obj_rhs = 0.0;
        let obj_coeffs = &mut tableau.costs[..nstruct];
        for (v, c) in obj.iter() {
            let map = self.maps[v.0];
            map.for_each_column(c, |j, c| obj_coeffs[j] += c);
            if let Some(offset) = map.offset() {
                obj_rhs -= c * offset;
            }
        }
        obj_const -= obj_rhs; // obj_rhs accumulated -(c * offset)
        let sign = match dir {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        for c in obj_coeffs {
            *c *= sign;
        }

        // --- 4. Run the tableau method. ---------------------------------------
        let outcome = tableau.optimize()?;
        hi_trace::counter(hi_trace::wellknown::MILP_PIVOTS, tableau.pivots);

        let cost = match outcome {
            Outcome::Optimal(cost) => cost,
            Outcome::Infeasible => return Ok(LpResult::without_solution(LpStatus::Infeasible)),
            Outcome::Unbounded => return Ok(LpResult::without_solution(LpStatus::Unbounded)),
        };
        tableau.structural_values(&mut self.col_values);
        let col = &self.col_values;
        let values = self
            .maps
            .iter()
            .map(|map| match *map {
                VarMap::Shifted { col: j, lb } => lb + col[j],
                VarMap::Mirrored { col: j, ub } => ub - col[j],
                VarMap::Split { pos, neg } => col[pos] - col[neg],
                VarMap::Fixed { value } => value,
            })
            .collect();
        Ok(LpResult {
            status: LpStatus::Optimal,
            values,
            objective: sign * cost + obj_const,
        })
    }
}

/// Outcome of a simplex phase, or of both.
enum Outcome {
    /// Optimal, with its cost under the phase's cost vector.
    Optimal(f64),
    Infeasible,
    Unbounded,
}

/// Simplex tableau with explicit basis bookkeeping, stored flat.
///
/// Each row carries a block mask: bit `b` set when columns
/// `b << shift..(b + 1) << shift` may hold a nonzero. Masks only grow
/// (an entry that cancels to zero keeps its bit), so they cover every
/// nonzero, and pricing, pivot-row gathering and clearing walk the set
/// blocks instead of whole rows. A pivot ORs the pivot row's blocks into
/// each row it updates, so the update loop itself does no bookkeeping.
#[derive(Debug, Default)]
struct Tableau {
    /// Row-major coefficients, `stride` per row. Entries outside the set
    /// blocks of their row, and rows past `nrows`, are zero.
    t: Vec<f64>,
    /// Row length: at least `ncols`, kept from solve to solve so the
    /// buffer is reused without a full clear.
    stride: usize,
    /// Columns per mask block, as a power of two.
    shift: u32,
    nrows: usize,
    /// Block mask of each row.
    mask: Vec<u64>,
    /// Right-hand side of each row.
    rhs: Vec<f64>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Number of structural columns (standard-form variables).
    nstruct: usize,
    /// Structural plus slack/surplus columns. The artificials follow, in
    /// `nreal..ncols`.
    nreal: usize,
    /// Total columns excluding rhs (struct + slack/surplus + artificial).
    ncols: usize,
    /// Columns that may enter the basis or hold a nonzero: every column
    /// in phase 1, `nreal` once the artificials are purged.
    live: usize,
    /// Phase-2 cost of every column (artificials get 0; they are banned).
    costs: Vec<f64>,
    /// Phase-1 cost of every column: 1 on the artificials, else 0.
    phase1: Vec<f64>,
    /// Reduced cost of each live column, recomputed every iteration.
    reduced: Vec<f64>,
    /// Rows whose basic column has a nonzero cost in the running phase,
    /// ascending: the only rows pricing reads.
    costed: Vec<usize>,
    /// `(row, entry)` nonzeros of the entering column, in row order.
    pcol: Vec<(usize, f64)>,
    /// `(column, value)` nonzeros of the normalized pivot row, without
    /// the entering column.
    prow: Vec<(usize, f64)>,
    /// Pivot operations performed (both phases + artificial purge);
    /// flushed to the `milp.pivots` metric once per LP solve.
    pivots: u64,
}

impl Tableau {
    /// Sizes the tableau for `rows` over `nstruct` structural columns and
    /// zeroes every entry and cost.
    fn reset(&mut self, nstruct: usize, rows: &[(Sense, f64)]) {
        // Count augmentation columns.
        let mut nslack = 0;
        let mut nart = 0;
        for &(sense, rhs) in rows {
            // Rows with negative rhs are flipped so b >= 0.
            let (sense, rhs) = normalized(sense, rhs);
            match sense {
                Sense::Le => nslack += 1,
                Sense::Ge => {
                    nslack += 1;
                    if rhs > TOL {
                        nart += 1;
                    }
                }
                Sense::Eq => nart += 1,
            }
        }
        // Clear the previous solve's blocks: the whole buffer is then
        // zero, whatever shape comes next.
        for i in 0..self.nrows {
            let row = &mut self.t[i * self.stride..(i + 1) * self.stride];
            for cols in blocks(self.mask[i], self.shift, self.stride) {
                row[cols].fill(0.0);
            }
        }
        self.nstruct = nstruct;
        self.nreal = nstruct + nslack;
        self.ncols = self.nreal + nart;
        self.live = self.ncols;
        self.nrows = rows.len();
        self.stride = self.stride.max(self.ncols).max(1);
        self.shift = 0;
        while self.stride > 64 << self.shift {
            self.shift += 1;
        }
        let cells = self.nrows * self.stride;
        if self.t.len() < cells {
            self.t.resize(cells, 0.0);
        }
        self.mask.clear();
        self.mask.resize(self.nrows, 0);
        self.rhs.clear();
        self.rhs.resize(self.nrows, 0.0);
        self.basis.clear();
        self.basis.resize(self.nrows, usize::MAX);
        self.costs.clear();
        self.costs.resize(self.ncols, 0.0);
        self.phase1.clear();
        self.phase1.resize(self.nreal, 0.0);
        self.phase1.resize(self.ncols, 1.0);
        self.pivots = 0;
    }

    /// `t[i][j] += c`.
    fn add(&mut self, i: usize, j: usize, c: f64) {
        self.t[i * self.stride + j] += c;
        self.mask[i] |= 1 << (j >> self.shift);
    }

    /// Completes rows whose structural coefficients are in place: flips
    /// rows with negative rhs, then adds slack, surplus and artificial
    /// columns and the starting basis.
    fn augment(&mut self, rows: &[(Sense, f64)]) {
        let mut next_slack = self.nstruct;
        let mut next_art = self.nreal;
        for (i, &(sense, rhs)) in rows.iter().enumerate() {
            let flip = rhs < -TOL;
            let s = if flip { -1.0 } else { 1.0 };
            if flip {
                self.scale_row(i, s);
            }
            self.rhs[i] = s * rhs;
            match flipped_sense(sense, flip) {
                Sense::Le => {
                    self.add(i, next_slack, 1.0);
                    self.basis[i] = next_slack;
                    next_slack += 1;
                }
                Sense::Ge => {
                    self.add(i, next_slack, -1.0);
                    next_slack += 1;
                    if self.rhs[i] > TOL {
                        self.add(i, next_art, 1.0);
                        self.basis[i] = next_art;
                        next_art += 1;
                    } else {
                        // rhs == 0: the surplus column itself can be basic
                        // (value 0) by negating the row.
                        self.scale_row(i, -1.0);
                        self.rhs[i] = -self.rhs[i];
                        self.basis[i] = next_slack - 1;
                    }
                }
                Sense::Eq => {
                    self.add(i, next_art, 1.0);
                    self.basis[i] = next_art;
                    next_art += 1;
                }
            }
        }
    }

    /// Multiplies the coefficients of row `i` (not its rhs) by `s`.
    fn scale_row(&mut self, i: usize, s: f64) {
        let row = &mut self.t[i * self.stride..(i + 1) * self.stride];
        for cols in blocks(self.mask[i], self.shift, self.ncols) {
            for v in &mut row[cols] {
                *v *= s;
            }
        }
    }

    /// Fills `values` with every structural column's value in the current
    /// basic solution.
    fn structural_values(&self, values: &mut Vec<f64>) {
        values.clear();
        values.resize(self.nstruct, 0.0);
        for (&b, &x) in self.basis.iter().zip(&self.rhs) {
            if b < self.nstruct {
                values[b] = x;
            }
        }
    }

    fn optimize(&mut self) -> Result<Outcome, SolveError> {
        // ---- Phase 1 ----
        if self.nreal < self.ncols {
            match self.run(true)? {
                Outcome::Optimal(cost) => {
                    if cost > 1e-6 {
                        return Ok(Outcome::Infeasible);
                    }
                }
                Outcome::Infeasible | Outcome::Unbounded => {
                    // Phase-1 objective is bounded below by zero; cannot happen.
                    return Err(SolveError::IterationLimit);
                }
            }
            self.purge_artificials();
        }

        // ---- Phase 2 ----
        self.run(false)
    }

    /// Pivot artificial variables out of the basis (or drop redundant rows)
    /// and ban them from ever entering again.
    fn purge_artificials(&mut self) {
        let stride = self.stride;
        let mut row = 0;
        while row < self.nrows {
            if self.basis[row] >= self.nreal {
                // Find a non-artificial column with a nonzero coefficient.
                let real = &self.t[row * stride..row * stride + self.nreal];
                match real.iter().position(|v| v.abs() > 1e-9) {
                    Some(j) => {
                        self.gather_column(j);
                        self.pivot(row, j);
                        row += 1;
                    }
                    None => self.remove_row(row), // every real coefficient is zero
                }
            } else {
                row += 1;
            }
        }
        // Zero artificial columns so they can never be selected again.
        let (nreal, ncols) = (self.nreal, self.ncols);
        for r in self.t[..self.nrows * stride].chunks_exact_mut(stride) {
            r[nreal..ncols].fill(0.0);
        }
        self.live = nreal;
    }

    /// Drops a redundant row; the rows below move up one slot, block by
    /// block, keeping their order.
    fn remove_row(&mut self, row: usize) {
        let (stride, shift) = (self.stride, self.shift);
        for cols in blocks(self.mask[row], shift, stride) {
            self.t[row * stride..][cols].fill(0.0);
        }
        for k in row + 1..self.nrows {
            for cols in blocks(self.mask[k], shift, stride) {
                let from = k * stride + cols.start;
                self.t.copy_within(from..from + cols.len(), from - stride);
                self.t[from..from + cols.len()].fill(0.0);
            }
        }
        self.mask.remove(row);
        self.rhs.remove(row);
        self.basis.remove(row);
        self.nrows -= 1;
    }

    /// Runs simplex iterations for the phase-1 or the phase-2 costs.
    ///
    /// In phase 1 artificial columns may enter; in phase 2 they have been
    /// purged/zeroed and lie outside the live columns.
    fn run(&mut self, phase1: bool) -> Result<Outcome, SolveError> {
        let max_iters = 50_000 + 200 * (self.ncols + self.nrows);
        // Dantzig pricing converges fast; swap to Bland's rule after a
        // stall budget to guarantee termination on degenerate instances.
        let bland_after = 200 + 5 * (self.ncols + self.nrows);
        let costs = if phase1 { &self.phase1 } else { &self.costs };
        self.costed.clear();
        self.costed
            .extend((0..self.nrows).filter(|&i| costs[self.basis[i]] != 0.0));
        for iter in 0..max_iters {
            self.price(phase1);
            let entering = if iter < bland_after {
                // Dantzig: most negative reduced cost (index tie-break).
                let mut best: Option<(usize, f64)> = None;
                for (j, &r) in self.reduced.iter().enumerate() {
                    if r < -1e-9 && best.is_none_or(|(_, b)| r < b) {
                        best = Some((j, r));
                    }
                }
                best.map(|(j, _)| j)
            } else {
                // Bland: smallest index with negative reduced cost.
                self.reduced.iter().position(|&r| r < -1e-9)
            };
            let Some(col) = entering else {
                let costs = if phase1 { &self.phase1 } else { &self.costs };
                let basic = self.basis.iter().zip(&self.rhs);
                let cost = basic.map(|(&b, &x)| costs[b] * x).sum();
                return Ok(Outcome::Optimal(cost));
            };
            self.gather_column(col);
            let Some(row) = self.ratio_test() else {
                return Ok(Outcome::Unbounded);
            };
            self.pivot(row, col);
            let cost = if phase1 {
                self.phase1[col]
            } else {
                self.costs[col]
            };
            match (self.costed.binary_search(&row), cost != 0.0) {
                (Ok(k), false) => {
                    self.costed.remove(k);
                }
                (Err(k), true) => self.costed.insert(k, row),
                _ => {}
            }
        }
        Err(SolveError::IterationLimit)
    }

    /// `reduced[j] = c_j - c_B * B^-1 A_j` over the live columns, computed
    /// directly from the tableau. Each column's terms are subtracted in
    /// row order; the blocks skipped hold only zero terms.
    fn price(&mut self, phase1: bool) {
        let costs = if phase1 { &self.phase1 } else { &self.costs };
        let live = self.live;
        self.reduced.clear();
        self.reduced.extend_from_slice(&costs[..live]);
        for &i in &self.costed {
            let cb = costs[self.basis[i]];
            let row = &self.t[i * self.stride..(i + 1) * self.stride];
            for cols in blocks(self.mask[i], self.shift, live) {
                for (r, &tij) in self.reduced[cols.clone()].iter_mut().zip(&row[cols]) {
                    *r -= cb * tij;
                }
            }
        }
    }

    /// Collects the nonzeros of column `col`, in row order, into `pcol`.
    fn gather_column(&mut self, col: usize) {
        // Branch-free: every row is written, only nonzeros advance.
        self.pcol.resize(self.nrows, (0, 0.0));
        let mut n = 0;
        let rows = self.t[..self.nrows * self.stride].chunks_exact(self.stride);
        for (i, r) in rows.enumerate() {
            self.pcol[n] = (i, r[col]);
            n += usize::from(r[col].abs() > 0.0);
        }
        self.pcol.truncate(n);
    }

    /// Leaving row for the gathered entering column: the minimum ratio,
    /// ties (within 1e-12) broken on the smallest basic column index.
    /// `None` when the column is unbounded.
    fn ratio_test(&self) -> Option<usize> {
        let mut best: Option<(f64, usize, usize)> = None; // (ratio, basisvar, row)
        for &(i, a) in &self.pcol {
            if a > 1e-9 {
                let ratio = self.rhs[i] / a;
                let candidate = (ratio, self.basis[i], i);
                best = Some(match best {
                    None => candidate,
                    Some(b) => {
                        if ratio < b.0 - 1e-12
                            || ((ratio - b.0).abs() <= 1e-12 && self.basis[i] < b.1)
                        {
                            candidate
                        } else {
                            b
                        }
                    }
                });
            }
        }
        best.map(|(_, _, row)| row)
    }

    /// Pivots on `(row, col)`; `pcol` must hold column `col`'s nonzeros.
    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let (stride, shift) = (self.stride, self.shift);
        let Self {
            t,
            mask,
            rhs,
            pcol,
            prow,
            live,
            ..
        } = self;
        let pivot_row = &mut t[row * stride..(row + 1) * stride];
        let piv = pivot_row[col];
        debug_assert!(piv.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / piv;
        // Normalize the pivot row and gather its nonzeros and their blocks.
        prow.clear();
        let mut fill = 0u64;
        for cols in blocks(mask[row], shift, *live) {
            for j in cols {
                let v = &mut pivot_row[j];
                if *v != 0.0 {
                    *v *= inv;
                    if j != col {
                        prow.push((j, *v));
                        fill |= 1 << (j >> shift);
                    }
                }
            }
        }
        rhs[row] *= inv;
        let prhs = rhs[row];
        // Eliminate the entering column from every other row, touching
        // only the pivot row's nonzeros (and the rhs).
        for &(i, factor) in pcol.iter() {
            if i != row {
                let r = &mut t[i * stride..(i + 1) * stride];
                for &(j, p) in prow.iter() {
                    r[j] -= factor * p;
                }
                rhs[i] -= factor * prhs;
                r[col] = 0.0; // kill round-off exactly
                mask[i] |= fill;
            }
        }
        self.basis[row] = col;
        #[cfg(debug_assertions)]
        self.check_pivot_invariants(row, col);
    }

    /// Debug-mode dynamic invariant: after a pivot the entering column must
    /// be a unit vector with its 1 in the pivot row, and the basis
    /// bookkeeping must point at it. O(m), so it keeps debug solves usable
    /// even on Algorithm-1 cut ladders with hundreds of rows.
    #[cfg(debug_assertions)]
    fn check_pivot_invariants(&self, row: usize, col: usize) {
        debug_assert_eq!(self.basis[row], col, "basis entry not updated by pivot");
        let rows = self.t[..self.nrows * self.stride].chunks_exact(self.stride);
        for (i, r) in rows.enumerate() {
            let expect = if i == row { 1.0 } else { 0.0 };
            debug_assert!(
                (r[col] - expect).abs() <= 1e-6,
                "entering column {col} is not a unit vector: t[{i}][{col}] = {}",
                r[col]
            );
        }
    }
}

/// The column ranges of the set blocks of `mask`, ascending, clipped to
/// `..end`.
fn blocks(mask: u64, shift: u32, end: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let lo = (rest.trailing_zeros() as usize) << shift;
        rest &= rest - 1;
        (lo < end).then(|| lo..end.min(lo + (1 << shift)))
    })
}

/// `(sense, rhs)` with a negative rhs flipped so `b >= 0`.
fn normalized(sense: Sense, rhs: f64) -> (Sense, f64) {
    if rhs < -TOL {
        (flipped_sense(sense, true), -rhs)
    } else {
        (sense, rhs)
    }
}

fn flipped_sense(s: Sense, flip: bool) -> Sense {
    if !flip {
        return s;
    }
    match s {
        Sense::Le => Sense::Ge,
        Sense::Ge => Sense::Le,
        Sense::Eq => Sense::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Model, VarType};

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => 36 at (2, 6)
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(x * 1.0, Sense::Le, 4.0);
        m.add_constraint(y * 2.0, Sense::Le, 12.0);
        m.add_constraint(x * 3.0 + y * 2.0, Sense::Le, 18.0);
        m.maximize(x * 3.0 + y * 5.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.objective, 36.0));
        assert!(near(r.values[0], 2.0));
        assert!(near(r.values[1], 6.0));
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y  s.t. x + y >= 10, x >= 2, y >= 3  => x=7, y=3, obj 23
        let mut m = Model::new();
        let x = m.add_continuous("x", 2.0, f64::INFINITY);
        let y = m.add_continuous("y", 3.0, f64::INFINITY);
        m.add_constraint(x + y, Sense::Ge, 10.0);
        m.minimize(x * 2.0 + y * 3.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.objective, 23.0));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y == 6, x - y == 0 => x = y = 2, obj 4
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(x + y * 2.0, Sense::Eq, 6.0);
        m.add_constraint(x - y, Sense::Eq, 0.0);
        m.minimize(x + y);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.values[0], 2.0));
        assert!(near(r.values[1], 2.0));
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint(x * 1.0, Sense::Ge, 2.0);
        m.minimize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.maximize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn free_variable_split() {
        // min x  s.t. x >= -5  with free x declared via infinite bounds
        let mut m = Model::new();
        let x = m.add_continuous("x", f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint(x * 1.0, Sense::Ge, -5.0);
        m.minimize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.values[0], -5.0));
    }

    #[test]
    fn mirrored_upper_bound_only() {
        // max x  with x <= 7 and no lower bound
        let mut m = Model::new();
        let x = m.add_continuous("x", f64::NEG_INFINITY, 7.0);
        m.maximize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.values[0], 7.0));
    }

    #[test]
    fn fixed_variable_substitution() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 3.0, 3.0);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(x + y, Sense::Le, 10.0);
        m.maximize(y * 1.0 + x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert!(near(r.values[0], 3.0));
        assert!(near(r.values[1], 7.0));
        assert!(near(r.objective, 10.0));
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // x + y >= -1 is vacuous for x,y >= 0; min x + y = 0.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(x + y, Sense::Ge, -1.0);
        m.minimize(x + y);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.objective, 0.0));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-ish degenerate corner; Bland's rule must terminate.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        let z = m.add_continuous("z", 0.0, f64::INFINITY);
        m.add_constraint(x * 0.5 - y * 5.5 - z * 2.5, Sense::Le, 0.0);
        m.add_constraint(x * 0.5 - y * 1.5 - z * 0.5, Sense::Le, 0.0);
        m.add_constraint(x * 1.0, Sense::Le, 1.0);
        m.maximize(x * 10.0 - y * 57.0 - z * 9.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
    }

    #[test]
    fn all_fixed_without_rows() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 2.0, 2.0);
        m.minimize(x * 3.0 + 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.objective, 7.0));
        assert!(near(r.values[0], 2.0));
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        // One workspace across differently shaped LPs (as branch & bound
        // uses it) must answer exactly like a fresh solve each time.
        let mut big = Model::new();
        let xs: Vec<_> = (0..90)
            .map(|i| big.add_continuous(&format!("x{i}"), 0.0, 1.0 + i as f64))
            .collect();
        for k in 0..40 {
            let e: LinExpr = xs.iter().skip(k).step_by(3).map(|&x| x * 1.0).sum();
            big.add_constraint(e, Sense::Ge, 1.0 + k as f64 % 5.0);
        }
        big.add_constraint(xs[0] - xs[1], Sense::Eq, 0.0);
        big.minimize(
            xs.iter()
                .enumerate()
                .map(|(i, &x)| x * (1.0 + i as f64 % 7.0))
                .sum::<LinExpr>(),
        );
        let mut small = Model::new();
        let y = small.add_continuous("y", 0.0, f64::INFINITY);
        let z = small.add_continuous("z", f64::NEG_INFINITY, f64::INFINITY);
        small.add_constraint(y + z, Sense::Eq, 3.0);
        small.add_constraint(y * 1.0, Sense::Le, 2.0);
        small.maximize(z * 2.0 - y);
        let mut ws = LpWorkspace::default();
        for m in [&big, &small, &big, &small] {
            let (a, b) = (ws.solve(m).unwrap(), solve_lp(m).unwrap());
            assert_eq!(a.status, b.status);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.values), bits(&b.values));
        }
    }

    #[test]
    fn objective_constant_preserved() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 5.0);
        m.minimize(x * 2.0 + 100.0);
        let r = solve_lp(&m).unwrap();
        assert!(near(r.objective, 100.0));
    }

    #[test]
    fn bounded_range_variable() {
        let mut m = Model::new();
        let x = m.add_continuous("x", -2.0, 3.0);
        m.minimize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert!(near(r.values[0], -2.0));
        m.maximize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert!(near(r.values[0], 3.0));
    }

    #[test]
    fn zero_objective_feasibility_probe() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint(x * 1.0, Sense::Ge, 0.5);
        m.minimize(LinExpr::constant_expr(0.0));
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
    }

    #[test]
    fn ge_with_zero_rhs() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(x - y, Sense::Ge, 0.0);
        m.add_constraint(x + y, Sense::Le, 4.0);
        m.maximize(y * 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.objective, 2.0));
    }

    #[test]
    fn binary_relaxation_is_continuous() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Binary, 0.0, 1.0);
        m.maximize(x * 1.5);
        let r = solve_lp(&m).unwrap();
        assert!(near(r.values[0], 1.0));
        assert!(near(r.objective, 1.5));
    }
}
