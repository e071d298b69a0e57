//! Single-application chain-partition dynamic programs on identical
//! processors.
//!
//! Everything the paper's fully-homogeneous algorithms need boils down to
//! partitioning one linear chain into `k` intervals over identical
//! processors and optimizing period, latency or energy. There is **one
//! core per recurrence**, each running on a prebuilt [`IntervalCostTable`]
//! into a reusable [`DpScratch`]:
//!
//! * [`period_dp`] — minimum period with at most `q` intervals (the
//!   single-application algorithm of [3, 4] that the paper's Algorithm 2
//!   calls as a subroutine, Theorem 3);
//! * [`latency_dp`] — minimum latency subject to a period bound (the
//!   `(L, T)(i, q)` recurrence of Theorem 15);
//! * [`energy_dp`] — minimum energy subject to a period bound, with the
//!   per-interval cheapest-feasible-mode rule (the `E(i, j, k)` recurrence
//!   of Theorem 18);
//!
//! plus one dual search, [`min_period_under_latency_probe`]: the smallest
//! candidate period whose [`latency_dp`] meets a latency bound (Theorem 15).
//!
//! # Results live in the scratch
//!
//! A core leaves its solution in the scratch; callers read it there,
//! nothing is copied out. [`DpScratch::best_row`] holds the period/latency
//! values per processor count, [`DpScratch::energy_exact_k`] and
//! [`DpScratch::energy_best`] the energy values, and
//! [`DpScratch::period_partition`], [`DpScratch::latency_partition`],
//! [`DpScratch::energy_partition_exact`] and
//! [`DpScratch::energy_partition_best`] walk the one parent table back to
//! a [`Partition`]. The convenience wrappers [`period_table`],
//! [`latency_under_period`] and [`energy_under_period`] build the table
//! from a [`HomCtx`] and return the solved scratch. The dual
//! [`min_period_under_latency_probe`] returns the period; one
//! [`latency_dp`] at that period then leaves its partition in the scratch.
//!
//! # The fast cores
//!
//! All recurrences run through three shared, **exactness-preserving**
//! optimizations (every `best` value, table entry and reconstructed
//! partition is bit-for-bit identical to the textbook `O(n²·q)` scans —
//! proved by the `dp_scratch_equivalence` oracle tests):
//!
//! 1. **Monotone work-window pruning.** Under both communication models the
//!    cycle-time of `[j, i-1]` is lower-bounded by its compute term
//!    `W(j, i-1)/s_top`, which is non-increasing in `j` and non-decreasing
//!    in `i`. For the bounded DPs (latency/energy) every split `j` below
//!    the two-pointer frontier `jw(i)` is therefore infeasible and is
//!    skipped without being evaluated; for the unbounded period DP the
//!    inner scan walks `j` *descending* and stops as soon as the compute
//!    lower bound alone exceeds the incumbent. Tight thresholds — the
//!    common case inside a Pareto sweep — clip the quadratic scan to a
//!    near-constant window. (The classic divide-and-conquer argmin
//!    recursion is *not* used: the split argmin is provably non-monotone
//!    here — the no-overlap model and non-convex mode-energy steps both
//!    break the quadrangle inequality — so it could not reproduce the
//!    reference cores exactly.)
//! 2. **Flat arena storage.** All DP state lives in a reusable
//!    [`DpScratch`] (single row-major buffers), threaded through the
//!    Pareto sweep's per-thread [`crate::sweep::CandidateSolver`] state via
//!    [`DpWorkspace`] exactly like `HungarianWorkspace`: zero allocation
//!    per candidate solve.
//! 3. **Incremental sweep-wide mode frontiers.** The cheapest feasible
//!    mode of `(lo, hi)` is monotone in the threshold, so the scratch
//!    caches each cell's mode partition point across solves and walks it
//!    (usually 0–1 steps) instead of re-binary-searching, amortizing the
//!    `O(n²·modes)` single-interval cost table across a whole sweep.

#![allow(clippy::needless_range_loop)]
use cpo_model::application::Application;
use cpo_model::energy::EnergyModel;
use cpo_model::error::ModelError;
use cpo_model::eval::CommModel;
use cpo_model::num;

/// Context for a single application on identical (homogeneous) processors.
#[derive(Debug, Clone, Copy)]
pub struct HomCtx<'a> {
    /// The application being partitioned.
    pub app: &'a Application,
    /// The shared speed set (ascending). Performance-only programs use the
    /// highest speed; the energy program searches all modes.
    pub speeds: &'a [f64],
    /// Static energy per enrolled processor.
    pub e_stat: f64,
    /// Uniform link bandwidth `b`.
    pub bandwidth: f64,
    /// Per-transfer latency of **inter-processor** edges (a multistage
    /// fabric's stage traversal; `0.0` on dedicated links). The chain's
    /// external input/output edges never pay it.
    pub comm_overhead: f64,
    /// Communication model (overlap / no-overlap).
    pub model: CommModel,
    /// Energy model (`α`).
    pub energy: EnergyModel,
}

impl<'a> HomCtx<'a> {
    /// Context with the default energy model (dedicated uniform links —
    /// zero inter-processor overhead).
    pub fn new(app: &'a Application, speeds: &'a [f64], bandwidth: f64, model: CommModel) -> Self {
        HomCtx {
            app,
            speeds,
            e_stat: 0.0,
            bandwidth,
            comm_overhead: 0.0,
            model,
            energy: EnergyModel::default(),
        }
    }

    /// Context over an explicit uniform communication structure
    /// (bandwidth + inter-processor overhead), e.g. from
    /// [`cpo_model::Platform::uniform_comm`].
    pub fn with_comm(
        app: &'a Application,
        speeds: &'a [f64],
        comm: cpo_model::topology::UniformComm,
        model: CommModel,
    ) -> Self {
        let mut ctx = HomCtx::new(app, speeds, comm.bandwidth, model);
        ctx.comm_overhead = comm.inter_overhead;
        ctx
    }

    /// Highest available speed.
    #[inline]
    pub fn max_speed(&self) -> f64 {
        *self.speeds.last().expect("non-empty speed set")
    }

    /// Incoming transfer time of an interval starting at stage `lo`:
    /// `input_of(lo)/b`, plus the inter-processor overhead when the edge
    /// comes from a predecessor interval (`lo > 0`) rather than `P_in`.
    /// The add is gated so the zero-overhead case stays the bare
    /// division, bit for bit.
    #[inline]
    pub fn in_time(&self, lo: usize) -> f64 {
        let t = self.app.input_of(lo) / self.bandwidth;
        if lo > 0 && self.comm_overhead != 0.0 {
            t + self.comm_overhead
        } else {
            t
        }
    }

    /// Outgoing transfer time of an interval ending at stage `hi`:
    /// `output_of(hi)/b`, plus the inter-processor overhead when the edge
    /// feeds a successor interval (`hi + 1 < n`) rather than `P_out`.
    #[inline]
    pub fn out_time(&self, hi: usize) -> f64 {
        let t = self.app.output_of(hi) / self.bandwidth;
        if hi + 1 < self.app.n() && self.comm_overhead != 0.0 {
            t + self.comm_overhead
        } else {
            t
        }
    }

    /// Cycle-time of the interval `[lo, hi]` (0-based inclusive) at `speed`.
    #[inline]
    pub fn cycle(&self, lo: usize, hi: usize, speed: f64) -> f64 {
        let incoming = self.in_time(lo);
        let compute = self.app.interval_work(lo, hi) / speed;
        let outgoing = self.out_time(hi);
        self.model.combine(incoming, compute, outgoing)
    }

    /// Latency contribution of interval `[lo, hi]`: compute + outgoing
    /// communication (the incoming edge of the *first* interval is added
    /// separately, Eq. 5).
    #[inline]
    pub fn latency_term(&self, lo: usize, hi: usize, speed: f64) -> f64 {
        self.app.interval_work(lo, hi) / speed + self.out_time(hi)
    }

    /// Cheapest mode running `[lo, hi]` within period `t_bound`:
    /// the slowest feasible speed (energy is increasing in speed since
    /// `α > 1`). Returns `(mode index, energy)`.
    ///
    /// Speeds ascend, so the cycle-time is non-increasing in the mode index
    /// and feasibility is a monotone boundary: binary-search the first
    /// feasible mode instead of scanning linearly.
    pub fn cheapest_feasible_mode(&self, lo: usize, hi: usize, t_bound: f64) -> Option<(usize, f64)> {
        let m = self
            .speeds
            .partition_point(|&s| !num::le(self.cycle(lo, hi, s), t_bound));
        (m < self.speeds.len()).then(|| (m, self.e_stat + self.energy.dynamic(self.speeds[m])))
    }

    /// All candidate period values: cycle-times of every interval at every
    /// speed. The optimal period over any partition is always one of them.
    /// Routed through [`IntervalCostTable`] so every candidate enumeration
    /// in the workspace draws from the same cycle-time values.
    pub fn period_candidates(&self) -> Vec<f64> {
        IntervalCostTable::build(self).candidates()
    }
}

// ---------------------------------------------------------------------------
// Shared interval cost precomputation
// ---------------------------------------------------------------------------

/// Precomputed per-application interval costs: every `cycle(lo, hi, s)`,
/// per-mode energies, the top-mode latency terms and the work prefix sums of
/// [`HomCtx`].
///
/// The Pareto sweep engine re-runs the Theorem 15/18/21 dynamic programs
/// once per candidate period; without this table each run recomputes the
/// identical `O(n²·modes)` cycle-time values. Building the table once per
/// `(application, platform, model)` and sharing it across the sweep turns
/// those recomputations into lookups, and keeps every consumer (candidate
/// enumeration, feasibility probes, DP cost rows) reading from one source
/// so the values cannot drift apart.
#[derive(Debug, Clone)]
pub struct IntervalCostTable {
    n: usize,
    modes: usize,
    /// Application weight `W_a` (scales candidates to the global objective).
    pub weight: f64,
    /// `mode_energy[m]` = `E_stat + s_m^α`.
    pub mode_energy: Vec<f64>,
    /// `cycle[(lo * n + hi) * modes + m]`, valid for `lo ≤ hi`.
    cycle: Vec<f64>,
    /// Latency term of `[lo, hi]` at the top mode (`lo * n + hi`).
    latency_top: Vec<f64>,
    /// Input-edge latency `δ^0 / b` of the whole chain.
    input_edge: f64,
    /// Work prefix sums (`work_prefix[k]` = total work of stages `0..k`),
    /// bitwise-identical to [`Application::interval_work`]'s internal sums.
    work_prefix: Vec<f64>,
    /// Top speed `s_top` (for the compute-term lower bound).
    top_speed: f64,
    /// The speed set (ascending) — the exact divisors of the cycle compute
    /// terms, for the per-mode feasibility boundaries.
    speeds: Vec<f64>,
    /// Incoming-edge term `input_of(lo)/b` per stage — the exact first
    /// operand of every `cycle(lo, ·, ·)`.
    in_edge: Vec<f64>,
    /// Outgoing-edge term `output_of(hi)/b` per stage — the exact last
    /// operand of every `cycle(·, hi, ·)`.
    out_edge: Vec<f64>,
    /// Communication model the cycle-times were combined under.
    model: CommModel,
}

impl IntervalCostTable {
    /// Precompute all interval costs of `ctx` (`O(n²·modes)` time/space).
    pub fn build(ctx: &HomCtx<'_>) -> Self {
        let n = ctx.app.n();
        let modes = ctx.speeds.len();
        let top = ctx.max_speed();
        let mut cycle = vec![f64::INFINITY; n * n * modes];
        let mut latency_top = vec![f64::INFINITY; n * n];
        for lo in 0..n {
            // Hoist the per-lo and per-cell operands: same exact float
            // expressions as `ctx.cycle`/`ctx.latency_term`, computed once
            // instead of once per mode.
            let incoming = ctx.in_time(lo);
            for hi in lo..n {
                let work = ctx.app.interval_work(lo, hi);
                let outgoing = ctx.out_time(hi);
                let base = (lo * n + hi) * modes;
                for (m, &s) in ctx.speeds.iter().enumerate() {
                    cycle[base + m] = ctx.model.combine(incoming, work / s, outgoing);
                }
                latency_top[lo * n + hi] = work / top + outgoing;
            }
        }
        Self::assemble(ctx, cycle, latency_top)
    }

    /// Lean build for the overlap-model energy path: every cheap field
    /// (work prefix, edges, speeds, mode energies) but **no** `O(n²·modes)`
    /// cycle matrix and no latency terms. The run-decomposed energy core is
    /// the only consumer that needs nothing else; any accidental use of
    /// `cycle`/`top_cycle`/`latency_term_top`/`candidates` on a lean table
    /// panics on an out-of-bounds slice, so lean tables must not escape the
    /// one-shot solvers that create them.
    pub(crate) fn build_lean(ctx: &HomCtx<'_>) -> Self {
        Self::assemble(ctx, Vec::new(), Vec::new())
    }

    fn assemble(ctx: &HomCtx<'_>, cycle: Vec<f64>, latency_top: Vec<f64>) -> Self {
        let n = ctx.app.n();
        let mode_energy =
            ctx.speeds.iter().map(|&s| ctx.e_stat + ctx.energy.dynamic(s)).collect();
        let mut work_prefix = Vec::with_capacity(n + 1);
        work_prefix.push(0.0);
        for k in 1..=n {
            // `interval_work(0, k-1)` = prefix[k] − 0.0 = prefix[k] exactly.
            work_prefix.push(ctx.app.interval_work(0, k - 1));
        }
        let in_edge = (0..n).map(|k| ctx.in_time(k)).collect();
        let out_edge = (0..n).map(|k| ctx.out_time(k)).collect();
        IntervalCostTable {
            n,
            modes: ctx.speeds.len(),
            weight: ctx.app.weight,
            mode_energy,
            cycle,
            latency_top,
            input_edge: ctx.in_time(0),
            work_prefix,
            top_speed: ctx.max_speed(),
            speeds: ctx.speeds.to_vec(),
            in_edge,
            out_edge,
            model: ctx.model,
        }
    }

    /// Number of stages `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of modes.
    #[inline]
    pub fn modes(&self) -> usize {
        self.modes
    }

    /// Cycle-time of `[lo, hi]` at mode `m`.
    #[inline]
    pub fn cycle(&self, lo: usize, hi: usize, m: usize) -> f64 {
        self.cycle[(lo * self.n + hi) * self.modes + m]
    }

    /// All mode cycle-times of `[lo, hi]` (descending over modes).
    #[inline]
    pub(crate) fn cycle_row(&self, lo: usize, hi: usize) -> &[f64] {
        let base = (lo * self.n + hi) * self.modes;
        &self.cycle[base..base + self.modes]
    }

    /// Cycle-time of `[lo, hi]` at the top mode.
    #[inline]
    pub fn top_cycle(&self, lo: usize, hi: usize) -> f64 {
        self.cycle(lo, hi, self.modes - 1)
    }

    /// Compute term `W(lo, hi) / s_top` of `[lo, hi]` at the top mode —
    /// bitwise-identical to the compute operand inside [`HomCtx::cycle`],
    /// and a lower bound of the cycle-time at *every* mode under both
    /// communication models. Non-increasing in `lo`, non-decreasing in
    /// `hi`: the monotone quantity behind the DP work windows.
    #[inline]
    pub fn top_compute(&self, lo: usize, hi: usize) -> f64 {
        (self.work_prefix[hi + 1] - self.work_prefix[lo]) / self.top_speed
    }

    /// Compute term `W(lo, hi) / s_m` at mode `m` (same exact expression as
    /// the cycle's compute operand).
    #[inline]
    fn compute_at(&self, lo: usize, hi: usize, m: usize) -> f64 {
        (self.work_prefix[hi + 1] - self.work_prefix[lo]) / self.speeds[m]
    }

    /// True when the cycle-times were combined under the overlap model, in
    /// which the cycle is an exact three-way max — the structural property
    /// the run-decomposed energy core relies on.
    #[inline]
    fn is_overlap(&self) -> bool {
        matches!(self.model, CommModel::Overlap)
    }

    /// Latency term of `[lo, hi]` at the top mode.
    #[inline]
    pub fn latency_term_top(&self, lo: usize, hi: usize) -> f64 {
        self.latency_top[lo * self.n + hi]
    }

    /// Input-edge latency `δ^0 / b`.
    #[inline]
    pub fn input_edge(&self) -> f64 {
        self.input_edge
    }

    /// All candidate period values (unweighted), sorted and deduplicated —
    /// the same set as [`HomCtx::period_candidates`].
    pub fn candidates(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n * (self.n + 1) / 2 * self.modes);
        self.push_weighted_candidates(1.0, false, &mut out);
        num::sorted_candidates(out)
    }

    /// Append `weight ×` cycle-time candidates to `out`: every mode when
    /// `top_only` is false, only the top mode otherwise (for the
    /// performance-only solvers that never downclock).
    pub fn push_weighted_candidates(&self, weight: f64, top_only: bool, out: &mut Vec<f64>) {
        for lo in 0..self.n {
            for hi in lo..self.n {
                let base = (lo * self.n + hi) * self.modes;
                let first = if top_only { self.modes - 1 } else { 0 };
                for m in first..self.modes {
                    out.push(weight * self.cycle[base + m]);
                }
            }
        }
    }
}

/// A partition of the chain with the selected mode per interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Intervals `(first, last)` in chain order (0-based inclusive).
    pub intervals: Vec<(usize, usize)>,
    /// Mode index per interval (into the shared speed set).
    pub modes: Vec<usize>,
}

impl Partition {
    /// Number of intervals (= processors used).
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Flat DP arenas
// ---------------------------------------------------------------------------

const NONE_U32: u32 = u32::MAX;

/// Reusable flat workspace for the chain-partition dynamic programs.
///
/// One scratch holds every buffer a single-application solve needs — the
/// `(k, i)` value/parent/mode tables as row-major arenas, the two-pointer
/// work window, the single-interval cost row and the per-cell cheapest-mode
/// frontier — and is reused across solves (any mix of thresholds, programs
/// and applications; buffers grow to the largest instance seen). A Pareto
/// sweep worker keeps one [`DpWorkspace`] (one scratch per application) in
/// its [`crate::sweep::CandidateSolver::State`], eliminating every
/// per-candidate allocation.
///
/// The scratch also owns the result of its last solve: read it through
/// [`best_row`](Self::best_row) and the `*_partition*` and `energy_*`
/// readers, which are valid until the next solve into the same scratch.
///
/// The mode frontier persists across solves on purpose: the cheapest
/// feasible mode of a cell is monotone in the threshold, so consecutive
/// sweep candidates move each frontier by a step or two at most. The cached
/// position is only ever a *walk starting point* — each solve walks it to
/// the exact partition point for the current threshold — so reuse across
/// unrelated tables is merely slower, never wrong.
#[derive(Debug, Default, Clone)]
pub struct DpScratch {
    n: usize,
    kcap: usize,
    /// `exact[k * (n+1) + i]` (row-major over `k`).
    exact: Vec<f64>,
    /// Split point realizing `exact` (`NONE_U32` = none).
    parent: Vec<u32>,
    /// Mode of the last interval (energy DP only).
    mode_of: Vec<u32>,
    /// `jw[i]` = first split `j` whose last interval `[j, i-1]` passes the
    /// top-mode compute lower bound (splits below are infeasible).
    jw: Vec<u32>,
    /// Cached cheapest-mode partition point per `(lo, hi)` cell.
    frontier: Vec<u32>,
    /// Cheapest single-interval energy per `(lo, hi)` cell at the current
    /// threshold (refreshed for window cells only).
    cost1: Vec<f64>,
    /// Mode realizing `cost1`.
    mode1: Vec<u32>,
    /// `best[q-1]` of the last period/latency solve.
    best: Vec<f64>,
    /// `exact_k[k-1]` of the last energy solve.
    exact_k: Vec<f64>,
    /// Overall best of the last energy solve.
    best_val: f64,
    /// Per-mode feasibility boundaries `b[m·(n+1) + i]` = first split `j`
    /// whose last interval `[j, i-1]` fits mode `m`'s compute term.
    mode_bound: Vec<u32>,
    /// Monotone deques of the run-decomposed energy core, one per mode, as
    /// flat forward-only arenas (`m·n .. (m+1)·n`): each split enters a
    /// deque at most once per row, so head/tail only ever advance.
    run_key: Vec<f64>,
    run_idx: Vec<u32>,
    run_head: Vec<u32>,
    run_tail: Vec<u32>,
    /// Per-mode entrant pointers of the run deques.
    run_entrant: Vec<u32>,
}

impl DpScratch {
    /// Fresh scratch; buffers grow lazily to the largest instance solved.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size (and re-initialize) the arenas for an `n`-stage solve with
    /// `kcap` exact rows; the frontier cache survives as long as `n` does.
    fn ensure(&mut self, n: usize, kcap: usize, qmax: usize, with_modes: bool) {
        if self.n != n {
            self.n = n;
            // Invalidate the per-cell arrays; they are (re)sized lazily by
            // the cores that actually use them (`refresh_cost1`), so the
            // run-decomposed path never pays for the O(n²) arenas.
            self.frontier.clear();
            self.cost1.clear();
            self.mode1.clear();
        }
        self.kcap = kcap;
        let cells = (kcap + 1) * (n + 1);
        self.exact.clear();
        self.exact.resize(cells, f64::INFINITY);
        self.parent.clear();
        self.parent.resize(cells, NONE_U32);
        if with_modes {
            self.mode_of.clear();
            self.mode_of.resize(cells, NONE_U32);
        }
        self.best.clear();
        self.best.resize(qmax, f64::INFINITY);
        self.jw.clear();
        self.jw.resize(n + 1, 0);
    }

    /// Two-pointer fill of the work window: `jw[i]` = first `j < i` with
    /// `top_compute(j, i-1) ≤ t_bound` (or `i` when even the single stage
    /// fails). Since the compute term is non-increasing in `j` and
    /// non-decreasing in `i`, the frontier is non-decreasing in `i` and the
    /// whole fill is `O(n)`. Every skipped split is infeasible under both
    /// communication models (the cycle-time dominates its compute term
    /// bitwise), so clipping the DP scans to the window is exact.
    fn fill_window(&mut self, table: &IntervalCostTable, t_bound: f64) {
        let n = self.n;
        let mut j = 0usize;
        for i in 1..=n {
            while j < i && !num::le(table.top_compute(j, i - 1), t_bound) {
                j += 1;
            }
            self.jw[i] = j as u32;
        }
    }

    /// Fill the per-mode feasibility boundaries, column-major
    /// (`mode_bound[i·modes + m]`): first `j < i` with
    /// `compute_at(j, i-1, m) ≤ t_bound` (or `i` when none). One
    /// two-pointer per mode — `O(n·modes)` — since each compute term is
    /// non-increasing in `j` and non-decreasing in `i`.
    fn fill_mode_bounds(&mut self, table: &IntervalCostTable, t_bound: f64) {
        let n = self.n;
        let modes = table.modes();
        self.mode_bound.clear();
        self.mode_bound.resize((n + 1) * modes, 0);
        for m in 0..modes {
            let mut j = 0usize;
            for i in 1..=n {
                while j < i && !num::le(table.compute_at(j, i - 1, m), t_bound) {
                    j += 1;
                }
                self.mode_bound[i * modes + m] = j as u32;
            }
        }
    }

    /// Refresh `cost1`/`mode1` for every window cell by walking the cached
    /// mode frontier to the exact partition point for `t_bound` (identical
    /// to [`HomCtx::cheapest_feasible_mode`] on the table's context). Cells
    /// outside the window are left stale — the DP never reads them.
    fn refresh_cost1(&mut self, table: &IntervalCostTable, t_bound: f64) {
        let n = self.n;
        let modes = table.modes();
        if self.frontier.len() != n * n {
            self.frontier.clear();
            self.frontier.resize(n * n, 0);
            self.cost1.clear();
            self.cost1.resize(n * n, f64::INFINITY);
            self.mode1.clear();
            self.mode1.resize(n * n, NONE_U32);
        }
        for i in 1..=n {
            let hi = i - 1;
            for j in (self.jw[i] as usize)..i {
                let cell = j * n + hi;
                let row = table.cycle_row(j, hi);
                let mut m = (self.frontier[cell] as usize).min(modes);
                while m < modes && !num::le(row[m], t_bound) {
                    m += 1;
                }
                while m > 0 && num::le(row[m - 1], t_bound) {
                    m -= 1;
                }
                self.frontier[cell] = m as u32;
                if m < modes {
                    self.cost1[cell] = table.mode_energy[m];
                    self.mode1[cell] = m as u32;
                } else {
                    self.cost1[cell] = f64::INFINITY;
                    self.mode1[cell] = NONE_U32;
                }
            }
        }
    }

    /// `best[q-1]` values of the last period or latency solve.
    #[inline]
    pub fn best_row(&self) -> &[f64] {
        &self.best
    }

    /// `exact_k` values of the last energy solve.
    #[inline]
    pub fn energy_exact_k(&self) -> &[f64] {
        &self.exact_k
    }

    /// Overall best of the last energy solve.
    #[inline]
    pub fn energy_best(&self) -> f64 {
        self.best_val
    }

    /// Walk the parent chain for `k` intervals ending at stage `n`.
    fn walk_parents(&self, k: usize, with_modes: bool) -> Option<Partition> {
        let stride = self.n + 1;
        let mut intervals = Vec::with_capacity(k);
        let mut modes = Vec::with_capacity(if with_modes { k } else { 0 });
        let mut i = self.n;
        let mut kk = k;
        while kk > 0 {
            let p = self.parent[kk * stride + i];
            if p == NONE_U32 || p as usize >= i {
                return None;
            }
            intervals.push((p as usize, i - 1));
            if with_modes {
                modes.push(self.mode_of[kk * stride + i] as usize);
            }
            i = p as usize;
            kk -= 1;
        }
        if i != 0 {
            return None;
        }
        intervals.reverse();
        modes.reverse();
        Some(Partition { intervals, modes })
    }

    /// Reconstruct a partition achieving `best_row()[q-1]` of the last
    /// *period* solve (all intervals at `top_mode`). A structured error
    /// instead of a panic when non-finite inputs (NaN stage data, NaN
    /// speeds) left no row attaining the target.
    pub fn period_partition(&self, q: usize, top_mode: usize) -> Result<Partition, ModelError> {
        self.best_partition(q, top_mode)
            .ok_or(ModelError::NonFiniteData { what: "period DP" })
    }

    /// Reconstruct a partition achieving `best_row()[q-1]` of the last
    /// *latency* solve; `None` when infeasible.
    pub fn latency_partition(&self, q: usize, top_mode: usize) -> Option<Partition> {
        self.best_partition(q, top_mode)
    }

    /// Smallest `k ≤ q` whose exact row attains `best_row()[q-1]`, walked
    /// back with every interval at `top_mode`.
    fn best_partition(&self, q: usize, top_mode: usize) -> Option<Partition> {
        let stride = self.n + 1;
        let target = self.best[q - 1];
        if !target.is_finite() {
            return None;
        }
        let k =
            (1..=q.min(self.kcap)).find(|&k| num::le(self.exact[k * stride + self.n], target))?;
        let mut part = self.walk_parents(k, false)?;
        part.modes = vec![top_mode; part.intervals.len()];
        Some(part)
    }

    /// Reconstruct the partition achieving `energy_exact_k()[k-1]` of the
    /// last *energy* solve; `None` when infeasible.
    pub fn energy_partition_exact(&self, k: usize) -> Option<Partition> {
        if k == 0 || k > self.exact_k.len() || !self.exact_k[k - 1].is_finite() {
            return None;
        }
        self.walk_parents(k, true)
    }

    /// Reconstruct the overall best partition of the last energy solve.
    pub fn energy_partition_best(&self) -> Option<Partition> {
        let k = (1..=self.exact_k.len())
            .filter(|&k| self.exact_k[k - 1].is_finite())
            .min_by(|&a, &b| {
                self.exact_k[a - 1].partial_cmp(&self.exact_k[b - 1]).expect("finite")
            })?;
        self.energy_partition_exact(k)
    }
}

/// Per-thread workspace of a multi-application solve: one [`DpScratch`] per
/// application plus flat buffers for the Theorem 21 convolution. This is
/// (part of) the `CandidateSolver::State` of the interval Pareto solvers.
#[derive(Debug, Default)]
pub struct DpWorkspace {
    pub(crate) per_app: Vec<DpScratch>,
    pub(crate) conv_e: Vec<f64>,
    pub(crate) conv_choice: Vec<u32>,
}

impl DpWorkspace {
    /// Fresh workspace; buffers grow lazily.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch of application `a` (growing the pool as needed).
    pub(crate) fn app_scratch(&mut self, a: usize) -> &mut DpScratch {
        if self.per_app.len() <= a {
            self.per_app.resize_with(a + 1, DpScratch::new);
        }
        &mut self.per_app[a]
    }
}

// ---------------------------------------------------------------------------
// Period minimization (Theorem 3 subroutine)
// ---------------------------------------------------------------------------

/// Run the period DP into `scratch`: `scratch.best_row()[q-1]` = minimum
/// period of the table's application with at most `q` intervals at the top
/// speed. The inner scan walks splits descending and stops once the
/// compute-term lower bound alone exceeds the incumbent — exact, since the
/// bound is monotone in the split (see [`IntervalCostTable::top_compute`]).
pub fn period_dp(table: &IntervalCostTable, qmax: usize, scratch: &mut DpScratch) {
    let n = table.n();
    let kcap = qmax.min(n).max(1);
    scratch.ensure(n, kcap, qmax, false);
    let stride = n + 1;
    for i in 1..=n {
        scratch.exact[stride + i] = table.top_cycle(0, i - 1);
        scratch.parent[stride + i] = 0;
    }
    for k in 2..=kcap {
        let (lo_rows, hi_rows) = scratch.exact.split_at_mut(k * stride);
        let prev = &lo_rows[(k - 1) * stride..];
        let cur = &mut hi_rows[..stride];
        let parent_row = &mut scratch.parent[k * stride..(k + 1) * stride];
        for i in k..=n {
            let hi = i - 1;
            let mut best = f64::INFINITY;
            let mut arg = NONE_U32;
            // Descending scan with `≤` keeps the smallest split attaining
            // the minimum — the same selection as the ascending strict scan
            // of the reference core — while allowing the monotone early
            // stop: once the compute bound exceeds the incumbent it does so
            // for every smaller split too.
            for j in ((k - 1)..i).rev() {
                if table.top_compute(j, hi) > best {
                    break;
                }
                let cand = num::fmax(prev[j], table.top_cycle(j, hi));
                if cand <= best {
                    best = cand;
                    arg = j as u32;
                }
            }
            cur[i] = best;
            parent_row[i] = arg;
        }
    }
    let mut acc = f64::INFINITY;
    for q in 1..=qmax {
        let k = q.min(kcap);
        acc = num::fmin(acc, scratch.exact[k * stride + n]);
        scratch.best[q - 1] = acc;
    }
}

/// Minimum period of `ctx`'s application with at most `q ∈ {1..qmax}`
/// intervals, running every interval at the top speed (performance-only
/// setting): [`period_dp`] on a fresh table, returning the solved scratch.
pub fn period_table(ctx: &HomCtx<'_>, qmax: usize) -> DpScratch {
    let mut scratch = DpScratch::new();
    period_dp(&IntervalCostTable::build(ctx), qmax, &mut scratch);
    scratch
}

// ---------------------------------------------------------------------------
// Latency under a period bound (Theorem 15)
// ---------------------------------------------------------------------------

/// Run the latency-under-period DP into `scratch` (Theorem 15 recurrence,
/// top speed, splits clipped to the exact work window).
pub fn latency_dp(table: &IntervalCostTable, t_bound: f64, qmax: usize, scratch: &mut DpScratch) {
    let n = table.n();
    let kcap = qmax.min(n).max(1);
    scratch.ensure(n, kcap, qmax, false);
    scratch.fill_window(table, t_bound);
    let stride = n + 1;
    for i in 1..=n {
        if scratch.jw[i] == 0 && num::le(table.top_cycle(0, i - 1), t_bound) {
            scratch.exact[stride + i] = table.input_edge() + table.latency_term_top(0, i - 1);
            scratch.parent[stride + i] = 0;
        }
    }
    for k in 2..=kcap {
        let (lo_rows, hi_rows) = scratch.exact.split_at_mut(k * stride);
        let prev = &lo_rows[(k - 1) * stride..];
        let cur = &mut hi_rows[..stride];
        let parent_row = &mut scratch.parent[k * stride..(k + 1) * stride];
        for i in k..=n {
            let hi = i - 1;
            let jlo = (scratch.jw[i] as usize).max(k - 1);
            let mut best = f64::INFINITY;
            let mut arg = NONE_U32;
            for j in jlo..i {
                if prev[j].is_finite() && num::le(table.top_cycle(j, hi), t_bound) {
                    let cand = prev[j] + table.latency_term_top(j, hi);
                    if cand < best {
                        best = cand;
                        arg = j as u32;
                    }
                }
            }
            cur[i] = best;
            parent_row[i] = arg;
        }
    }
    let mut acc = f64::INFINITY;
    for q in 1..=qmax {
        let k = q.min(kcap);
        acc = num::fmin(acc, scratch.exact[k * stride + n]);
        scratch.best[q - 1] = acc;
    }
}

/// Minimum latency of `ctx`'s application with at most `q ∈ {1..qmax}`
/// intervals subject to every interval's cycle-time ≤ `t_bound` (the
/// paper's `(L, T)(i, q)` recurrence, Theorem 15), at the top speed:
/// [`latency_dp`] on a fresh table, returning the solved scratch.
pub fn latency_under_period(ctx: &HomCtx<'_>, t_bound: f64, qmax: usize) -> DpScratch {
    let mut scratch = DpScratch::new();
    latency_dp(&IntervalCostTable::build(ctx), t_bound, qmax, &mut scratch);
    scratch
}

/// The smallest of the sorted `candidates` periods under which
/// [`latency_dp`] reaches latency ≤ `l_bound` with at most `q` intervals.
/// Feasibility is monotone in the period, so the candidates are
/// binary-searched, one [`latency_dp`] per probe; `None` when even the
/// largest candidate fails. The scratch is left holding the last probe,
/// which need not be the answer.
pub fn min_period_under_latency_probe(
    table: &IntervalCostTable,
    candidates: &[f64],
    l_bound: f64,
    q: usize,
    scratch: &mut DpScratch,
) -> Option<f64> {
    let mut lo = 0usize;
    let mut hi = candidates.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        latency_dp(table, candidates[mid], q, scratch);
        let l = scratch.best_row()[q - 1];
        if l.is_finite() && num::le(l, l_bound) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (lo < candidates.len()).then(|| candidates[lo])
}

// ---------------------------------------------------------------------------
// Energy under a period bound (Theorem 18)
// ---------------------------------------------------------------------------

/// Run the energy-under-period DP into `scratch` (Theorem 18 recurrence;
/// each interval independently selects its cheapest feasible mode).
///
/// Under the overlap model the cycle-time is an exact three-way max, so for
/// a fixed prefix length the feasible splits partition into ≤ `modes`
/// contiguous *runs* of constant interval cost whose boundaries move
/// monotonically — the run-decomposed core scans them with one monotone
/// deque per mode in `O(n·q·modes)` instead of `O(n²·q)`, keyed on the
/// exact `exact[k-1][j] + cost1` float values the textbook scan compares
/// (so even ULP-level ties select the same split). The additive no-overlap
/// model has no such structure (the incoming edge breaks run contiguity);
/// it uses the windowed quadratic scan with the incremental mode frontier.
pub fn energy_dp(table: &IntervalCostTable, t_bound: f64, qmax: usize, scratch: &mut DpScratch) {
    if table.is_overlap() {
        energy_dp_runs(table, t_bound, qmax, scratch);
    } else {
        energy_dp_window(table, t_bound, qmax, scratch);
    }
}

/// Run-decomposed energy core (overlap model only; see [`energy_dp`]).
fn energy_dp_runs(table: &IntervalCostTable, t_bound: f64, qmax: usize, scratch: &mut DpScratch) {
    let n = table.n();
    let modes = table.modes();
    let kcap = qmax.min(n).max(1);
    scratch.ensure(n, kcap, qmax, true);
    scratch.fill_mode_bounds(table, t_bound);
    let stride = n + 1;
    // k = 1: the single interval [0, i-1]; its cheapest mode is the first
    // one whose boundary reaches 0 (boundaries descend over modes).
    let row0_ok = n == 0 || num::le(table.in_edge[0], t_bound);
    for i in 1..=n {
        let mut e = f64::INFINITY;
        let mut msel = NONE_U32;
        if row0_ok && num::le(table.out_edge[i - 1], t_bound) {
            for m in 0..modes {
                if scratch.mode_bound[i * modes + m] == 0 {
                    e = table.mode_energy[m];
                    msel = m as u32;
                    break;
                }
            }
        }
        scratch.exact[stride + i] = e;
        scratch.parent[stride + i] = 0;
        scratch.mode_of[stride + i] = msel;
    }
    scratch.run_key.clear();
    scratch.run_key.resize(modes * n, 0.0);
    scratch.run_idx.clear();
    scratch.run_idx.resize(modes * n, 0);
    scratch.run_head.clear();
    scratch.run_head.resize(modes, 0);
    scratch.run_tail.clear();
    scratch.run_tail.resize(modes, 0);
    scratch.run_entrant.clear();
    scratch.run_entrant.resize(modes, 0);
    let mode_bound = &scratch.mode_bound;
    let run_key = &mut scratch.run_key;
    let run_idx = &mut scratch.run_idx;
    let run_head = &mut scratch.run_head;
    let run_tail = &mut scratch.run_tail;
    let run_entrant = &mut scratch.run_entrant;
    let in_edge = &table.in_edge;
    let out_edge = &table.out_edge;
    let mode_energy = &table.mode_energy;
    for k in 2..=kcap {
        let (lo_rows, hi_rows) = scratch.exact.split_at_mut(k * stride);
        let prev = &lo_rows[(k - 1) * stride..];
        let cur = &mut hi_rows[..stride];
        let parent_row = &mut scratch.parent[k * stride..(k + 1) * stride];
        let mode_row = &mut scratch.mode_of[k * stride..(k + 1) * stride];
        run_head.fill(0);
        run_tail.fill(0);
        run_entrant.fill((k - 1) as u32);
        for i in k..=n {
            let col = &mode_bound[i * modes..(i + 1) * modes];
            // Stage 1: migrate entrants. A split enters run 0 when it first
            // becomes a candidate (j = i-1) and degrades into run m when
            // boundary b_{m-1} passes it (its interval grew too heavy for
            // mode m-1). Each split enters each deque at most once per row,
            // so the flat deques only ever advance. Stage 2: expire splits
            // below the run's left boundary.
            for m in 0..modes {
                let right = if m == 0 { i } else { col[m - 1] as usize };
                let e_m = run_entrant[m] as usize;
                let base = m * n;
                if e_m < right {
                    let mut tail = run_tail[m] as usize;
                    let head = run_head[m] as usize;
                    let c_m = mode_energy[m];
                    for j in e_m..right {
                        if prev[j].is_finite() && num::le(in_edge[j], t_bound) {
                            let key = prev[j] + c_m;
                            while tail > head && run_key[base + tail - 1] > key {
                                tail -= 1;
                            }
                            run_key[base + tail] = key;
                            run_idx[base + tail] = j as u32;
                            tail += 1;
                        }
                    }
                    run_tail[m] = tail as u32;
                    run_entrant[m] = right as u32;
                }
                let left = (col[m] as usize).max(k - 1);
                let tail = run_tail[m] as usize;
                let mut head = run_head[m] as usize;
                while head < tail && (run_idx[base + head] as usize) < left {
                    head += 1;
                }
                run_head[m] = head as u32;
            }
            // Stage 3: evaluate the column — run fronts in ascending-split
            // order (descending mode), strict improvement, exactly the
            // textbook scan's selection.
            let mut best = f64::INFINITY;
            let mut arg = NONE_U32;
            let mut bm = NONE_U32;
            if num::le(out_edge[i - 1], t_bound) {
                for m in (0..modes).rev() {
                    let head = run_head[m] as usize;
                    if head < run_tail[m] as usize {
                        let key = run_key[m * n + head];
                        if key < best {
                            best = key;
                            arg = run_idx[m * n + head];
                            bm = m as u32;
                        }
                    }
                }
            }
            cur[i] = best;
            parent_row[i] = arg;
            mode_row[i] = bm;
        }
    }
    scratch.exact_k.clear();
    for k in 1..=kcap {
        scratch.exact_k.push(scratch.exact[k * stride + n]);
    }
    scratch.best_val = scratch.exact_k.iter().copied().fold(f64::INFINITY, num::fmin);
}

/// Windowed quadratic energy core (both models; the no-overlap path).
fn energy_dp_window(table: &IntervalCostTable, t_bound: f64, qmax: usize, scratch: &mut DpScratch) {
    let n = table.n();
    let kcap = qmax.min(n).max(1);
    scratch.ensure(n, kcap, qmax, true);
    scratch.fill_window(table, t_bound);
    scratch.refresh_cost1(table, t_bound);
    let stride = n + 1;
    for i in 1..=n {
        let (e, m) = if scratch.jw[i] == 0 {
            (scratch.cost1[i - 1], scratch.mode1[i - 1])
        } else {
            (f64::INFINITY, NONE_U32)
        };
        scratch.exact[stride + i] = e;
        scratch.parent[stride + i] = 0;
        scratch.mode_of[stride + i] = m;
    }
    for k in 2..=kcap {
        let (lo_rows, hi_rows) = scratch.exact.split_at_mut(k * stride);
        let prev = &lo_rows[(k - 1) * stride..];
        let cur = &mut hi_rows[..stride];
        let parent_row = &mut scratch.parent[k * stride..(k + 1) * stride];
        let mode_row = &mut scratch.mode_of[k * stride..(k + 1) * stride];
        for i in k..=n {
            let hi = i - 1;
            let jlo = (scratch.jw[i] as usize).max(k - 1);
            let mut best = f64::INFINITY;
            let mut arg = NONE_U32;
            let mut bm = NONE_U32;
            for j in jlo..i {
                let c1 = scratch.cost1[j * n + hi];
                if prev[j].is_finite() && c1.is_finite() {
                    let cand = prev[j] + c1;
                    if cand < best {
                        best = cand;
                        arg = j as u32;
                        bm = scratch.mode1[j * n + hi];
                    }
                }
            }
            cur[i] = best;
            parent_row[i] = arg;
            mode_row[i] = bm;
        }
    }
    scratch.exact_k.clear();
    for k in 1..=kcap {
        scratch.exact_k.push(scratch.exact[k * stride + n]);
    }
    scratch.best_val = scratch.exact_k.iter().copied().fold(f64::INFINITY, num::fmin);
}

/// Minimum energy of `ctx`'s application subject to every interval
/// cycle-time ≤ `t_bound` (Theorem 18 DP; each interval independently
/// selects its cheapest feasible mode): [`energy_dp`] on a fresh table
/// (lean under the overlap model, see `bi::energy_cost_table`), returning
/// the solved scratch.
pub fn energy_under_period(ctx: &HomCtx<'_>, t_bound: f64, qmax: usize) -> DpScratch {
    let mut scratch = DpScratch::new();
    let table = crate::bi::energy_cost_table(ctx);
    energy_dp(&table, t_bound, qmax, &mut scratch);
    scratch
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::application::Application;

    fn app() -> Application {
        // App2 of the Section 2 example.
        Application::from_pairs(0.0, &[(2.0, 1.0), (6.0, 1.0), (4.0, 1.0), (2.0, 1.0)])
    }

    #[test]
    fn period_table_single_proc() {
        let a = app();
        let speeds = [8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        let t = period_table(&ctx, 1);
        // One interval: max(0/1, 14/8, 1/1) = 1.75.
        assert!((t.best_row()[0] - 1.75).abs() < 1e-12);
        let part = t.period_partition(1, 0).unwrap();
        assert_eq!(part.intervals, vec![(0, 3)]);
    }

    #[test]
    fn period_table_improves_with_processors() {
        let a = app();
        let speeds = [8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        let t = period_table(&ctx, 4);
        // Non-increasing in q.
        for w in t.best_row().windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // Two intervals split (0,1)/(2,3): max(8/8, 1) then max(1, 6/8, 1) = 1.
        assert!((t.best_row()[1] - 1.0).abs() < 1e-12);
        let part = t.period_partition(2, 0).unwrap();
        assert_eq!(part.intervals.len(), 2);
        assert_eq!(part.intervals[0].0, 0);
        assert_eq!(part.intervals.last().unwrap().1, 3);
    }

    #[test]
    fn period_table_no_overlap_is_worse() {
        let a = app();
        let speeds = [8.0];
        let ov = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        let no = HomCtx::new(&a, &speeds, 1.0, CommModel::NoOverlap);
        for q in 1..=4 {
            let tov = period_table(&ov, q).best_row()[q - 1];
            let tno = period_table(&no, q).best_row()[q - 1];
            assert!(tov <= tno + 1e-12);
        }
    }

    #[test]
    fn nan_contaminated_input_yields_structured_error() {
        // Regression: NaN-contaminated inputs used to make reconstruction
        // panic ("period table is consistent"); they must now surface a
        // structured ModelError (or a coherent partition where the max
        // combine absorbs the NaN) — never a panic.
        // NaN speeds under the additive no-overlap model contaminate every
        // cycle-time: best[q-1] goes NaN/∞ and reconstruction must Err.
        let a = app();
        let bad_speeds = [f64::NAN];
        let ctx = HomCtx::new(&a, &bad_speeds, 1.0, CommModel::NoOverlap);
        let t = period_table(&ctx, 2);
        let err = t.period_partition(2, 0).unwrap_err();
        assert!(matches!(err, ModelError::NonFiniteData { .. }), "{err:?}");
        let err = t.period_partition(1, 0).unwrap_err();
        assert!(matches!(err, ModelError::NonFiniteData { .. }), "{err:?}");
        // NaN stage data (a poisoned edge weight) under the additive
        // no-overlap model: reconstruction must not panic whatever branch
        // the contaminated comparisons took.
        let mut a = app();
        a.stages[1].output = f64::NAN;
        let speeds = [8.0];
        for model in CommModel::ALL {
            let ctx = HomCtx::new(&a, &speeds, 1.0, model);
            for q in 1..=4 {
                let t = period_table(&ctx, q);
                if let Ok(part) = t.period_partition(q, 0) {
                    // Whatever survived must still be a chain cover.
                    assert_eq!(part.intervals[0].0, 0);
                    assert_eq!(part.intervals.last().unwrap().1, a.n() - 1);
                }
            }
        }
        // NaN bandwidth poisons every communication term.
        let ctx = HomCtx::new(&a, &speeds, f64::NAN, CommModel::NoOverlap);
        let t = period_table(&ctx, 3);
        for q in 1..=3 {
            let _ = t.period_partition(q, 0); // must not panic
        }
    }

    #[test]
    fn latency_under_loose_period_is_single_interval() {
        let a = app();
        let speeds = [8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        let t = latency_under_period(&ctx, 100.0, 4);
        // Single interval minimizes latency: 0 + 14/8 + 1 = 2.75.
        assert!((t.best_row()[3] - 2.75).abs() < 1e-12);
        let part = t.latency_partition(4, 0).unwrap();
        assert_eq!(part.intervals, vec![(0, 3)]);
    }

    #[test]
    fn latency_under_tight_period_needs_splits() {
        let a = app();
        let speeds = [8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        // Period bound 1 forces ≥ 2 intervals (14/8 > 1).
        let t = latency_under_period(&ctx, 1.0, 4);
        assert!(t.best_row()[0].is_infinite());
        assert!(t.best_row()[1].is_finite());
        // Split (0,1)/(2,3): latency 0 + 8/8 + 1/1 + 6/8 + 1/1 = 3.75.
        assert!((t.best_row()[1] - 3.75).abs() < 1e-12);
        let part = t.latency_partition(2, 0).unwrap();
        assert_eq!(part.intervals, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn latency_table_infeasible_when_period_too_small() {
        let a = app();
        let speeds = [8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        // Outgoing edge of stage 3 costs 1; period 0.5 unachievable.
        let t = latency_under_period(&ctx, 0.5, 4);
        assert!(t.best_row().iter().all(|l| l.is_infinite()));
        assert!(t.latency_partition(4, 0).is_none());
    }

    #[test]
    fn dual_period_under_latency() {
        let a = app();
        let speeds = [8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        let table = IntervalCostTable::build(&ctx);
        let cands = table.candidates();
        let mut scratch = DpScratch::new();
        let mut dual = |l_bound: f64| {
            min_period_under_latency_probe(&table, &cands, l_bound, 4, &mut scratch)
        };
        // Unbounded latency: dual returns the unconstrained optimum period.
        let t = dual(f64::INFINITY).unwrap();
        let unconstrained = period_table(&ctx, 4).best_row()[3];
        assert!((t - unconstrained).abs() < 1e-12);
        // Latency bound 2.75 forces the single interval: period 1.75.
        let t = dual(2.75).unwrap();
        assert!((t - 1.75).abs() < 1e-12);
        // Impossible latency bound.
        assert!(dual(0.1).is_none());
        latency_dp(&table, t, 4, &mut scratch);
        assert_eq!(scratch.latency_partition(4, table.modes() - 1).unwrap().intervals, vec![(0, 3)]);
    }

    #[test]
    fn energy_picks_slowest_feasible_modes() {
        let a = app();
        let speeds = [1.0, 6.0, 8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        // Period bound 14: one processor at speed 1 suffices (14/1 = 14).
        let t = energy_under_period(&ctx, 14.0, 3);
        assert!((t.energy_exact_k()[0] - 1.0).abs() < 1e-12);
        assert!((t.energy_best() - 1.0).abs() < 1e-12);
        let part = t.energy_partition_best().unwrap();
        assert_eq!(part.modes, vec![0]);
        // Period bound 2: single proc needs speed ≥ 7 → mode 2 (64); two
        // procs can run at 6 (36 + 36 = 72) or mixed; best single = 64.
        let t = energy_under_period(&ctx, 2.0, 3);
        assert!((t.energy_exact_k()[0] - 64.0).abs() < 1e-12);
        assert!(t.energy_best() <= 64.0);
    }

    #[test]
    fn energy_exact_k_infeasible_marked() {
        let a = app();
        let speeds = [1.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        // Period 1 with speed 1: stage 1 alone costs 2/1 = 2 > 1 → infeasible
        // at any k.
        let t = energy_under_period(&ctx, 1.0, 4);
        assert!(t.energy_exact_k().iter().all(|e| e.is_infinite()));
        assert!(t.energy_partition_best().is_none());
        assert!(t.energy_partition_exact(2).is_none());
    }

    #[test]
    fn energy_static_cost_discourages_splitting() {
        let a = app();
        let speeds = [1.0, 2.0, 4.0];
        let mut ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        ctx.e_stat = 100.0;
        let with_static = energy_under_period(&ctx, 4.0, 4);
        // Splitting pays +100 per extra processor; best should use 1 proc.
        let best_k = (1..=4)
            .min_by(|&x, &y| {
                with_static.energy_exact_k()[x - 1]
                    .partial_cmp(&with_static.energy_exact_k()[y - 1])
                    .unwrap()
            })
            .unwrap();
        assert_eq!(best_k, 1);
    }

    #[test]
    fn candidate_set_contains_optimum() {
        let a = app();
        let speeds = [2.0, 8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::NoOverlap);
        let cands = ctx.period_candidates();
        for q in 1..=3 {
            let t = period_table(&ctx, q).best_row()[q - 1];
            assert!(
                cands.iter().any(|c| (c - t).abs() < 1e-9),
                "optimum {t} missing from candidates"
            );
        }
    }

    #[test]
    fn cost_table_matches_ctx() {
        let a = app();
        let speeds = [1.0, 6.0, 8.0];
        for model in CommModel::ALL {
            let mut ctx = HomCtx::new(&a, &speeds, 2.0, model);
            ctx.e_stat = 1.5;
            let table = IntervalCostTable::build(&ctx);
            for lo in 0..a.n() {
                for hi in lo..a.n() {
                    for (m, &s) in speeds.iter().enumerate() {
                        assert_eq!(table.cycle(lo, hi, m), ctx.cycle(lo, hi, s));
                    }
                    assert_eq!(table.top_cycle(lo, hi), ctx.cycle(lo, hi, 8.0));
                    assert_eq!(table.latency_term_top(lo, hi), ctx.latency_term(lo, hi, 8.0));
                    assert_eq!(
                        table.top_compute(lo, hi),
                        a.interval_work(lo, hi) / 8.0,
                        "compute lower bound [{lo},{hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn binary_search_mode_matches_linear_scan() {
        let a = app();
        let speeds = [1.0, 2.0, 3.0, 6.0, 8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::NoOverlap);
        for lo in 0..a.n() {
            for hi in lo..a.n() {
                for tb_tenths in 1..200 {
                    let tb = tb_tenths as f64 / 10.0;
                    let linear = speeds
                        .iter()
                        .enumerate()
                        .find(|&(_, &s)| num::le(ctx.cycle(lo, hi, s), tb))
                        .map(|(m, &s)| (m, ctx.e_stat + ctx.energy.dynamic(s)));
                    assert_eq!(ctx.cheapest_feasible_mode(lo, hi, tb), linear);
                }
            }
        }
    }

    #[test]
    fn mode_frontier_walk_matches_binary_search_in_any_order() {
        // One scratch reused across ascending, descending and zig-zag
        // threshold orders must produce the same cost1 values as fresh
        // partition-point searches (the incremental-table contract).
        let a = app();
        let speeds = [1.0, 2.0, 3.0, 6.0, 8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::NoOverlap);
        let table = IntervalCostTable::build(&ctx);
        let mut scratch = DpScratch::new();
        let order = [5.0, 0.5, 14.0, 1.0, 2.0, 2.0, 13.9, 0.1, 7.0];
        for &tb in &order {
            energy_dp(&table, tb, 4, &mut scratch);
            let mut fresh = DpScratch::new();
            energy_dp(&table, tb, 4, &mut fresh);
            assert_eq!(scratch.energy_exact_k(), fresh.energy_exact_k(), "threshold {tb}");
            assert_eq!(
                scratch.energy_partition_best(),
                fresh.energy_partition_best(),
                "threshold {tb}"
            );
        }
    }

    #[test]
    fn wrappers_match_the_cores() {
        let a = app();
        let speeds = [1.0, 6.0, 8.0];
        for model in CommModel::ALL {
            let mut ctx = HomCtx::new(&a, &speeds, 1.0, model);
            ctx.e_stat = 0.5;
            let table = IntervalCostTable::build(&ctx);
            let cands = table.candidates();
            assert_eq!(cands, ctx.period_candidates());
            let mut core = DpScratch::new();
            for tb in [0.5, 1.0, 2.0, 4.0, 14.0] {
                for q in 1..=4 {
                    let e_direct = energy_under_period(&ctx, tb, q);
                    energy_dp(&table, tb, q, &mut core);
                    assert_eq!(e_direct.energy_exact_k(), core.energy_exact_k());
                    assert_eq!(e_direct.energy_best(), core.energy_best());
                    assert_eq!(e_direct.energy_partition_best(), core.energy_partition_best());
                    let l_direct = latency_under_period(&ctx, tb, q);
                    latency_dp(&table, tb, q, &mut core);
                    assert_eq!(l_direct.best_row(), core.best_row());
                    assert_eq!(l_direct.latency_partition(q, 2), core.latency_partition(q, 2));
                    // The dual search meets the latency reached under `tb`
                    // at a period no larger than `tb`.
                    let l = core.best_row()[q - 1];
                    if l.is_finite() {
                        let t = min_period_under_latency_probe(&table, &cands, l, q, &mut core)
                            .expect("the latency reached under tb is reachable");
                        assert!(t <= tb, "{t} > {tb}");
                        latency_dp(&table, t, q, &mut core);
                        assert!(num::le(core.best_row()[q - 1], l));
                    }
                }
            }
        }
    }

    #[test]
    fn partitions_cover_the_chain() {
        let a = app();
        let speeds = [1.0, 8.0];
        let ctx = HomCtx::new(&a, &speeds, 1.0, CommModel::Overlap);
        for q in 1..=4 {
            let t = period_table(&ctx, q);
            let part = t.period_partition(q, 1).unwrap();
            assert_eq!(part.intervals[0].0, 0);
            assert_eq!(part.intervals.last().unwrap().1, a.n() - 1);
            for w in part.intervals.windows(2) {
                assert_eq!(w[1].0, w[0].1 + 1);
            }
        }
    }
}
