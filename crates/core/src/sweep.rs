//! The Pareto sweep engine: pruned, parallel threshold sweeps.
//!
//! Every trade-off front in this crate has the same shape: a finite,
//! sorted candidate set of thresholds `t₁ < t₂ < … < t_C`; a deterministic
//! per-candidate solver whose optimal objective is **non-increasing** in
//! the threshold (looser bound ⇒ larger feasible set ⇒ no worse optimum);
//! and a dominance filter that keeps a candidate exactly when its objective
//! strictly improves on the last kept point. The naive sweep solves all
//! `C` candidates; this engine layers two optimizations on top without
//! changing the result by a single bit:
//!
//! 1. **Monotonicity pruning** — divide-and-conquer over the candidate
//!    indices: solve the two endpoints of a range, and recurse into the
//!    interior only when their objectives differ. When they are equal
//!    (bitwise, including both-infeasible), monotonicity pins every
//!    interior objective to the same value, and a pinned candidate can
//!    never pass the strict-improvement filter — whether the left endpoint
//!    was kept (equal, not better) or skipped (the filter state did not
//!    change since). `O(C)` solves become `O(F·log C)` for `F` distinct
//!    front values.
//! 2. **Parallel fan-out** — each divide-and-conquer wave solves its batch
//!    of midpoints concurrently on scoped threads. Results are merged by
//!    candidate index and the next wave is derived from the merged state,
//!    so the set of solved candidates — and therefore the front — is
//!    independent of thread count and scheduling.
//!
//! Solvers plug in via [`CandidateSolver`], which also owns a per-thread
//! [`CandidateSolver::State`] so expensive scratch structures (the flat
//! `dp::DpWorkspace` DP arenas with their sweep-wide incremental mode
//! frontiers, Hungarian workspaces, flat cost matrices) are reused across
//! the candidates of a batch instead of reallocated per solve.

use crate::solution::Solution;
use cpo_model::num;

/// Configuration of a sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Maximum worker threads for a batch of candidate solves. `1` keeps
    /// everything on the calling thread. The front is identical for every
    /// value.
    pub threads: usize,
    /// Enable monotonicity pruning. Disabling it recovers the naive
    /// solve-every-candidate sweep (useful as an oracle and a baseline).
    pub prune: bool,
}

impl Default for Sweep {
    /// Pruning on, one thread per available core.
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Sweep { threads, prune: true }
    }
}

impl Sweep {
    /// Pruned but single-threaded.
    pub fn serial() -> Self {
        Sweep { threads: 1, prune: true }
    }

    /// The naive full sweep: no pruning, single-threaded. Solves every
    /// candidate — the oracle the optimized sweep is tested against.
    pub fn exhaustive() -> Self {
        Sweep { threads: 1, prune: false }
    }

    /// Pruned sweep with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        Sweep { threads: threads.max(1), prune: true }
    }
}

/// A solved candidate and, once kept by the dominance filter, a point of
/// the swept front: the achieved primary criterion (e.g. the actual period
/// of the produced mapping), the minimized objective (e.g. energy) and the
/// witness solution.
#[derive(Debug, Clone)]
pub struct FrontPoint {
    /// Achieved primary criterion of the witness mapping.
    pub achieved: f64,
    /// Minimized objective value; must be non-increasing in the threshold.
    pub objective: f64,
    /// The witness mapping.
    pub solution: Solution,
}

/// A deterministic per-candidate solver with reusable per-thread state.
///
/// Contract required for the engine to reproduce the naive sweep exactly:
/// `solve` must be a pure function of the threshold (the state only caches
/// allocations), and its objective must be non-increasing in the threshold
/// with infeasibility (`None`) monotone too — once feasible, always
/// feasible for larger thresholds.
pub trait CandidateSolver: Sync {
    /// Reusable scratch state, created once per worker thread.
    type State: Send;

    /// Fresh scratch state.
    fn make_state(&self) -> Self::State;

    /// Solve one candidate threshold; `None` when infeasible.
    fn solve(&self, state: &mut Self::State, threshold: f64) -> Option<FrontPoint>;
}

/// Sweep the front over the sorted candidate thresholds. See the module
/// docs for the guarantees.
pub fn sweep_front<S: CandidateSolver>(
    candidates: &[f64],
    solver: &S,
    cfg: &Sweep,
) -> Vec<FrontPoint> {
    let c = candidates.len();
    // solved[i]: None = never solved; Some(None) = solved, infeasible;
    // Some(Some(s)) = solved, feasible.
    let mut solved: Vec<Option<Option<FrontPoint>>> = vec![None; c];

    if c > 0 {
        if cfg.prune {
            // Seed the divide-and-conquer with both endpoints.
            let seed: Vec<usize> = if c == 1 { vec![0] } else { vec![0, c - 1] };
            solve_batch(&seed, candidates, solver, cfg.threads, &mut solved);
            let mut ranges = vec![(0usize, c - 1)];
            while !ranges.is_empty() {
                let mut mids = Vec::new();
                let mut next = Vec::new();
                for (i, j) in ranges {
                    if j - i <= 1 {
                        continue;
                    }
                    if pinned_equal(&solved[i], &solved[j]) {
                        // Monotone objectives squeezed between two equal
                        // endpoints: every interior candidate is pinned to
                        // the same value and can never be kept.
                        continue;
                    }
                    let mid = i + (j - i) / 2;
                    mids.push(mid);
                    next.push((i, mid));
                    next.push((mid, j));
                }
                solve_batch(&mids, candidates, solver, cfg.threads, &mut solved);
                ranges = next;
            }
        } else {
            let all: Vec<usize> = (0..c).collect();
            solve_batch(&all, candidates, solver, cfg.threads, &mut solved);
        }
    }

    // Dominance filter, identical to the naive ascending scan: keep a
    // solved, feasible candidate exactly when its objective strictly
    // improves on the last kept point.
    let mut points: Vec<FrontPoint> = Vec::new();
    for s in solved.into_iter().flatten().flatten() {
        if points.last().is_none_or(|last| num::lt(s.objective, last.objective)) {
            points.push(s);
        }
    }
    points
}

/// Bitwise objective equality of two solved slots (both-infeasible counts
/// as equal). Intentionally stricter than `num::approx_eq`: pruning on
/// approximate equality could skip a candidate the naive filter keeps.
fn pinned_equal(a: &Option<Option<FrontPoint>>, b: &Option<Option<FrontPoint>>) -> bool {
    match (a.as_ref().expect("endpoint solved"), b.as_ref().expect("endpoint solved")) {
        (None, None) => true,
        (Some(x), Some(y)) => x.objective == y.objective,
        _ => false,
    }
}

/// Solve a batch of candidate indices, fanning chunks across scoped
/// threads; results land in `solved` keyed by index, so the outcome is
/// independent of scheduling.
fn solve_batch<S: CandidateSolver>(
    idxs: &[usize],
    candidates: &[f64],
    solver: &S,
    threads: usize,
    solved: &mut [Option<Option<FrontPoint>>],
) {
    if idxs.is_empty() {
        return;
    }
    let threads = threads.clamp(1, idxs.len());
    if threads == 1 {
        let mut state = solver.make_state();
        for &i in idxs {
            solved[i] = Some(solver.solve(&mut state, candidates[i]));
        }
        return;
    }
    let chunk = idxs.len().div_ceil(threads);
    let results = crossbeam::scope(|scope| {
        let handles: Vec<_> = idxs
            .chunks(chunk)
            .map(|ch| {
                scope.spawn(move |_| {
                    let mut state = solver.make_state();
                    ch.iter()
                        .map(|&i| (i, solver.solve(&mut state, candidates[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("sweep scope");
    for part in results {
        for (i, r) in part {
            solved[i] = Some(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::mapping::Mapping;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Synthetic solver: objective is a non-increasing step function of the
    /// threshold, infeasible below `feasible_from`. Counts its solves.
    struct StepSolver {
        feasible_from: f64,
        steps: Vec<(f64, f64)>, // (threshold >=, objective)
        calls: AtomicUsize,
    }

    impl StepSolver {
        fn new(feasible_from: f64, steps: Vec<(f64, f64)>) -> Self {
            StepSolver { feasible_from, steps, calls: AtomicUsize::new(0) }
        }

        fn objective(&self, t: f64) -> f64 {
            self.steps
                .iter()
                .filter(|&&(from, _)| t >= from)
                .map(|&(_, e)| e)
                .fold(f64::INFINITY, f64::min)
        }
    }

    impl CandidateSolver for StepSolver {
        type State = ();

        fn make_state(&self) {}

        fn solve(&self, _state: &mut (), t: f64) -> Option<FrontPoint> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if t < self.feasible_from {
                return None;
            }
            let objective = self.objective(t);
            Some(FrontPoint { achieved: t, objective, solution: Solution::new(Mapping::new(), objective) })
        }
    }

    fn candidates() -> Vec<f64> {
        (0..1000).map(|i| i as f64 / 10.0).collect()
    }

    fn steps() -> Vec<(f64, f64)> {
        vec![(5.0, 90.0), (13.7, 41.0), (50.0, 12.0), (51.3, 7.0), (99.0, 1.0)]
    }

    /// The step solver achieves exactly its threshold, so `achieved` also
    /// identifies the candidate that produced each point.
    fn front_signature(points: &[FrontPoint]) -> Vec<(u64, u64)> {
        points.iter().map(|p| (p.achieved.to_bits(), p.objective.to_bits())).collect()
    }

    #[test]
    fn pruned_equals_exhaustive_and_solves_fewer() {
        let cands = candidates();
        let naive_solver = StepSolver::new(5.0, steps());
        let naive = sweep_front(&cands, &naive_solver, &Sweep::exhaustive());
        assert_eq!(naive.len(), 5);
        assert_eq!(naive_solver.calls.load(Ordering::Relaxed), cands.len());

        let pruned_solver = StepSolver::new(5.0, steps());
        let pruned = sweep_front(&cands, &pruned_solver, &Sweep::serial());
        assert_eq!(front_signature(&naive), front_signature(&pruned));
        let solves = pruned_solver.calls.load(Ordering::Relaxed);
        assert!(
            solves < cands.len() / 4,
            "pruning should skip most of the {} candidates, solved {}",
            cands.len(),
            solves
        );
    }

    #[test]
    fn thread_count_does_not_change_the_front() {
        let cands = candidates();
        let reference =
            sweep_front(&cands, &StepSolver::new(5.0, steps()), &Sweep::serial());
        for threads in [2, 3, 8] {
            let par = sweep_front(
                &cands,
                &StepSolver::new(5.0, steps()),
                &Sweep::with_threads(threads),
            );
            assert_eq!(front_signature(&reference), front_signature(&par), "{threads} threads");
        }
    }

    #[test]
    fn all_infeasible_yields_empty_front_cheaply() {
        let cands = candidates();
        let solver = StepSolver::new(f64::INFINITY, steps());
        let points = sweep_front(&cands, &solver, &Sweep::serial());
        assert!(points.is_empty());
        // Equal (infeasible) endpoints prune the entire interior.
        assert_eq!(solver.calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn constant_objective_keeps_first_feasible_point_only() {
        let cands = candidates();
        let solver = StepSolver::new(0.0, vec![(0.0, 3.0)]);
        let naive = sweep_front(&cands, &StepSolver::new(0.0, vec![(0.0, 3.0)]), &Sweep::exhaustive());
        let pruned = sweep_front(&cands, &solver, &Sweep::serial());
        assert_eq!(naive.len(), 1);
        assert_eq!(front_signature(&naive), front_signature(&pruned));
        assert_eq!(pruned[0].achieved, 0.0);
    }

    #[test]
    fn empty_and_singleton_candidate_sets() {
        let solver = StepSolver::new(0.0, vec![(0.0, 3.0)]);
        assert!(sweep_front(&[], &solver, &Sweep::default()).is_empty());
        let one = sweep_front(&[7.0], &solver, &Sweep::default());
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].objective, 3.0);
    }
}
