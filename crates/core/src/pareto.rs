//! Period/energy and period/latency trade-off fronts.
//!
//! The paper motivates its threshold approach with the "laptop" and
//! "server" questions; sweeping the threshold yields the full Pareto
//! front of the bi-criteria problems. The sweep runs the polynomial
//! solvers of Theorems 16/18/19/21 on every candidate period (a finite
//! set) and discards dominated points — through the pruned, parallel
//! [`crate::sweep`] engine, with all per-instance constants hoisted into
//! shared cost tables ([`IntervalCostTable`], [`StageCostTable`]) built
//! once per sweep.

use crate::bi::interval_cost_tables;
use crate::bi::period_energy::{
    min_energy_interval_scratch, min_energy_one_to_one_with_table, StageCostTable,
};
use crate::bi::period_latency::min_latency_under_period_scratch;
use crate::dp::{DpWorkspace, IntervalCostTable};
use crate::solution::{MappingKind, Solution};
use crate::sweep::{sweep_front, CandidateSolver, FrontPoint, Sweep};
use cpo_matching::{CostMatrix, HungarianWorkspace};
use cpo_model::num;
use cpo_model::prelude::*;

/// Candidate *global weighted* period values for the given mapping kind:
/// all `W_a ×` interval (or stage) cycle-times at every available speed,
/// drawn from the same shared cost tables the per-candidate solvers read
/// (so candidate enumeration and solving cannot drift apart). Empty when
/// the platform class does not fit the kind's polynomial solver.
pub fn period_candidates(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    kind: MappingKind,
) -> Vec<f64> {
    match kind {
        MappingKind::Interval => match interval_cost_tables(apps, platform, model) {
            Some(tables) => interval_candidates(&tables, false),
            None => Vec::new(),
        },
        MappingKind::OneToOne => match StageCostTable::build(apps, platform, model) {
            Some(table) => table.candidates(),
            None => Vec::new(),
        },
    }
}

fn interval_candidates(tables: &[IntervalCostTable], top_only: bool) -> Vec<f64> {
    let mut out = Vec::new();
    for table in tables {
        table.push_weighted_candidates(table.weight, top_only, &mut out);
    }
    num::sorted_candidates(out)
}

/// Sweep the period/energy Pareto front with the polynomial solvers:
/// interval mappings use the Theorem 18/21 dynamic program (fully
/// homogeneous platforms), one-to-one mappings use the Theorem 19 matching
/// (communication homogeneous platforms). Returns the non-dominated points
/// sorted by increasing period: `achieved` is the period of the witness
/// mapping, `objective` its (minimum) energy.
///
/// The produced front is identical for every [`Sweep`] configuration —
/// including [`Sweep::exhaustive`], the naive solve-every-candidate
/// baseline; [`Sweep::default`] prunes and runs one thread per core.
pub fn period_energy_front(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    kind: MappingKind,
    sweep: &Sweep,
) -> Vec<FrontPoint> {
    match kind {
        MappingKind::Interval => {
            let Some(tables) = interval_cost_tables(apps, platform, model) else {
                return Vec::new();
            };
            let candidates = interval_candidates(&tables, false);
            let solver = IntervalEnergySolver { apps, platform, model, tables };
            sweep_front(&candidates, &solver, sweep)
        }
        MappingKind::OneToOne => {
            let Some(table) = StageCostTable::build(apps, platform, model) else {
                return Vec::new();
            };
            let candidates = table.candidates();
            let solver = MatchingEnergySolver { apps, platform, model, table };
            sweep_front(&candidates, &solver, sweep)
        }
    }
}

/// Sweep the period/latency Pareto front on a fully homogeneous platform
/// (interval mappings, Theorem 16 under every candidate period bound).
/// Returns the non-dominated points sorted by increasing period:
/// `achieved` is the period of the witness mapping, `objective` its
/// (minimum) global weighted latency. Identical for every [`Sweep`].
pub fn period_latency_front(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    sweep: &Sweep,
) -> Vec<FrontPoint> {
    let Some(tables) = interval_cost_tables(apps, platform, model) else {
        return Vec::new();
    };
    // The latency solvers never downclock, so only top-mode cycle-times
    // are achievable periods.
    let candidates = interval_candidates(&tables, true);
    let solver = IntervalLatencySolver { apps, platform, model, tables };
    sweep_front(&candidates, &solver, sweep)
}

/// Fill the per-application bounds into a reusable buffer: global weighted
/// period ≤ t means `T_a ≤ t / W_a`.
fn fill_bounds(apps: &AppSet, t: f64, bounds: &mut Vec<f64>) {
    bounds.clear();
    bounds.extend(apps.apps.iter().map(|a| t / a.weight));
}

/// The front point of a witness solution: its achieved period beside the
/// objective the solver minimized.
fn point(apps: &AppSet, platform: &Platform, model: CommModel, sol: Solution) -> FrontPoint {
    let achieved = Evaluator::new(apps, platform).period(&sol.mapping, model);
    FrontPoint { achieved, objective: sol.objective, solution: sol }
}

struct IntervalEnergySolver<'a> {
    apps: &'a AppSet,
    platform: &'a Platform,
    model: CommModel,
    tables: Vec<IntervalCostTable>,
}

impl CandidateSolver for IntervalEnergySolver<'_> {
    type State = (DpWorkspace, Vec<f64>);

    fn make_state(&self) -> Self::State {
        (DpWorkspace::new(), Vec::new())
    }

    fn solve(&self, state: &mut Self::State, t: f64) -> Option<FrontPoint> {
        let (ws, bounds) = state;
        fill_bounds(self.apps, t, bounds);
        let sol =
            min_energy_interval_scratch(self.apps, self.platform, &self.tables, bounds, ws)?;
        Some(point(self.apps, self.platform, self.model, sol))
    }
}

struct MatchingEnergySolver<'a> {
    apps: &'a AppSet,
    platform: &'a Platform,
    model: CommModel,
    table: StageCostTable,
}

impl CandidateSolver for MatchingEnergySolver<'_> {
    type State = (HungarianWorkspace, CostMatrix, Vec<f64>);

    fn make_state(&self) -> Self::State {
        (HungarianWorkspace::new(), CostMatrix::new(), Vec::new())
    }

    fn solve(&self, state: &mut Self::State, t: f64) -> Option<FrontPoint> {
        let (workspace, matrix, bounds) = state;
        fill_bounds(self.apps, t, bounds);
        let sol = min_energy_one_to_one_with_table(
            self.apps, self.platform, &self.table, bounds, workspace, matrix,
        )?;
        Some(point(self.apps, self.platform, self.model, sol))
    }
}

struct IntervalLatencySolver<'a> {
    apps: &'a AppSet,
    platform: &'a Platform,
    model: CommModel,
    tables: Vec<IntervalCostTable>,
}

impl CandidateSolver for IntervalLatencySolver<'_> {
    type State = (DpWorkspace, Vec<f64>);

    fn make_state(&self) -> Self::State {
        (DpWorkspace::new(), Vec::new())
    }

    fn solve(&self, state: &mut Self::State, t: f64) -> Option<FrontPoint> {
        let (ws, bounds) = state;
        fill_bounds(self.apps, t, bounds);
        let sol = min_latency_under_period_scratch(
            self.apps,
            self.platform,
            &self.tables,
            bounds,
            self.platform.p(),
            ws,
        )?;
        Some(point(self.apps, self.platform, self.model, sol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::generator::section2_example;

    #[test]
    fn front_is_monotone_and_anchored() {
        // Homogenized Section 2 platform so the interval DP applies.
        let (apps, _) = section2_example();
        let pf = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
        let front = period_energy_front(&apps, &pf, CommModel::Overlap, MappingKind::Interval, &Sweep::default());
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].achieved <= w[1].achieved + 1e-9, "periods ascending");
            assert!(w[0].objective > w[1].objective - 1e-9, "energy descending");
        }
        // The loosest point is the global minimum energy: both apps on one
        // processor each at speed 1 → 1 + 1 = 2.
        let last = front.last().unwrap();
        assert!((last.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn one_to_one_front_works_on_comm_hom() {
        let (apps, pf) = section2_example();
        // Section 2 has 7 stages and 3 processors: extend to 7 procs.
        let mut procs = pf.procs.clone();
        for _ in 0..4 {
            procs.push(cpo_model::platform::Processor::new(vec![2.0, 5.0]).unwrap());
        }
        let pf = Platform::comm_homogeneous(procs, 1.0).unwrap();
        let front = period_energy_front(&apps, &pf, CommModel::Overlap, MappingKind::OneToOne, &Sweep::default());
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].objective > w[1].objective - 1e-9);
        }
        // Every point's mapping is valid and one-to-one.
        for pt in &front {
            pt.solution.mapping.validate(&apps, &pf).unwrap();
            assert!(pt.solution.mapping.is_one_to_one());
        }
    }

    #[test]
    fn achieved_period_never_exceeds_threshold_point() {
        let (apps, _) = section2_example();
        let pf = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0], 1.0).unwrap();
        let front = period_energy_front(&apps, &pf, CommModel::Overlap, MappingKind::Interval, &Sweep::default());
        let ev = Evaluator::new(&apps, &pf);
        for pt in &front {
            let t = ev.period(&pt.solution.mapping, CommModel::Overlap);
            assert!((t - pt.achieved).abs() < 1e-9);
        }
    }

    #[test]
    fn wrong_platform_class_yields_empty_front() {
        let (apps, pf) = section2_example();
        // Section 2's platform is only comm homogeneous: no interval front.
        assert!(period_energy_front(&apps, &pf, CommModel::Overlap, MappingKind::Interval, &Sweep::default())
            .is_empty());
        assert!(period_latency_front(&apps, &pf, CommModel::Overlap, &Sweep::default()).is_empty());
        // And with p < N (3 < 7), no one-to-one front either.
        assert!(period_energy_front(&apps, &pf, CommModel::Overlap, MappingKind::OneToOne, &Sweep::default())
            .is_empty());
    }

    #[test]
    fn period_latency_front_is_monotone_and_valid() {
        let (apps, _) = section2_example();
        let pf = Platform::fully_homogeneous(4, vec![2.0, 6.0], 1.0).unwrap();
        let front = period_latency_front(&apps, &pf, CommModel::Overlap, &Sweep::default());
        assert!(!front.is_empty());
        let ev = Evaluator::new(&apps, &pf);
        for w in front.windows(2) {
            assert!(w[0].achieved <= w[1].achieved + 1e-9, "periods ascending");
            assert!(w[0].objective > w[1].objective - 1e-9, "latency descending");
        }
        for pt in &front {
            pt.solution.mapping.validate(&apps, &pf).unwrap();
            assert!((ev.latency(&pt.solution.mapping) - pt.objective).abs() < 1e-9);
            assert!((ev.period(&pt.solution.mapping, CommModel::Overlap) - pt.achieved).abs() < 1e-9);
        }
    }

    #[test]
    fn candidate_lists_cannot_drift_from_hom_ctx() {
        // Satellite guarantee: pareto candidates and HomCtx candidates are
        // both views of the same IntervalCostTable values.
        let (apps, _) = section2_example();
        let pf = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0], 2.0).unwrap();
        let global = period_candidates(&apps, &pf, CommModel::Overlap, MappingKind::Interval);
        let tables = interval_cost_tables(&apps, &pf, CommModel::Overlap).unwrap();
        for (app, table) in apps.apps.iter().zip(&tables) {
            let speeds = pf.procs[0].speeds().to_vec();
            let ctx = crate::dp::HomCtx::new(app, &speeds, 2.0, CommModel::Overlap);
            assert_eq!(table.candidates(), ctx.period_candidates());
            // Every weighted per-app candidate appears in the global list
            // (weights are 1 in the Section 2 example).
            for c in table.candidates() {
                assert!(
                    global.contains(&(app.weight * c)),
                    "candidate {c} missing from the global list"
                );
            }
        }
    }
}
