//! Theorem 3 — period minimization, interval mappings, fully homogeneous
//! platforms.
//!
//! The single-application subproblem (minimum period of one chain over `q`
//! identical processors) is the dynamic program of [`crate::dp::period_dp`];
//! the paper's **Algorithm 2** then distributes the `p` processors across
//! the `A` concurrent applications greedily — provably optimally, because
//! each application's optimal period is non-increasing in its processor
//! count.

use crate::alloc::allocate_processors;
use crate::dp::{period_dp, DpWorkspace, IntervalCostTable};
use crate::solution::Solution;
use cpo_model::num;
use cpo_model::prelude::*;

/// Assemble a global mapping from per-application partitions by assigning
/// distinct concrete processors in index order (valid on fully homogeneous
/// platforms where processors are interchangeable).
pub(crate) fn mapping_from_partitions(
    partitions: &[crate::dp::Partition],
) -> Mapping {
    let mut mapping = Mapping::new();
    let mut next_proc = 0usize;
    for (a, part) in partitions.iter().enumerate() {
        for (iv, &(first, last)) in part.intervals.iter().enumerate() {
            mapping.push(Interval::new(a, first, last), next_proc, part.modes[iv]);
            next_proc += 1;
        }
    }
    mapping
}

/// Minimize the global weighted period `max_a W_a·T_a` with an interval
/// mapping on a fully homogeneous platform (Theorem 3, Algorithm 2).
/// Both communication models. Returns `None` when the platform is not fully
/// homogeneous or `p < A`.
pub fn minimize_global_period(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
) -> Option<Solution> {
    let p = platform.p();
    let a_count = apps.a();

    // Per-application period DPs, solved once up to the maximum number of
    // processors any application could receive, one scratch per
    // application so the partitions stay readable after the allocation.
    // Each cost table is dropped as soon as its DP has run.
    let qmax = (p + 1).saturating_sub(a_count);
    let mut workspace = DpWorkspace::new();
    let top_modes = crate::bi::cost_tables(apps, platform, model, |a, ctx| {
        period_dp(&IntervalCostTable::build(ctx), qmax, workspace.app_scratch(a));
        ctx.speeds.len() - 1
    })?;
    let per_app = &workspace.per_app;
    let weights: Vec<f64> = apps.apps.iter().map(|a| a.weight).collect();

    let alloc = allocate_processors(a_count, p, &weights, |a, q| per_app[a].best_row()[q - 1])?;

    let partitions: Vec<_> = (0..a_count)
        .map(|a| per_app[a].period_partition(alloc.procs[a], top_modes[a]).ok())
        .collect::<Option<Vec<_>>>()?;
    let mapping = mapping_from_partitions(&partitions);
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let achieved = Evaluator::new(apps, platform).period(&mapping, model);
    debug_assert!(num::le(achieved, alloc.objective));
    Some(Solution::new(mapping, achieved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::application::Application;

    fn two_apps() -> AppSet {
        AppSet::new(vec![
            Application::from_pairs(0.0, &[(4.0, 0.0), (4.0, 0.0), (4.0, 0.0)]),
            Application::from_pairs(0.0, &[(6.0, 0.0), (6.0, 0.0)]),
        ])
        .unwrap()
    }

    #[test]
    fn allocates_where_it_hurts() {
        let apps = two_apps();
        // 4 identical unit-speed processors, no communication.
        let pf = Platform::fully_homogeneous(4, vec![1.0], 1.0).unwrap();
        let sol = minimize_global_period(&apps, &pf, CommModel::Overlap).unwrap();
        // App0 (total 12) with 2 procs → 8 is wrong: optimal splits are
        // app0: [4,4|4] = 8 with 2 procs or [4|4|4] = 4 with 3; app1:
        // [6|6] = 6 with 2, [12] with 1. Best distribution of 4:
        // (2,2) → max(8, 6) = 8; (3,1) → max(4, 12) = 12. So 8.
        assert!((sol.objective - 8.0).abs() < 1e-9);
        sol.mapping.validate(&apps, &pf).unwrap();
    }

    #[test]
    fn more_processors_never_hurt() {
        let apps = two_apps();
        let mut last = f64::INFINITY;
        for p in 2..=6 {
            let pf = Platform::fully_homogeneous(p, vec![1.0], 1.0).unwrap();
            let sol = minimize_global_period(&apps, &pf, CommModel::Overlap).unwrap();
            assert!(sol.objective <= last + 1e-9, "p={p}");
            last = sol.objective;
        }
        // With 5 procs: (3,2) → max(4, 6) = 6.
        let pf = Platform::fully_homogeneous(5, vec![1.0], 1.0).unwrap();
        let sol = minimize_global_period(&apps, &pf, CommModel::Overlap).unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-9);
    }

    #[test]
    fn respects_weights() {
        let mut apps = two_apps();
        apps.apps[1].weight = 10.0;
        let pf = Platform::fully_homogeneous(4, vec![1.0], 1.0).unwrap();
        let sol = minimize_global_period(&apps, &pf, CommModel::Overlap).unwrap();
        // (1,3) is impossible for app1 (2 stages → ≤ 2 procs useful);
        // app1 at 2 procs has T=6 (weighted 60); app0 with 2 procs T=8.
        // Best: app1 gets 2, app0 gets 2 → max(8, 60) = 60.
        assert!((sol.objective - 60.0).abs() < 1e-9);
    }

    #[test]
    fn communication_bound_periods() {
        // A chain with a huge internal edge: splitting there is bad.
        let apps = AppSet::single(Application::from_pairs(1.0, &[(4.0, 100.0), (4.0, 1.0)]));
        let pf = Platform::fully_homogeneous(2, vec![2.0], 1.0).unwrap();
        let sol = minimize_global_period(&apps, &pf, CommModel::Overlap).unwrap();
        // One interval: max(1, 8/2, 1) = 4. Split: max(1, 2, 100) = 100.
        assert!((sol.objective - 4.0).abs() < 1e-9);
        assert_eq!(sol.mapping.enrolled(), 1);
    }

    #[test]
    fn rejects_non_fully_homogeneous() {
        let apps = two_apps();
        let pf = Platform::comm_homogeneous(
            vec![
                cpo_model::platform::Processor::uni_modal(1.0).unwrap(),
                cpo_model::platform::Processor::uni_modal(2.0).unwrap(),
            ],
            1.0,
        )
        .unwrap();
        assert!(minimize_global_period(&apps, &pf, CommModel::Overlap).is_none());
    }

    #[test]
    fn rejects_p_less_than_a() {
        let apps = two_apps();
        let pf = Platform::fully_homogeneous(1, vec![1.0], 1.0).unwrap();
        assert!(minimize_global_period(&apps, &pf, CommModel::Overlap).is_none());
    }

    #[test]
    fn section2_like_homogeneous_variant() {
        // Homogenized Section 2: three procs with speed set {3, 6} (the
        // multi-modal set is fine — period minimization uses the top mode).
        let (apps, _) = cpo_model::generator::section2_example();
        let pf = Platform::fully_homogeneous(3, vec![3.0, 6.0], 1.0).unwrap();
        let sol = minimize_global_period(&apps, &pf, CommModel::Overlap).unwrap();
        sol.mapping.validate(&apps, &pf).unwrap();
        // All enrolled processors run the top mode.
        for (proc, mode) in sol.mapping.enrolled_procs() {
            assert_eq!(mode, pf.procs[proc].modes() - 1);
        }
        assert!(sol.objective > 0.0);
    }
}
