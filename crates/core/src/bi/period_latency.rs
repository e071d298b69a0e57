//! Theorems 15 and 16 — bi-criteria period/latency on fully homogeneous
//! platforms, interval mappings.
//!
//! The single-application engine is the `(L, T)(i, q)` dynamic program of
//! Theorem 15 ([`crate::dp::latency_dp`]) and its binary-search dual
//! ([`crate::dp::min_period_under_latency_probe`]). Theorem 16 lifts both to
//! several concurrent applications with Algorithm 2, since the optimal
//! latency (resp. period) of one application is non-increasing in its
//! processor count. Both cores take the processor count to allocate, so
//! Theorem 24 ([`crate::tri::unimodal`]) runs them with its energy-budget
//! cap in place of `p`.

use crate::alloc::allocate_processors;
use crate::dp::{
    latency_dp, min_period_under_latency_probe, DpScratch, DpWorkspace, IntervalCostTable,
};
use crate::mono::period_interval::mapping_from_partitions;
use crate::solution::Solution;
use cpo_model::prelude::*;

/// Theorem 16 (first variant): minimize the global weighted latency
/// `max_a W_a·L_a` under per-application period bounds `T_a ≤ period_bounds[a]`,
/// interval mapping, fully homogeneous platform. Returns `None` when the
/// platform class is wrong, `p < A`, or the bounds are unachievable.
pub fn min_latency_under_period_fully_hom(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    period_bounds: &[f64],
) -> Option<Solution> {
    let tables = crate::bi::interval_cost_tables(apps, platform, model)?;
    min_latency_under_period_scratch(
        apps,
        platform,
        &tables,
        period_bounds,
        platform.p(),
        &mut DpWorkspace::new(),
    )
}

/// [`min_latency_under_period_fully_hom`] over the first `procs` processors
/// of `platform`, on prebuilt per-application [`IntervalCostTable`]s and a
/// reusable [`DpWorkspace`] — the per-candidate form of a Pareto sweep
/// (per-application Theorem 15 tables live in flat arenas reused across
/// candidates).
pub(crate) fn min_latency_under_period_scratch(
    apps: &AppSet,
    platform: &Platform,
    tables: &[IntervalCostTable],
    period_bounds: &[f64],
    procs: usize,
    workspace: &mut DpWorkspace,
) -> Option<Solution> {
    assert_eq!(period_bounds.len(), apps.a(), "one period bound per application");
    let a_count = apps.a();
    if procs < a_count {
        return None;
    }
    let qmax = procs - a_count + 1;
    // Per-application latency tables under their own bound, in persistent
    // scratch arenas.
    for (a, (table, &tb)) in tables.iter().zip(period_bounds).enumerate() {
        latency_dp(table, tb, qmax, workspace.app_scratch(a));
    }
    let per_app = &workspace.per_app;
    let weights: Vec<f64> = apps.apps.iter().map(|a| a.weight).collect();
    let alloc =
        allocate_processors(a_count, procs, &weights, |a, q| per_app[a].best_row()[q - 1])?;
    if !alloc.objective.is_finite() {
        return None;
    }
    let partitions: Vec<_> = (0..a_count)
        .map(|a| {
            let top = tables[a].modes() - 1;
            per_app[a].latency_partition(alloc.procs[a], top).expect("finite objective")
        })
        .collect();
    let mapping = mapping_from_partitions(&partitions);
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let achieved = Evaluator::new(apps, platform).latency(&mapping);
    Some(Solution::new(mapping, achieved))
}

/// Theorem 16 (second variant): minimize the global weighted period
/// `max_a W_a·T_a` under per-application latency bounds, interval mapping,
/// fully homogeneous platform.
pub fn min_period_under_latency_fully_hom(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    latency_bounds: &[f64],
) -> Option<Solution> {
    min_period_under_latency_on(apps, platform, model, latency_bounds, platform.p())
}

/// [`min_period_under_latency_fully_hom`] over the first `procs`
/// processors of `platform`.
pub(crate) fn min_period_under_latency_on(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    latency_bounds: &[f64],
    procs: usize,
) -> Option<Solution> {
    assert_eq!(latency_bounds.len(), apps.a(), "one latency bound per application");
    let tables = crate::bi::interval_cost_tables(apps, platform, model)?;
    let a_count = apps.a();
    let weights: Vec<f64> = apps.apps.iter().map(|a| a.weight).collect();
    // Candidate-period sets built once per application, reused by every
    // (latency bound, processor count) probe of the allocation; all probes
    // share one scratch.
    let candidates: Vec<Vec<f64>> = tables.iter().map(|t| t.candidates()).collect();
    let mut scratch = DpScratch::new();
    let probe = |a: usize, q: usize, scratch: &mut DpScratch| {
        min_period_under_latency_probe(&tables[a], &candidates[a], latency_bounds[a], q, scratch)
    };
    let alloc = allocate_processors(a_count, procs, &weights, |a, q| {
        probe(a, q, &mut scratch).unwrap_or(f64::INFINITY)
    })?;
    if !alloc.objective.is_finite() {
        return None;
    }
    // Re-solve each application at its allocated count and found period to
    // read its partition.
    let partitions: Vec<_> = (0..a_count)
        .map(|a| {
            let q = alloc.procs[a];
            let t = probe(a, q, &mut scratch).expect("finite objective");
            latency_dp(&tables[a], t, q, &mut scratch);
            scratch.latency_partition(q, tables[a].modes() - 1).expect("finite objective")
        })
        .collect();
    let mapping = mapping_from_partitions(&partitions);
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let achieved = Evaluator::new(apps, platform).period(&mapping, model);
    Some(Solution::new(mapping, achieved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::application::Application;

    fn apps() -> AppSet {
        AppSet::new(vec![
            Application::from_pairs(1.0, &[(4.0, 2.0), (4.0, 2.0), (4.0, 1.0)]),
            Application::from_pairs(1.0, &[(6.0, 1.0), (6.0, 1.0)]),
        ])
        .unwrap()
    }

    #[test]
    fn loose_period_bound_recovers_min_latency() {
        let apps = apps();
        let pf = Platform::fully_homogeneous(4, vec![2.0], 1.0).unwrap();
        let sol = min_latency_under_period_fully_hom(
            &apps,
            &pf,
            CommModel::Overlap,
            &[1e9, 1e9],
        )
        .unwrap();
        // Without period pressure, each app sits on one processor:
        // L0 = 1/1 + 12/2 + 1/1 = 8; L1 = 1/1 + 12/2 + 1/1 = 8.
        assert!((sol.objective - 8.0).abs() < 1e-9);
    }

    #[test]
    fn tight_period_bound_forces_splits_and_latency_grows() {
        let apps = apps();
        let pf = Platform::fully_homogeneous(5, vec![2.0], 1.0).unwrap();
        let loose =
            min_latency_under_period_fully_hom(&apps, &pf, CommModel::Overlap, &[1e9, 1e9])
                .unwrap();
        let tight =
            min_latency_under_period_fully_hom(&apps, &pf, CommModel::Overlap, &[2.0, 3.0])
                .unwrap();
        assert!(tight.objective >= loose.objective - 1e-9);
        // Verify the bounds are honored.
        let ev = Evaluator::new(&apps, &pf);
        assert!(ev.app_period(&tight.mapping, 0, CommModel::Overlap) <= 2.0 + 1e-9);
        assert!(ev.app_period(&tight.mapping, 1, CommModel::Overlap) <= 3.0 + 1e-9);
    }

    #[test]
    fn infeasible_period_bound_returns_none() {
        let apps = apps();
        let pf = Platform::fully_homogeneous(4, vec![2.0], 1.0).unwrap();
        assert!(min_latency_under_period_fully_hom(
            &apps,
            &pf,
            CommModel::Overlap,
            &[0.1, 0.1]
        )
        .is_none());
    }

    #[test]
    fn dual_period_under_latency() {
        let apps = apps();
        let pf = Platform::fully_homogeneous(5, vec![2.0], 1.0).unwrap();
        // Unbounded latency → unconstrained optimal period.
        let sol = min_period_under_latency_fully_hom(
            &apps,
            &pf,
            CommModel::Overlap,
            &[1e9, 1e9],
        )
        .unwrap();
        let unconstrained =
            crate::mono::period_interval::minimize_global_period(&apps, &pf, CommModel::Overlap)
                .unwrap();
        assert!((sol.objective - unconstrained.objective).abs() < 1e-9);
        // Tight latency bounds force single intervals: period = whole-chain
        // cycle.
        let sol =
            min_period_under_latency_fully_hom(&apps, &pf, CommModel::Overlap, &[8.0, 8.0])
                .unwrap();
        let ev = Evaluator::new(&apps, &pf);
        assert!(ev.app_latency(&sol.mapping, 0) <= 8.0 + 1e-9);
        assert!(ev.app_latency(&sol.mapping, 1) <= 8.0 + 1e-9);
        // Impossible latency.
        assert!(min_period_under_latency_fully_hom(
            &apps,
            &pf,
            CommModel::Overlap,
            &[0.5, 0.5]
        )
        .is_none());
    }

    #[test]
    fn latency_period_tradeoff_is_monotone() {
        let apps = apps();
        let pf = Platform::fully_homogeneous(5, vec![2.0], 1.0).unwrap();
        let mut last_latency = 0.0;
        for tb in [10.0, 5.0, 4.0, 3.0] {
            if let Some(sol) = min_latency_under_period_fully_hom(
                &apps,
                &pf,
                CommModel::Overlap,
                &[tb, tb],
            ) {
                assert!(
                    sol.objective >= last_latency - 1e-9,
                    "tighter period bound should not reduce latency"
                );
                last_latency = sol.objective;
            }
        }
    }

    #[test]
    fn wrong_platform_class_rejected() {
        let apps = apps();
        let pf = Platform::comm_homogeneous(
            vec![
                cpo_model::platform::Processor::uni_modal(1.0).unwrap(),
                cpo_model::platform::Processor::uni_modal(2.0).unwrap(),
            ],
            1.0,
        )
        .unwrap();
        assert!(
            min_latency_under_period_fully_hom(&apps, &pf, CommModel::Overlap, &[9.0, 9.0])
                .is_none()
        );
        assert!(
            min_period_under_latency_fully_hom(&apps, &pf, CommModel::Overlap, &[9.0, 9.0])
                .is_none()
        );
    }
}
