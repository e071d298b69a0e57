//! Theorems 23 and 24 — tri-criteria optimization with **uni-modal**
//! processors on fully homogeneous platforms.
//!
//! With a single mode there is no speed choice: the energy of a mapping is
//! simply `(number of enrolled processors) × (E_stat + s^α)`, so an energy
//! budget translates into a cap on the processor count and every variant
//! reduces to the bi-criteria machinery plus Algorithm 2:
//!
//! * minimize the period under latency bounds and an energy budget — the
//!   Theorem 16 dual on the capped processor count;
//! * minimize the latency under period bounds and an energy budget — the
//!   Theorem 16 solver on the capped processor count;
//! * minimize the energy under period and latency bounds (take, per
//!   application, the fewest processors that satisfy both).

use crate::bi::period_latency::{min_latency_under_period_scratch, min_period_under_latency_on};
use crate::dp::{latency_dp, DpScratch, DpWorkspace, IntervalCostTable};
use crate::mono::period_interval::mapping_from_partitions;
use crate::solution::Solution;
use cpo_model::num;
use cpo_model::prelude::*;

/// Energy of one enrolled processor, `E_stat + s^α`; `None` unless every
/// processor is uni-modal. The fully homogeneous check and the
/// per-application setup are [`crate::bi::interval_cost_tables`]'.
fn energy_per_proc(platform: &Platform) -> Option<f64> {
    if !platform.is_uni_modal() {
        return None;
    }
    let proc = &platform.procs[0];
    Some(proc.e_stat + EnergyModel::default().dynamic(proc.max_speed()))
}

/// Number of processors affordable under `energy_budget`.
fn proc_cap(p: usize, e_per_proc: f64, energy_budget: f64) -> usize {
    if e_per_proc <= 0.0 {
        return p;
    }
    let cap = (energy_budget / e_per_proc + cpo_model::num::EPS).floor();
    if cap < 0.0 {
        0
    } else {
        p.min(cap as usize)
    }
}

/// Theorem 24 (variant 1): minimize the global weighted period under
/// per-application latency bounds and a global energy budget. Interval
/// mapping, fully homogeneous uni-modal platform.
pub fn min_period_tri_unimodal(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    latency_bounds: &[f64],
    energy_budget: f64,
) -> Option<Solution> {
    let e_per_proc = energy_per_proc(platform)?;
    let k = proc_cap(platform.p(), e_per_proc, energy_budget);
    min_period_under_latency_on(apps, platform, model, latency_bounds, k)
}

/// Theorem 24 (variant 2): minimize the global weighted latency under
/// per-application period bounds and a global energy budget.
pub fn min_latency_tri_unimodal(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    period_bounds: &[f64],
    energy_budget: f64,
) -> Option<Solution> {
    let e_per_proc = energy_per_proc(platform)?;
    let k = proc_cap(platform.p(), e_per_proc, energy_budget);
    let tables = crate::bi::interval_cost_tables(apps, platform, model)?;
    let mut workspace = DpWorkspace::new();
    min_latency_under_period_scratch(apps, platform, &tables, period_bounds, k, &mut workspace)
}

/// Theorem 24 (variant 3): minimize the total energy under per-application
/// period **and** latency bounds — i.e. the fewest processors per
/// application that satisfy both, times the per-processor energy.
pub fn min_energy_tri_unimodal(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    period_bounds: &[f64],
    latency_bounds: &[f64],
) -> Option<Solution> {
    assert_eq!(period_bounds.len(), apps.a());
    assert_eq!(latency_bounds.len(), apps.a());
    energy_per_proc(platform)?;
    let p = platform.p();
    let qmax = (p + 1).saturating_sub(apps.a());
    let mut scratch = DpScratch::new();
    // Per application, the fewest processors meeting the latency bound and
    // their partition; each cost table is dropped once its DP has run.
    let picks = crate::bi::cost_tables(apps, platform, model, |a, ctx| {
        let table = IntervalCostTable::build(ctx);
        latency_dp(&table, period_bounds[a], qmax, &mut scratch);
        let q = (1..=qmax).find(|&q| num::le(scratch.best_row()[q - 1], latency_bounds[a]))?;
        Some((q, scratch.latency_partition(q, table.modes() - 1).expect("feasible q")))
    })?;
    let (counts, partitions): (Vec<usize>, Vec<_>) =
        picks.into_iter().collect::<Option<Vec<_>>>()?.into_iter().unzip();
    if counts.iter().sum::<usize>() > p {
        return None;
    }
    let mapping = mapping_from_partitions(&partitions);
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let achieved = Evaluator::new(apps, platform).energy(&mapping);
    Some(Solution::new(mapping, achieved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::application::Application;

    fn apps() -> AppSet {
        AppSet::new(vec![
            Application::from_pairs(1.0, &[(4.0, 1.0), (4.0, 1.0), (4.0, 1.0)]),
            Application::from_pairs(1.0, &[(6.0, 1.0), (6.0, 1.0)]),
        ])
        .unwrap()
    }

    fn platform(p: usize) -> Platform {
        // Uni-modal speed 2, e_stat 1 → per-proc energy 1 + 4 = 5.
        let proc = cpo_model::platform::Processor::uni_modal(2.0)
            .unwrap()
            .with_static_energy(1.0);
        Platform::new(vec![proc; p], cpo_model::platform::Links::Uniform(1.0)).unwrap()
    }

    #[test]
    fn energy_budget_caps_processors() {
        let apps = apps();
        let pf = platform(6);
        // Budget 10 → 2 processors (5 each): one per app, latency unbounded.
        let sol = min_period_tri_unimodal(&apps, &pf, CommModel::Overlap, &[1e9, 1e9], 10.0)
            .unwrap();
        assert_eq!(sol.mapping.enrolled(), 2);
        // Budget 30 → up to 6 procs; period must not be worse.
        let rich = min_period_tri_unimodal(&apps, &pf, CommModel::Overlap, &[1e9, 1e9], 30.0)
            .unwrap();
        assert!(rich.objective <= sol.objective + 1e-9);
        // Budget below 2 procs → infeasible.
        assert!(
            min_period_tri_unimodal(&apps, &pf, CommModel::Overlap, &[1e9, 1e9], 9.0).is_none()
        );
    }

    #[test]
    fn latency_bounds_respected_in_period_variant() {
        let apps = apps();
        let pf = platform(6);
        let sol = min_period_tri_unimodal(&apps, &pf, CommModel::Overlap, &[8.0, 8.0], 30.0)
            .unwrap();
        let ev = Evaluator::new(&apps, &pf);
        assert!(ev.app_latency(&sol.mapping, 0) <= 8.0 + 1e-9);
        assert!(ev.app_latency(&sol.mapping, 1) <= 8.0 + 1e-9);
    }

    #[test]
    fn latency_variant_honors_period_and_budget() {
        let apps = apps();
        let pf = platform(6);
        let sol = min_latency_tri_unimodal(&apps, &pf, CommModel::Overlap, &[3.0, 3.0], 30.0)
            .unwrap();
        let ev = Evaluator::new(&apps, &pf);
        assert!(ev.app_period(&sol.mapping, 0, CommModel::Overlap) <= 3.0 + 1e-9);
        assert!(ev.app_period(&sol.mapping, 1, CommModel::Overlap) <= 3.0 + 1e-9);
        assert!(ev.energy(&sol.mapping) <= 30.0 + 1e-9);
        // Impossible period bound.
        assert!(
            min_latency_tri_unimodal(&apps, &pf, CommModel::Overlap, &[0.2, 0.2], 30.0).is_none()
        );
    }

    #[test]
    fn energy_variant_uses_fewest_processors() {
        let apps = apps();
        let pf = platform(6);
        // Loose bounds: one processor per app → energy 10.
        let sol = min_energy_tri_unimodal(
            &apps,
            &pf,
            CommModel::Overlap,
            &[1e9, 1e9],
            &[1e9, 1e9],
        )
        .unwrap();
        assert!((sol.objective - 10.0).abs() < 1e-9);
        // Tight period bound 3: app0 (12 ops at speed 2 = 6 per proc) needs
        // ≥ 2 procs (e.g. [8/2=4 no… split [4,4|4]: 4 > 3 → needs 3 procs
        // at 2 each: cycle 2); app1 needs 2 (6/2 = 3 each). Energy grows.
        let tight = min_energy_tri_unimodal(
            &apps,
            &pf,
            CommModel::Overlap,
            &[3.0, 3.0],
            &[1e9, 1e9],
        )
        .unwrap();
        assert!(tight.objective > sol.objective);
        let ev = Evaluator::new(&apps, &pf);
        assert!(ev.app_period(&tight.mapping, 0, CommModel::Overlap) <= 3.0 + 1e-9);
    }

    #[test]
    fn energy_variant_infeasible_cases() {
        let apps = apps();
        let pf = platform(2);
        // Period 2 for app0 requires 3 intervals ([4][4][4] at speed 2) but
        // p = 2 → infeasible.
        assert!(min_energy_tri_unimodal(
            &apps,
            &pf,
            CommModel::Overlap,
            &[2.0, 2.0],
            &[1e9, 1e9]
        )
        .is_none());
        // Latency bound below the single-proc latency and period bound loose.
        let pf6 = platform(6);
        assert!(min_energy_tri_unimodal(
            &apps,
            &pf6,
            CommModel::Overlap,
            &[1e9, 1e9],
            &[0.5, 0.5]
        )
        .is_none());
    }

    #[test]
    fn multi_modal_platform_rejected() {
        let apps = apps();
        let pf = Platform::fully_homogeneous(4, vec![1.0, 2.0], 1.0).unwrap();
        assert!(min_period_tri_unimodal(&apps, &pf, CommModel::Overlap, &[1e9, 1e9], 100.0)
            .is_none());
    }

    fn same_solution(x: &Option<Solution>, y: &Option<Solution>) -> bool {
        match (x, y) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.objective.to_bits() == y.objective.to_bits() && x.mapping == y.mapping
            }
            _ => false,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Theorem 24 is Theorem 16 on the processors the energy budget
        /// affords: both tri-criteria variants equal the bi-criteria solvers
        /// run on the platform cut down to `proc_cap` processors — bitwise
        /// objective, identical mapping — under both communication models.
        #[test]
        fn theorem24_is_theorem16_on_the_capped_platform(
            seed in 0u64..100_000,
            procs in 1usize..8,
            cap_tenths in 0u32..90,
        ) {
            use crate::bi::period_latency::{
                min_latency_under_period_fully_hom, min_period_under_latency_fully_hom,
            };
            use cpo_model::generator::{
                random_apps, random_fully_homogeneous, AppGenConfig, PlatformGenConfig,
            };
            use rand::{Rng as _, SeedableRng as _};

            let apps = random_apps(
                &AppGenConfig { apps: 2, stages: (1, 5), ..Default::default() },
                seed,
            );
            let pf_cfg = PlatformGenConfig {
                procs,
                modes: (1, 1),
                e_stat: (0.0, 3.0),
                ..Default::default()
            };
            let pf = random_fully_homogeneous(&pf_cfg, seed ^ 0x24);
            let s = pf.procs[0].max_speed();
            let e_per_proc = energy_per_proc(&pf).expect("uni-modal");
            let budget = e_per_proc * f64::from(cap_tenths) / 10.0;
            let k = proc_cap(pf.p(), e_per_proc, budget);
            let capped = (k > 0)
                .then(|| Platform::new(pf.procs[..k].to_vec(), pf.links.clone()).unwrap());
            let b = pf.uniform_comm(0).expect("uniform links").bandwidth;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Bounds from loose to infeasible, on each application's
            // one-processor scale.
            let mut bounds = || -> Vec<f64> {
                apps.apps
                    .iter()
                    .map(|app| {
                        let inputs: f64 = (0..app.n()).map(|i| app.input_of(i)).sum();
                        let comm = inputs + app.output_of(app.n() - 1);
                        rng.gen_range(0.4..2.0) * (app.total_work() / s + comm / b)
                    })
                    .collect()
            };
            for model in CommModel::ALL {
                let lb = bounds();
                let tri = min_period_tri_unimodal(&apps, &pf, model, &lb, budget);
                let bi = capped
                    .as_ref()
                    .and_then(|c| min_period_under_latency_fully_hom(&apps, c, model, &lb));
                proptest::prop_assert!(same_solution(&tri, &bi), "period, k={}", k);
                let tb = bounds();
                let tri = min_latency_tri_unimodal(&apps, &pf, model, &tb, budget);
                let bi = capped
                    .as_ref()
                    .and_then(|c| min_latency_under_period_fully_hom(&apps, c, model, &tb));
                proptest::prop_assert!(same_solution(&tri, &bi), "latency, k={}", k);
            }
        }
    }
}
