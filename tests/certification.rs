//! Optimality certification: every polynomial algorithm of the paper is
//! checked against exhaustive search on seeded random instances.
//!
//! These tests are the empirical backing of the "polynomial" cells of
//! Tables 1 and 2 (see EXPERIMENTS.md): for each cell, the dedicated
//! algorithm must return exactly the optimum found by brute force.

use concurrent_pipelines::model::generator::{
    random_apps, random_comm_homogeneous, random_fully_homogeneous, AppGenConfig,
    PlatformGenConfig,
};
use concurrent_pipelines::prelude::*;
use concurrent_pipelines::solvers::bi::period_energy::{
    min_energy_interval_fully_hom, min_energy_one_to_one_matching,
};
use concurrent_pipelines::solvers::bi::period_latency::{
    min_latency_under_period_fully_hom, min_period_under_latency_fully_hom,
};
use concurrent_pipelines::solvers::exact::{exact_optimize, ExactConfig, SpeedPolicy};
use concurrent_pipelines::solvers::mono::latency::min_latency_interval_comm_hom;
use concurrent_pipelines::solvers::mono::period_interval::minimize_global_period;
use concurrent_pipelines::solvers::mono::period_one_to_one::min_period_one_to_one_comm_hom;
use concurrent_pipelines::solvers::tri::unimodal::{
    min_latency_tri_unimodal, min_period_tri_unimodal,
};
use concurrent_pipelines::solvers::{Criterion, MappingKind};

const SEEDS: u64 = 60;

fn assert_matches(fast: Option<f64>, brute: Option<f64>, what: &str, seed: u64) {
    match (fast, brute) {
        (None, None) => {}
        (Some(f), Some(b)) => {
            assert!((f - b).abs() < 1e-7, "{what} seed {seed}: fast {f} vs brute {b}")
        }
        other => panic!("{what} seed {seed}: feasibility mismatch {other:?}"),
    }
}

/// Table 1 row 1 (period, one-to-one, comm-hom): Theorem 1 vs brute force.
#[test]
fn t1_period_one_to_one_comm_hom() {
    let app_cfg = AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() };
    for seed in 0..SEEDS {
        let apps = random_apps(&app_cfg, seed);
        let n = apps.total_stages();
        let pf_cfg = PlatformGenConfig { procs: n + 1, modes: (1, 2), ..Default::default() };
        let pf = random_comm_homogeneous(&pf_cfg, seed + 1000);
        for model in CommModel::ALL {
            let fast = min_period_one_to_one_comm_hom(&apps, &pf, model);
            let brute = exact_optimize(
                &apps,
                &pf,
                ExactConfig { kind: MappingKind::OneToOne, model, speed: SpeedPolicy::MaxOnly },
                Criterion::Period,
                &Thresholds::none(),
            );
            assert_matches(
                fast.map(|s| s.objective),
                brute.map(|s| s.objective),
                "period one-to-one",
                seed,
            );
        }
    }
}

/// Table 1 row 2 (period, interval, fully hom): Theorem 3 / Algorithm 2.
#[test]
fn t1_period_interval_fully_hom() {
    let app_cfg = AppGenConfig { apps: 2, stages: (2, 4), ..Default::default() };
    for seed in 0..SEEDS {
        let apps = random_apps(&app_cfg, seed);
        let pf_cfg = PlatformGenConfig { procs: 4, modes: (1, 2), ..Default::default() };
        let pf = random_fully_homogeneous(&pf_cfg, seed + 2000);
        for model in CommModel::ALL {
            let fast = minimize_global_period(&apps, &pf, model);
            let brute = exact_optimize(
                &apps,
                &pf,
                ExactConfig { kind: MappingKind::Interval, model, speed: SpeedPolicy::MaxOnly },
                Criterion::Period,
                &Thresholds::none(),
            );
            assert_matches(
                fast.map(|s| s.objective),
                brute.map(|s| s.objective),
                "period interval",
                seed,
            );
        }
    }
}

/// Table 1 row 4 (latency, interval, comm-hom): Theorem 12 greedy.
#[test]
fn t1_latency_interval_comm_hom() {
    let app_cfg = AppGenConfig { apps: 3, stages: (1, 3), ..Default::default() };
    for seed in 0..SEEDS {
        let apps = random_apps(&app_cfg, seed);
        let pf_cfg = PlatformGenConfig { procs: 4, modes: (1, 3), ..Default::default() };
        let pf = random_comm_homogeneous(&pf_cfg, seed + 3000);
        let fast = min_latency_interval_comm_hom(&apps, &pf);
        let brute = exact_optimize(
            &apps,
            &pf,
            ExactConfig {
                kind: MappingKind::Interval,
                model: CommModel::Overlap,
                speed: SpeedPolicy::MaxOnly,
            },
            Criterion::Latency,
            &Thresholds::none(),
        );
        assert_matches(
            fast.map(|s| s.objective),
            brute.map(|s| s.objective),
            "latency interval",
            seed,
        );
    }
}

/// Table 2 row 1 (period/latency, fully hom): Theorem 15/16 DP, both
/// directions.
#[test]
fn t2_period_latency_fully_hom() {
    let app_cfg = AppGenConfig { apps: 2, stages: (2, 4), ..Default::default() };
    for seed in 0..SEEDS / 2 {
        let apps = random_apps(&app_cfg, seed);
        let pf_cfg = PlatformGenConfig { procs: 4, modes: (1, 1), ..Default::default() };
        let pf = random_fully_homogeneous(&pf_cfg, seed + 4000);
        // Derive a meaningful period bound from the unconstrained optimum.
        let base = minimize_global_period(&apps, &pf, CommModel::Overlap)
            .expect("p >= A")
            .objective;
        for factor in [1.0, 1.5, 3.0] {
            let tb = base * factor;
            let bounds = vec![tb; apps.a()];
            let fast =
                min_latency_under_period_fully_hom(&apps, &pf, CommModel::Overlap, &bounds);
            let th = Thresholds::none().with_period(bounds.clone());
            let brute = exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: MappingKind::Interval,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::MaxOnly,
                },
                Criterion::Latency,
                &th,
            );
            assert_matches(
                fast.as_ref().map(|s| s.objective),
                brute.as_ref().map(|s| s.objective),
                "latency under period",
                seed,
            );
            // Dual: period under the achieved latency bound.
            if let Some(l) = fast.map(|s| s.objective) {
                let lb = vec![l * 1.2; apps.a()];
                let fast_t =
                    min_period_under_latency_fully_hom(&apps, &pf, CommModel::Overlap, &lb);
                let th = Thresholds::none().with_latency(lb);
                let brute_t = exact_optimize(
                    &apps,
                    &pf,
                    ExactConfig {
                        kind: MappingKind::Interval,
                        model: CommModel::Overlap,
                        speed: SpeedPolicy::MaxOnly,
                    },
                    Criterion::Period,
                    &th,
                );
                assert_matches(
                    fast_t.map(|s| s.objective),
                    brute_t.map(|s| s.objective),
                    "period under latency",
                    seed,
                );
            }
        }
    }
}

/// Table 2 row 2 (period/energy, one-to-one, comm-hom): Theorem 19
/// matching vs brute force.
#[test]
fn t2_energy_matching_comm_hom() {
    let app_cfg = AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() };
    for seed in 0..SEEDS {
        let apps = random_apps(&app_cfg, seed);
        let n = apps.total_stages();
        let pf_cfg = PlatformGenConfig { procs: n, modes: (2, 3), ..Default::default() };
        let pf = random_comm_homogeneous(&pf_cfg, seed + 5000);
        for model in CommModel::ALL {
            // A bound loose enough to often be feasible, tight enough to
            // force mode choices.
            let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() / 2.0 + 2.0).collect();
            let fast = min_energy_one_to_one_matching(&apps, &pf, model, &tb);
            let th = Thresholds::none().with_period(tb.clone());
            let brute = exact_optimize(
                &apps,
                &pf,
                ExactConfig { kind: MappingKind::OneToOne, model, speed: SpeedPolicy::All },
                Criterion::Energy,
                &th,
            );
            assert_matches(
                fast.map(|s| s.objective),
                brute.map(|s| s.objective),
                "energy matching",
                seed,
            );
        }
    }
}

/// Table 2 row 3 (period/energy, interval, fully hom): Theorem 18/21 DP.
#[test]
fn t2_energy_interval_fully_hom() {
    let app_cfg = AppGenConfig { apps: 2, stages: (2, 3), ..Default::default() };
    for seed in 0..SEEDS / 2 {
        let apps = random_apps(&app_cfg, seed);
        let pf_cfg = PlatformGenConfig { procs: 4, modes: (2, 3), ..Default::default() };
        let pf = random_fully_homogeneous(&pf_cfg, seed + 6000);
        for model in CommModel::ALL {
            let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() / 3.0 + 2.0).collect();
            let fast = min_energy_interval_fully_hom(&apps, &pf, model, &tb);
            let th = Thresholds::none().with_period(tb.clone());
            let brute = exact_optimize(
                &apps,
                &pf,
                ExactConfig { kind: MappingKind::Interval, model, speed: SpeedPolicy::All },
                Criterion::Energy,
                &th,
            );
            assert_matches(
                fast.map(|s| s.objective),
                brute.map(|s| s.objective),
                "energy interval DP",
                seed,
            );
        }
    }
}

/// Table 2 row 4, uni-modal column (Theorem 24): latency variant vs brute
/// force with an energy budget.
#[test]
fn t2_tri_unimodal() {
    let app_cfg = AppGenConfig { apps: 2, stages: (2, 3), ..Default::default() };
    for seed in 0..SEEDS / 2 {
        let apps = random_apps(&app_cfg, seed);
        let pf_cfg = PlatformGenConfig { procs: 4, modes: (1, 1), ..Default::default() };
        let pf = random_fully_homogeneous(&pf_cfg, seed + 7000);
        let e_per_proc = EnergyModel::default().dynamic(pf.procs[0].max_speed());
        for budget_procs in [2usize, 3, 4] {
            let budget = e_per_proc * budget_procs as f64 + 1e-6;
            let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() + 5.0).collect();
            let fast =
                min_latency_tri_unimodal(&apps, &pf, CommModel::Overlap, &tb, budget);
            let th = Thresholds::none().with_period(tb.clone()).with_energy(budget);
            let brute = exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: MappingKind::Interval,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::All,
                },
                Criterion::Latency,
                &th,
            );
            assert_matches(
                fast.map(|s| s.objective),
                brute.map(|s| s.objective),
                "tri unimodal latency",
                seed,
            );
            // Period variant: latency bounds at 1×, 1.3× and 3× each
            // application's single-interval latency (splitting only adds
            // communication, so 1× forces one processor per application).
            let s = pf.procs[0].max_speed();
            let b = pf.uniform_comm(0).expect("uniform links").bandwidth;
            for factor in [1.0, 1.3, 3.0] {
                let lb: Vec<f64> = apps
                    .apps
                    .iter()
                    .map(|a| {
                        factor * (a.total_work() / s + (a.input_of(0) + a.output_of(a.n() - 1)) / b)
                    })
                    .collect();
                let fast = min_period_tri_unimodal(&apps, &pf, CommModel::Overlap, &lb, budget);
                let th = Thresholds::none().with_latency(lb).with_energy(budget);
                let brute = exact_optimize(
                    &apps,
                    &pf,
                    ExactConfig {
                        kind: MappingKind::Interval,
                        model: CommModel::Overlap,
                        speed: SpeedPolicy::All,
                    },
                    Criterion::Period,
                    &th,
                );
                assert_matches(
                    fast.map(|s| s.objective),
                    brute.map(|s| s.objective),
                    "tri unimodal period",
                    seed,
                );
            }
        }
    }
}

/// Solver outputs are always structurally valid mappings honoring their
/// claimed objective values.
#[test]
fn solver_outputs_are_valid_and_consistent() {
    let app_cfg = AppGenConfig { apps: 2, stages: (2, 4), ..Default::default() };
    for seed in 0..SEEDS {
        let apps = random_apps(&app_cfg, seed);
        let pf_cfg = PlatformGenConfig { procs: 5, modes: (2, 3), ..Default::default() };
        let pf = random_fully_homogeneous(&pf_cfg, seed + 8000);
        let ev = Evaluator::new(&apps, &pf);
        if let Some(sol) = minimize_global_period(&apps, &pf, CommModel::Overlap) {
            sol.mapping.validate(&apps, &pf).expect("valid mapping");
            assert!(
                (ev.period(&sol.mapping, CommModel::Overlap) - sol.objective).abs() < 1e-9
            );
        }
        let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work()).collect();
        if let Some(sol) = min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &tb) {
            sol.mapping.validate(&apps, &pf).expect("valid mapping");
            assert!((ev.energy(&sol.mapping) - sol.objective).abs() < 1e-9);
        }
    }
}
