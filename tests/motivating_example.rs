//! Integration test: every number of the paper's Section 2 motivating
//! example, reproduced through the public API (solvers + simulator).

use concurrent_pipelines::model::generator::section2_example;
use concurrent_pipelines::prelude::*;
use concurrent_pipelines::simulator::simulate;
use concurrent_pipelines::solvers::exact::{exact_optimize, ExactConfig, SpeedPolicy};
use concurrent_pipelines::solvers::heuristics::{local_search, LocalSearchConfig};
use concurrent_pipelines::solvers::mono::latency::min_latency_interval_comm_hom;
use concurrent_pipelines::solvers::tri::multimodal::branch_and_bound_tri_counted;
use concurrent_pipelines::solvers::{Criterion, MappingKind};

fn cfg(kind: MappingKind, speed: SpeedPolicy) -> ExactConfig {
    ExactConfig { kind, model: CommModel::Overlap, speed }
}

#[test]
fn minimum_period_is_1() {
    let (apps, pf) = section2_example();
    let sol = exact_optimize(
        &apps,
        &pf,
        cfg(MappingKind::Interval, SpeedPolicy::MaxOnly),
        Criterion::Period,
        &Thresholds::none(),
    )
    .expect("feasible");
    assert!((sol.objective - 1.0).abs() < 1e-9, "Eq. (1): optimal period 1");
}

#[test]
fn minimum_latency_is_2_75_greedy_and_exhaustive_agree() {
    let (apps, pf) = section2_example();
    let greedy = min_latency_interval_comm_hom(&apps, &pf).expect("feasible");
    assert!((greedy.objective - 2.75).abs() < 1e-9, "Eq. (2): optimal latency 2.75");
    let brute = exact_optimize(
        &apps,
        &pf,
        cfg(MappingKind::Interval, SpeedPolicy::MaxOnly),
        Criterion::Latency,
        &Thresholds::none(),
    )
    .expect("feasible");
    assert!((brute.objective - 2.75).abs() < 1e-9);
}

#[test]
fn minimum_energy_is_10_with_period_14() {
    let (apps, pf) = section2_example();
    let sol = exact_optimize(
        &apps,
        &pf,
        cfg(MappingKind::Interval, SpeedPolicy::All),
        Criterion::Energy,
        &Thresholds::none(),
    )
    .expect("feasible");
    assert!((sol.objective - 10.0).abs() < 1e-9, "minimum energy 3² + 1² = 10");
    let ev = Evaluator::new(&apps, &pf);
    assert!((ev.period(&sol.mapping, CommModel::Overlap) - 14.0).abs() < 1e-9);
}

#[test]
fn energy_under_period_2_is_46_and_period_optimal_mapping_costs_136() {
    let (apps, pf) = section2_example();
    let sol = branch_and_bound_tri_counted(
        &apps,
        &pf,
        CommModel::Overlap,
        MappingKind::Interval,
        &[2.0, 2.0],
        &[f64::INFINITY, f64::INFINITY],
    )
    .0
    .expect("feasible");
    assert!((sol.objective - 46.0).abs() < 1e-9);
    // The period-optimal mapping runs all three processors in their top
    // modes and costs 6² + 8² + 6² = 136.
    let t = exact_optimize(
        &apps,
        &pf,
        cfg(MappingKind::Interval, SpeedPolicy::MaxOnly),
        Criterion::Period,
        &Thresholds::none(),
    )
    .expect("feasible");
    let ev = Evaluator::new(&apps, &pf);
    assert!((ev.energy(&t.mapping) - 136.0).abs() < 1e-9);
}

#[test]
fn heuristics_reach_the_compromise() {
    let (apps, pf) = section2_example();
    let heur = local_search(
        &apps,
        &pf,
        CommModel::Overlap,
        &[2.0, 2.0],
        &[f64::INFINITY, f64::INFINITY],
        &LocalSearchConfig { iterations: 6000, seed: 3, ..Default::default() },
    )
    .expect("feasible");
    assert!((heur.objective - 46.0).abs() < 1e-9, "local search finds the optimum 46 here");
}

#[test]
fn simulator_confirms_all_three_canonical_mappings() {
    let (apps, pf) = section2_example();
    let ev = Evaluator::new(&apps, &pf);
    // Period-optimal, latency-optimal and energy-optimal mappings from the
    // paper; the simulator must agree with the analytic evaluator on all.
    let mappings = [
        Mapping::new()
            .with(Interval::new(0, 0, 2), 2, 1)
            .with(Interval::new(1, 0, 1), 1, 1)
            .with(Interval::new(1, 2, 3), 0, 1),
        Mapping::new()
            .with(Interval::new(0, 0, 2), 0, 1)
            .with(Interval::new(1, 0, 3), 1, 1),
        Mapping::new()
            .with(Interval::new(0, 0, 2), 0, 0)
            .with(Interval::new(1, 0, 3), 2, 0),
    ];
    for (i, m) in mappings.iter().enumerate() {
        m.validate(&apps, &pf).expect("paper mapping valid");
        for model in CommModel::ALL {
            let rep = simulate(&apps, &pf, m, model, 48);
            assert!(
                (rep.period - ev.period(m, model)).abs() < 1e-9,
                "mapping {i}, {model:?}: simulated vs analytic period"
            );
            assert!(
                (rep.latency - ev.latency(m)).abs() < 1e-9,
                "mapping {i}, {model:?}: simulated vs analytic latency"
            );
            assert!((rep.power - ev.energy(m)).abs() < 1e-9);
        }
    }
}

#[test]
fn one_to_one_needs_more_processors_than_section2_has() {
    // N = 7 stages > p = 3: no one-to-one mapping exists — the paper notes
    // one-to-one requires p ≥ N.
    let (apps, pf) = section2_example();
    let sol = exact_optimize(
        &apps,
        &pf,
        cfg(MappingKind::OneToOne, SpeedPolicy::MaxOnly),
        Criterion::Period,
        &Thresholds::none(),
    );
    assert!(sol.is_none());
}
