//! Quickstart: the Section 2 motivating example of the paper, end to end.
//!
//! Two concurrent pipelined applications, three bi-modal processors,
//! `E_dyn(s) = s²`, all bandwidths 1. The example reproduces every number
//! quoted in the paper:
//!
//! * minimum period 1 (Eq. 1),
//! * minimum latency 2.75 (Eq. 2),
//! * minimum energy 10 (period then degrades to 14),
//! * energy 46 under the period-≤-2 compromise (vs 136 for the
//!   period-optimal mapping).
//!
//! Run with: `cargo run --example quickstart`

use concurrent_pipelines::model::generator::section2_example;
use concurrent_pipelines::prelude::*;
use concurrent_pipelines::simulator::simulate;
use concurrent_pipelines::solvers::exact::{exact_optimize, ExactConfig, SpeedPolicy};
use concurrent_pipelines::solvers::mono::latency::min_latency_interval_comm_hom;
use concurrent_pipelines::solvers::tri::multimodal::branch_and_bound_tri_counted;
use concurrent_pipelines::solvers::{Criterion, MappingKind};

fn describe(name: &str, apps: &AppSet, platform: &Platform, mapping: &Mapping) {
    let ev = Evaluator::new(apps, platform);
    let e = ev.evaluate(mapping, CommModel::Overlap);
    println!("\n=== {name} ===");
    for (a, app) in apps.apps.iter().enumerate() {
        let chain = mapping.app_chain(a);
        let placement: Vec<String> = chain
            .iter()
            .map(|asg| {
                format!(
                    "S{}..S{} -> P{} @ speed {}",
                    asg.interval.first + 1,
                    asg.interval.last + 1,
                    asg.proc + 1,
                    platform.procs[asg.proc].speed(asg.mode)
                )
            })
            .collect();
        println!("  {:<6} {}", app.name, placement.join(", "));
    }
    println!(
        "  period = {:.3}   latency = {:.3}   energy = {:.1}",
        e.period, e.latency, e.energy
    );
}

fn main() {
    let (apps, platform) = section2_example();
    println!("Paper: Benoit, Renaud-Goud, Robert — IPDPS 2010, Section 2 example");
    println!(
        "{} applications, {} processors (speed sets {:?}, {:?}, {:?})",
        apps.a(),
        platform.p(),
        platform.procs[0].speeds(),
        platform.procs[1].speeds(),
        platform.procs[2].speeds()
    );

    // 1. Minimum period (exhaustive over interval mappings at top modes —
    //    the platform is comm-homogeneous with het processors, NP-hard in
    //    general, trivially small here).
    let cfg = ExactConfig {
        kind: MappingKind::Interval,
        model: CommModel::Overlap,
        speed: SpeedPolicy::MaxOnly,
    };
    let best_t = exact_optimize(&apps, &platform, cfg, Criterion::Period, &Thresholds::none())
        .expect("feasible");
    describe("minimum period (paper: 1)", &apps, &platform, &best_t.mapping);
    assert!((best_t.objective - 1.0).abs() < 1e-9);

    // 2. Minimum latency — polynomial greedy (Theorem 12).
    let best_l = min_latency_interval_comm_hom(&apps, &platform).expect("feasible");
    describe("minimum latency (paper: 2.75)", &apps, &platform, &best_l.mapping);
    assert!((best_l.objective - 2.75).abs() < 1e-9);

    // 3. Minimum energy, no performance constraint (paper: 10, period 14).
    let cfg_all = ExactConfig { speed: SpeedPolicy::All, ..cfg };
    let best_e =
        exact_optimize(&apps, &platform, cfg_all, Criterion::Energy, &Thresholds::none())
            .expect("feasible");
    describe("minimum energy (paper: 10)", &apps, &platform, &best_e.mapping);
    assert!((best_e.objective - 10.0).abs() < 1e-9);

    // 4. The compromise: minimum energy under period ≤ 2 (paper: 46),
    //    via the exact tri-criteria branch-and-bound.
    let compromise = branch_and_bound_tri_counted(
        &apps,
        &platform,
        CommModel::Overlap,
        MappingKind::Interval,
        &[2.0, 2.0],
        &[f64::INFINITY, f64::INFINITY],
    )
    .0
    .expect("feasible");
    describe("energy under period ≤ 2 (paper: 46)", &apps, &platform, &compromise.mapping);
    assert!((compromise.objective - 46.0).abs() < 1e-9);

    // 5. Execute the compromise mapping in the discrete-event simulator and
    //    confirm the analytic numbers hold in execution.
    let report = simulate(&apps, &platform, &compromise.mapping, CommModel::Overlap, 64);
    println!("\n=== simulation of the compromise mapping (64 data sets) ===");
    println!(
        "  measured period = {:.3}   first-data-set latency = {:.3}   power = {:.1}",
        report.period, report.latency, report.power
    );
    for u in 0..platform.p() {
        println!("  P{} utilization = {:.1}%", u + 1, 100.0 * report.utilization(u));
    }
    assert!((report.period - 2.0).abs() < 1e-9);

    // 6. Gantt chart of the first 8 data sets under the compromise mapping.
    let (_, trace) = concurrent_pipelines::simulator::simulate_traced(
        &apps,
        &platform,
        &compromise.mapping,
        CommModel::Overlap,
        8,
    );
    println!("\n=== Gantt (compute activity, digits = data-set index) ===");
    print!("{}", trace.gantt(&platform, 72));

    println!("\nAll Section 2 numbers reproduced ✔");
}
