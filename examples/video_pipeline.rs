//! Video encoding on a DVFS cluster: sweeping the period/energy trade-off.
//!
//! A 7-stage H.264-style encoding chain runs on a fully homogeneous
//! platform of DVFS processors (4 modes each). The example sweeps the
//! entire period/energy Pareto front with the polynomial Theorem 18/21
//! dynamic program, prints the staircase, then picks the knee point and
//! validates it in the discrete-event simulator.
//!
//! Run with: `cargo run --example video_pipeline`

use concurrent_pipelines::model::generator::video_encoding_app;
use concurrent_pipelines::prelude::*;
use concurrent_pipelines::simulator::simulate;
use concurrent_pipelines::solvers::pareto::period_energy_front;
use concurrent_pipelines::solvers::sweep::Sweep;
use concurrent_pipelines::solvers::MappingKind;

fn main() {
    let apps = AppSet::single(video_encoding_app(1.0));
    // 6 identical DVFS processors: 0.5–4 GHz-ish modes, uniform gigabit-like
    // links (bandwidth 4 data units / time unit).
    let platform =
        Platform::fully_homogeneous(6, vec![0.5, 1.0, 2.0, 4.0], 4.0).expect("valid platform");

    println!("workload: {} ({} stages, total work {})", apps.apps[0].name, apps.apps[0].n(), apps.apps[0].total_work());
    println!("platform: {} processors, modes {:?}\n", platform.p(), platform.procs[0].speeds());

    let front = period_energy_front(&apps, &platform, CommModel::Overlap, MappingKind::Interval, &Sweep::default());
    println!("period/energy Pareto front ({} points):", front.len());
    println!("{:>10} {:>10} {:>7} {:>24}", "period", "energy", "procs", "modes");
    for pt in &front {
        let modes: Vec<f64> = pt
            .solution
            .mapping
            .enrolled_procs()
            .map(|(u, m)| platform.procs[u].speed(m))
            .collect();
        println!(
            "{:>10.3} {:>10.2} {:>7} {:>24}",
            pt.achieved,
            pt.objective,
            pt.solution.mapping.enrolled(),
            format!("{modes:?}")
        );
    }

    // Knee point: the point minimizing period × energy (a simple
    // energy-delay-product style criterion).
    let knee = front
        .iter()
        .min_by(|a, b| {
            (a.achieved * a.objective)
                .partial_cmp(&(b.achieved * b.objective))
                .expect("finite")
        })
        .expect("non-empty front");
    println!(
        "\nknee point: period {:.3}, energy {:.2} (period × energy = {:.2})",
        knee.achieved,
        knee.objective,
        knee.achieved * knee.objective
    );

    // Validate in the simulator: the measured steady-state frame rate must
    // match the analytic period.
    let report = simulate(&apps, &platform, &knee.solution.mapping, CommModel::Overlap, 128);
    println!(
        "simulated 128 frames: measured period {:.3} (analytic {:.3}), \
         throughput {:.3} frames/time-unit",
        report.period,
        knee.achieved,
        1.0 / report.period
    );
    assert!((report.period - knee.achieved).abs() < 1e-6);

    // How much energy does the platform save versus running everything at
    // top speed with the same mapping?
    let full_speed = knee.solution.mapping.clone().at_max_speed(&platform);
    let ev = Evaluator::new(&apps, &platform);
    println!(
        "same mapping at top modes: period {:.3}, energy {:.2} → DVFS saves {:.0}% energy \
         for a {:.0}% longer period",
        ev.period(&full_speed, CommModel::Overlap),
        ev.energy(&full_speed),
        100.0 * (1.0 - knee.objective / ev.energy(&full_speed)),
        100.0 * (knee.achieved / ev.period(&full_speed, CommModel::Overlap) - 1.0)
    );
}
