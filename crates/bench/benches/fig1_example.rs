//! FIG1 — the Section 2 motivating example: time every solver involved in
//! reproducing the paper's numbers (exhaustive period, greedy latency,
//! branch-and-bound compromise) plus the simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use cpo_core::exact::{exact_optimize, ExactConfig, SpeedPolicy};
use cpo_core::mono::latency::min_latency_interval_comm_hom;
use cpo_core::tri::multimodal::branch_and_bound_tri_counted;
use cpo_core::{Criterion as Crit, MappingKind};
use cpo_model::generator::section2_example;
use cpo_model::prelude::*;
use cpo_simulator::simulate;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let (apps, pf) = section2_example();
    let mut g = c.benchmark_group("fig1");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(15);

    g.bench_function("min_period_exhaustive", |b| {
        let cfg = ExactConfig {
            kind: MappingKind::Interval,
            model: CommModel::Overlap,
            speed: SpeedPolicy::MaxOnly,
        };
        b.iter(|| {
            exact_optimize(black_box(&apps), &pf, cfg, Crit::Period, &Thresholds::none())
        })
    });

    g.bench_function("min_latency_greedy_thm12", |b| {
        b.iter(|| min_latency_interval_comm_hom(black_box(&apps), &pf))
    });

    g.bench_function("energy_under_period2_bnb", |b| {
        b.iter(|| {
            branch_and_bound_tri_counted(
                black_box(&apps),
                &pf,
                CommModel::Overlap,
                MappingKind::Interval,
                &[2.0, 2.0],
                &[f64::INFINITY, f64::INFINITY],
            )
            .0
        })
    });

    let mapping = Mapping::new()
        .with(Interval::new(0, 0, 2), 2, 1)
        .with(Interval::new(1, 0, 1), 1, 1)
        .with(Interval::new(1, 2, 3), 0, 1);
    g.bench_function("simulate_64_datasets", |b| {
        b.iter(|| simulate(&apps, &pf, black_box(&mapping), CommModel::Overlap, 64))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
