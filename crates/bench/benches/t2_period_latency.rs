//! Table 2, row "Period/Latency": the Theorem 15/16 dynamic program
//! (latency under period bounds) and its binary-search dual, fully
//! homogeneous platforms, swept over the chain length n — plus the full
//! period/latency front through the pruned sweep engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cpo_bench::fully_hom_instance;
use cpo_core::bi::period_latency::{
    min_latency_under_period_fully_hom, min_period_under_latency_fully_hom,
};
use cpo_core::mono::period_interval::minimize_global_period;
use cpo_core::pareto::period_latency_front;
use cpo_core::sweep::Sweep;
use cpo_model::prelude::*;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("t2_period_latency");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(15);
    for n in [8usize, 16, 32] {
        let (apps, pf) = fully_hom_instance(2, n, 8, (1, 1));
        let base = minimize_global_period(&apps, &pf, CommModel::Overlap)
            .expect("p >= A")
            .objective;
        let tb = vec![base * 1.5; apps.a()];
        g.bench_with_input(BenchmarkId::new("latency_under_period", n), &n, |b, _| {
            b.iter(|| {
                min_latency_under_period_fully_hom(
                    black_box(&apps),
                    &pf,
                    CommModel::Overlap,
                    &tb,
                )
            })
        });
        let lb = vec![1e6; apps.a()];
        g.bench_with_input(BenchmarkId::new("period_under_latency", n), &n, |b, _| {
            b.iter(|| {
                min_period_under_latency_fully_hom(
                    black_box(&apps),
                    &pf,
                    CommModel::Overlap,
                    &lb,
                )
            })
        });
    }

    // Full period/latency front: per-candidate one-shot solves (naive) vs
    // the pruned sweep engine on shared tables. Same top-mode candidate
    // list for both.
    let (apps, pf) = fully_hom_instance(2, 32, 8, (2, 2));
    let tables = cpo_core::bi::interval_cost_tables(&apps, &pf, CommModel::Overlap)
        .expect("fully homogeneous instance");
    let mut buf = Vec::new();
    for t in &tables {
        t.push_weighted_candidates(t.weight, true, &mut buf);
    }
    let cands = cpo_model::num::sorted_candidates(buf);
    g.bench_function("front_naive/n32", |b| {
        b.iter(|| {
            // Naive baseline: one full solver call (table rebuilds and
            // all) per candidate period, then the dominance filter.
            let mut kept = 0usize;
            let mut last = f64::INFINITY;
            for &t in &cands {
                let bounds: Vec<f64> = apps.apps.iter().map(|a| t / a.weight).collect();
                if let Some(sol) = min_latency_under_period_fully_hom(
                    black_box(&apps),
                    &pf,
                    CommModel::Overlap,
                    &bounds,
                ) {
                    if sol.objective < last {
                        last = sol.objective;
                        kept += 1;
                    }
                }
            }
            kept
        })
    });
    g.bench_function("front_sweep/n32", |b| {
        b.iter(|| period_latency_front(black_box(&apps), &pf, CommModel::Overlap, &Sweep::default()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
