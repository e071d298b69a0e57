//! Table 2, rows "Period/Energy": Theorem 19 (Hungarian matching,
//! one-to-one, comm-hom) over the stage count N and Theorems 18/21
//! (interval DP + convolution, fully-hom) over the chain length n — plus
//! the full period/energy **front extraction**, naive full-candidate sweep
//! vs the pruned sweep engine (the before/after pair recorded in
//! `BENCH_PR2.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cpo_bench::{comm_hom_instance, fully_hom_instance, workable_period_bounds};
use cpo_core::bi::period_energy::{
    min_energy_interval_fully_hom, min_energy_one_to_one_matching,
};
use cpo_core::pareto::{period_candidates, period_energy_front};
use cpo_core::solution::MappingKind;
use cpo_core::sweep::{FrontPoint, Sweep};
use cpo_model::num;
use cpo_model::prelude::*;
use std::hint::black_box;

/// The pre-sweep-engine front extraction (the "before" of `BENCH_PR2.json`):
/// one full per-candidate solve — rebuilding every cost table from scratch,
/// exactly like the one-shot Theorem 18/21 and 19 entry points — for each
/// of the `O(A·p·n²·modes)` candidate periods, then the dominance filter.
fn naive_front(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    kind: MappingKind,
) -> Vec<FrontPoint> {
    let candidates = period_candidates(apps, platform, model, kind);
    let mut points: Vec<FrontPoint> = Vec::new();
    for t in candidates {
        let bounds: Vec<f64> = apps.apps.iter().map(|a| t / a.weight).collect();
        let sol = match kind {
            MappingKind::Interval => min_energy_interval_fully_hom(apps, platform, model, &bounds),
            MappingKind::OneToOne => {
                min_energy_one_to_one_matching(apps, platform, model, &bounds)
            }
        };
        if let Some(sol) = sol {
            let achieved = Evaluator::new(apps, platform).period(&sol.mapping, model);
            let objective = sol.objective;
            if points.last().is_none_or(|last| num::lt(objective, last.objective)) {
                points.push(FrontPoint { achieved, objective, solution: sol });
            }
        }
    }
    points
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("t2_period_energy");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(15);
    for n_total in [16usize, 32, 64] {
        let (apps, pf) = comm_hom_instance(4, n_total / 4, n_total, (2, 3));
        let tb = workable_period_bounds(&apps, 2.0);
        g.bench_with_input(BenchmarkId::new("matching_thm19", n_total), &n_total, |b, _| {
            b.iter(|| {
                min_energy_one_to_one_matching(black_box(&apps), &pf, CommModel::Overlap, &tb)
            })
        });
    }
    // n = 128/256 were previously too slow to bench (quadratic core plus a
    // per-solve allocation storm); the run-decomposed flat-arena DP scales
    // near-linearly, so the ladder now extends to them.
    for n in [8usize, 16, 32, 128, 256] {
        let (apps, pf) = fully_hom_instance(2, n, 8, (3, 3));
        let tb = workable_period_bounds(&apps, 4.0);
        g.bench_with_input(BenchmarkId::new("interval_dp_thm18_21", n), &n, |b, _| {
            b.iter(|| {
                min_energy_interval_fully_hom(black_box(&apps), &pf, CommModel::Overlap, &tb)
            })
        });
    }

    // Front extraction at the acceptance point: A=2 applications of n=64
    // stages, p=8 processors, 4 DVFS modes. "naive" is the pre-engine
    // full-candidate sweep (per-candidate table rebuilds); "sweep" is the
    // pruned + parallel engine with shared cost tables. Both produce the
    // identical front (see the sweep_equivalence property tests).
    let (apps, pf) = fully_hom_instance(2, 64, 8, (4, 4));
    g.bench_function("front_interval_naive/n64", |b| {
        b.iter(|| {
            naive_front(black_box(&apps), &pf, CommModel::Overlap, MappingKind::Interval)
        })
    });
    g.bench_function("front_interval_sweep/n64", |b| {
        b.iter(|| {
            let sweep = Sweep::default();
            period_energy_front(black_box(&apps), &pf, CommModel::Overlap, MappingKind::Interval, &sweep)
        })
    });

    // Scaling rows previously out of reach: full front extraction at n=128
    // and n=256 through the sweep engine only (the naive baseline would
    // take minutes per iteration there).
    for n in [128usize, 256] {
        let (apps, pf) = fully_hom_instance(2, n, 8, (4, 4));
        g.bench_with_input(BenchmarkId::new("front_interval_sweep_scale", n), &n, |b, _| {
            b.iter(|| {
                period_energy_front(
                    black_box(&apps),
                    &pf,
                    CommModel::Overlap,
                    MappingKind::Interval,
                    &Sweep::default(),
                )
            })
        });
    }

    // One-to-one counterpart (Theorem 19 matching per candidate).
    let (apps, pf) = comm_hom_instance(2, 8, 16, (2, 2));
    g.bench_function("front_matching_naive/n16", |b| {
        b.iter(|| {
            naive_front(black_box(&apps), &pf, CommModel::Overlap, MappingKind::OneToOne)
        })
    });
    g.bench_function("front_matching_sweep/n16", |b| {
        b.iter(|| {
            let sweep = Sweep::default();
            period_energy_front(black_box(&apps), &pf, CommModel::Overlap, MappingKind::OneToOne, &sweep)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
