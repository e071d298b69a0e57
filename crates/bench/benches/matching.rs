//! Substrate bench: the from-scratch Hungarian algorithm (Theorem 19's
//! engine), swept over problem size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cpo_matching::hungarian_min_cost;
use rand::prelude::*;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(15);
    for n in [16usize, 32, 64, 128] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let cost: Vec<Vec<f64>> =
            (0..n).map(|_| (0..n + 8).map(|_| rng.gen_range(0.0..100.0)).collect()).collect();
        g.bench_with_input(BenchmarkId::new("hungarian", n), &n, |b, _| {
            b.iter(|| hungarian_min_cost(black_box(&cost)).expect("feasible"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
