//! Table 2, row "Period/Latency/Energy": the polynomial uni-modal solver
//! (Theorem 24), the exponential blow-up of the exact branch-and-bound on
//! Theorem 26 gadgets (the NP-hardness signature), and the polynomial
//! heuristics of Section 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cpo_bench::fully_hom_instance;
use cpo_core::heuristics::{local_search, LocalSearchConfig};
use cpo_core::tri::multimodal::branch_and_bound_tri_counted;
use cpo_core::tri::unimodal::min_latency_tri_unimodal;
use cpo_core::MappingKind;
use cpo_model::gadgets::{theorem26_encode, TwoPartition};
use cpo_model::generator::section2_example;
use cpo_model::prelude::*;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("t2_tricriteria");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.sample_size(15);

    // Polynomial uni-modal variant (Theorem 24).
    for n in [8usize, 16, 32] {
        let (apps, pf) = fully_hom_instance(2, n, 8, (1, 1));
        let e_per = EnergyModel::default().dynamic(pf.procs[0].max_speed());
        let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() + 5.0).collect();
        g.bench_with_input(BenchmarkId::new("unimodal_thm24", n), &n, |b, _| {
            b.iter(|| {
                min_latency_tri_unimodal(
                    black_box(&apps),
                    &pf,
                    CommModel::Overlap,
                    &tb,
                    4.0 * e_per,
                )
            })
        });
    }

    // Exponential exact solver on Theorem 26 gadgets: time vs item count.
    for n in [2usize, 3, 4, 5] {
        let inst = TwoPartition::yes_instance(n, 1);
        let gadget = theorem26_encode(&inst);
        g.bench_with_input(BenchmarkId::new("bnb_gadget_items", n), &n, |b, _| {
            b.iter(|| {
                branch_and_bound_tri_counted(
                    black_box(&gadget.apps),
                    &gadget.platform,
                    CommModel::Overlap,
                    MappingKind::OneToOne,
                    &[gadget.target_period],
                    &[gadget.target_latency],
                )
                .0
            })
        });
    }

    // Heuristics on the Section 2 example.
    let (apps, pf) = section2_example();
    g.bench_function("local_search_section2", |b| {
        b.iter(|| {
            local_search(
                black_box(&apps),
                &pf,
                CommModel::Overlap,
                &[2.0, 2.0],
                &[f64::INFINITY, f64::INFINITY],
                &LocalSearchConfig { iterations: 1000, seed: 1, ..Default::default() },
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
