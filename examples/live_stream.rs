//! Live execution of a pipelined application on real threads.
//!
//! The model says a good interval mapping balances per-processor work; this
//! demo runs a 6-stage chain twice on actual OS threads (crossbeam channels
//! as links): once with a naive mapping (everything on one worker) and once
//! with the balanced interval mapping computed by the paper's period DP —
//! and measures the wall-clock throughput difference.
//!
//! Stage "work" is modelled with sleeps (I/O-like latency), so the
//! pipelining speedup is visible even on a single-core machine.
//!
//! Run with: `cargo run --release --example live_stream`

use concurrent_pipelines::model::application::Application;
use concurrent_pipelines::prelude::*;
use concurrent_pipelines::simulator::live::LivePipeline;
use concurrent_pipelines::solvers::dp::{period_table, HomCtx};
use std::time::Duration;

/// Per-stage work in milliseconds per item.
const STAGE_MS: [u64; 6] = [2, 6, 9, 7, 4, 1];
const ITEMS: usize = 32;
const WORKERS: usize = 3;

fn run_partition(partition: &[(usize, usize)]) -> (f64, Duration) {
    let mut pipe: LivePipeline<u64> = LivePipeline::new();
    for &(lo, hi) in partition {
        let ms: u64 = STAGE_MS[lo..=hi].iter().sum();
        pipe = pipe.stage(move |x: u64| {
            std::thread::sleep(Duration::from_millis(ms));
            x + 1
        });
    }
    let (out, rep) = pipe.run((0..ITEMS as u64).collect());
    assert_eq!(out.len(), ITEMS);
    (rep.throughput, rep.elapsed)
}

fn main() {
    // Model the same chain abstractly (speed 1 = 1 work-unit ... 1 ms,
    // no communication cost — channels are cheap next to the sleeps).
    let app = Application::from_pairs(0.0, &STAGE_MS.map(|w| (w as f64, 0.0)));
    let speeds = [1.0];
    let ctx = HomCtx::new(&app, &speeds, 1.0, CommModel::Overlap);

    let table = period_table(&ctx, WORKERS);
    let partition = table
        .period_partition(WORKERS, 0)
        .expect("finite stage data");
    println!(
        "chain works {:?} ms; DP balanced partition over ≤ {} workers: {:?} \
         (analytic period {:.0} ms vs {:.0} ms on one worker)",
        STAGE_MS,
        WORKERS,
        partition.intervals,
        table.best_row()[WORKERS - 1],
        table.best_row()[0]
    );

    let naive = vec![(0usize, STAGE_MS.len() - 1)];
    let (thr_naive, t_naive) = run_partition(&naive);
    println!("naive    (1 worker):  {thr_naive:>6.1} items/s   total {t_naive:?}");

    let (thr_balanced, t_balanced) = run_partition(&partition.intervals);
    println!(
        "balanced ({} workers): {:>6.1} items/s   total {:?}",
        partition.intervals.len(),
        thr_balanced,
        t_balanced
    );

    let speedup = thr_balanced / thr_naive;
    let predicted = table.best_row()[0] / table.best_row()[WORKERS - 1];
    println!("speedup: {speedup:.2}× measured vs {predicted:.2}× predicted by the period model");
    assert!(
        speedup > 0.6 * predicted,
        "pipelining should deliver most of the predicted speedup"
    );
}
