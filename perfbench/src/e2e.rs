//! The untraced run: end-to-end numbers from the real release binaries.
//!
//! `serve` workloads: a few spawn → probe → exit cycles for set-up time, a
//! closed loop with a fixed window of outstanding lines for throughput,
//! then an open loop at the workload's fixed offered rate for latency.
//! `batch_check`: whole-file `batch --check` runs back to back.

use crate::drive::{closed_loop, open_loop, run_batch, Exit, Serve};
use crate::gen::{Generated, Workload, COLD_PASS};
use crate::metrics::{median, quantile, Report};
use crate::oracle::{check_batch, check_serve, Expected, Sent, Verdict};
use cpo_model::generator::section2_example;
use cpo_model::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything a run needs.
pub struct Ctx {
    /// The generated workload.
    pub g: Generated,
    /// Reference answer per template.
    pub wants: Vec<Expected>,
    /// The `cpo-experiments` binary.
    pub bin: PathBuf,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
    /// Measurement budget.
    pub seconds: f64,
    /// Oracle threads (the host's cores).
    pub threads: usize,
}

/// Lines kept outstanding by the closed loop; below the server's default
/// queue capacity (256), so admission never sheds.
pub const WINDOW: u64 = 64;

/// Share of a serve run spent in the closed loop; the open loop gets the
/// rest, since its percentiles need more samples than a rate does.
const CLOSED_SHARE: f64 = 0.4;

/// Spawn → probe → exit cycles made only to sample set-up time.
const SETUP_CYCLES: usize = 8;

/// Width of a hot throughput window.
const RATE_WINDOW: Duration = Duration::from_millis(250);

/// Width of a hot latency window: 1000 lines at the hot rate. Short
/// windows keep a scheduler stall of the shared host inside the few
/// windows it hits.
const LATENCY_WINDOW_S: f64 = 0.125;

/// Sender lateness past which a hot latency window is dropped as a host
/// stall: eight lines' worth at the hot rate.
const STALL_LAG: Duration = Duration::from_millis(1);

/// Lines per cold latency window.
const COLD_LATENCY_WINDOW: u64 = 300;

/// p50, p75, p90 and p99 of one window.
pub type Percentiles = [f64; 4];

fn percentiles(xs: &[f64]) -> Percentiles {
    [quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.9), quantile(xs, 0.99)]
}

/// Open-loop offered rate, lines per second: about 40 % of the
/// closed-loop throughput on a two-core host (`batch_check` has no open
/// loop; its rate paces the traced in-process server passes).
pub fn offered_rate(w: Workload) -> f64 {
    match w {
        Workload::ServeHot => 8000.0,
        Workload::ServeCold => 120.0,
        Workload::BatchCheck => 300.0,
    }
}

/// The probe line sent first to every server: a small, cheap solve.
pub fn probe() -> (String, Expected) {
    let (apps, _) = section2_example();
    let pf = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0)
        .expect("Section 2 platform is valid");
    let spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
        .with_period_bounds(vec![2.0, 2.0]);
    let req = SolveRequest::new("perfbench probe", apps, pf, spec).with_id("probe");
    (req.to_json_compact().expect("finite probe"), Expected::solve(&req))
}

/// Accumulates the e2e samples of one run.
#[derive(Default)]
pub struct Samples {
    /// The oracle's tally over every process.
    pub verdict: Verdict,
    /// Spawn → ready, seconds.
    pub setup_s: Vec<f64>,
    /// Peak RSS of the measured processes, MiB.
    pub rss_mb: Vec<f64>,
    /// CPU seconds of the measured processes.
    pub cpu_s: f64,
    /// Lines the measured processes answered.
    pub lines: u64,
    /// Lines per second, per measurement window.
    pub rate_windows: Vec<f64>,
    /// Per-line latency, ms.
    pub latency_ms: Vec<f64>,
    /// Latency percentiles per measurement window, ms.
    pub latency_windows: Vec<Percentiles>,
    /// Open-loop sender lateness, ms.
    pub lag_ms: Vec<f64>,
    /// Latency windows dropped: the sender stalled, or a stub window.
    pub dropped_windows: usize,
    /// A child exited abnormally or never became ready.
    pub process_failed: bool,
}

impl Samples {
    fn exit(&mut self, exit: std::io::Result<Exit>) {
        match exit {
            Ok(e) if e.code == Some(0) => {
                self.rss_mb.push(e.peak_rss_mb);
                self.cpu_s += e.cpu_s;
            }
            other => {
                eprintln!("child process failed: {other:?}");
                self.process_failed = true;
            }
        }
    }
}

/// One server's lifetime: probe, `body` sends stream lines `0..n` and
/// returns `n`, then drain, reap and check. Returns each reply's arrival
/// time with the stream line it correctly answered (`None` for the probe
/// and for wrong replies).
fn session(
    ctx: &Ctx,
    s: &mut Samples,
    body: impl FnOnce(&mut Serve) -> u64,
) -> std::io::Result<Vec<(Instant, Option<u64>)>> {
    let (probe_line, probe_want) = probe();
    let mut srv = Serve::spawn(&ctx.bin)?;
    match srv.probe(&probe_line) {
        Some(d) => s.setup_s.push(d.as_secs_f64()),
        None => s.process_failed = true,
    }
    let n = body(&mut srv);
    let (replies, exit) = srv.finish();
    let ids: Vec<Option<String>> = (0..n)
        .map(|i| ctx.g.templates[ctx.g.template_index(i)].req.as_ref().map(|_| ctx.g.id(i)))
        .collect();
    let mut sent = vec![Sent { id: Some("probe"), expected: &probe_want }];
    sent.extend(ids.iter().enumerate().map(|(i, id)| Sent {
        id: id.as_deref(),
        expected: &ctx.wants[ctx.g.template_index(i as u64)],
    }));
    let texts: Vec<&str> = replies.iter().map(|(_, l)| l.as_str()).collect();
    let (v, answered) = check_serve(&sent, &texts, ctx.threads);
    s.verdict.add(&v);
    s.lines += n + 1;
    s.exit(exit);
    Ok(replies
        .iter()
        .zip(answered)
        .map(|((t, _), a)| (*t, a.filter(|&i| i > 0).map(|i| i as u64 - 1)))
        .collect())
}

/// The untraced serve run.
pub fn serve(ctx: &Ctx, budget: f64, closed: bool) -> std::io::Result<Samples> {
    let mut s = Samples::default();
    let g = &ctx.g;
    // A cold server answers one pass of distinct requests; the next pass
    // goes to a fresh server with an empty cache.
    let cold = g.workload == Workload::ServeCold;
    let limit = if cold { COLD_PASS as u64 } else { u64::MAX };

    if closed {
        for _ in 0..SETUP_CYCLES {
            session(ctx, &mut s, |_| 0)?;
        }
        s.rss_mb.clear();
        // Closed loop: throughput, as the median over windows — 250 ms
        // windows of the hot server, whole passes of the cold ones — so a
        // passing stall on the host moves one window, not the result.
        let until = Instant::now() + Duration::from_secs_f64(budget * CLOSED_SHARE);
        while Instant::now() < until {
            let mut start = Instant::now();
            let mut n = 0;
            let timed = session(ctx, &mut s, |srv| {
                (start, n) = closed_loop(srv, |k| g.line(k), WINDOW, limit, until);
                n
            })?;
            let Some(&(last, _)) = timed.last() else {
                continue;
            };
            if cold {
                if n == limit || s.rate_windows.is_empty() {
                    s.rate_windows.push(n as f64 / (last - start).as_secs_f64());
                }
            } else {
                let width = RATE_WINDOW.as_secs_f64();
                let mut counts = vec![0u32; ((last - start).as_secs_f64() / width) as usize];
                for (t, _) in timed.iter().filter(|(t, _)| *t >= start) {
                    if let Some(c) = counts.get_mut(((*t - start).as_secs_f64() / width) as usize) {
                        *c += 1;
                    }
                }
                s.rate_windows.extend(counts.iter().map(|&c| f64::from(c) / width));
            }
        }
    }
    // Memory is read from the closed-loop servers (under full load; an
    // open-loop server's high-water mark drifts with arrival timing), CPU
    // from the open-loop ones.
    let rss_mb = std::mem::take(&mut s.rss_mb);
    (s.cpu_s, s.lines) = (0.0, 0);

    // Open loop: latency at a fixed offered rate, each line timed from
    // when it was due. Percentiles are taken per window (125 ms of due
    // times hot, 300 lines cold) and the median window reported.
    let rate = offered_rate(g.workload);
    let mut remaining =
        ((rate * if closed { budget * (1.0 - CLOSED_SHARE) } else { budget }) as u64).max(1);
    while remaining > 0 {
        let segment = remaining.min(limit);
        remaining -= segment;
        let (mut dues, mut lags) = (Vec::new(), Vec::new());
        let timed = session(ctx, &mut s, |srv| {
            (dues, lags) = open_loop(srv, |k| g.line(k), rate, segment);
            segment
        })?;
        s.lag_ms.extend(lags.iter().map(|d| d.as_secs_f64() * 1e3));
        let window_of = |i: usize| {
            if cold {
                i / COLD_LATENCY_WINDOW as usize
            } else {
                ((dues[i] - dues[0]).as_secs_f64() / LATENCY_WINDOW_S) as usize
            }
        };
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); window_of(dues.len() - 1) + 1];
        for (t, line) in timed {
            let Some(i) = line else { continue };
            let ms = (t - dues[i as usize]).as_secs_f64() * 1e3;
            windows[window_of(i as usize)].push(ms);
            s.latency_ms.push(ms);
        }
        // A hot window in which the sender itself ran late measured a
        // stall of the host, not the program: it is counted, not used.
        let mut stalled = vec![false; windows.len()];
        if !cold {
            for (i, lag) in lags.iter().enumerate() {
                stalled[window_of(i)] |= *lag > STALL_LAG;
            }
        }
        // A cold segment's last window can be a stub; a p90 needs the
        // full window.
        let full = if cold { COLD_LATENCY_WINDOW as usize } else { 1 };
        let kept = windows.iter().zip(&stalled).filter(|(w, &st)| w.len() >= full && !st);
        let kept: Vec<Percentiles> = kept.map(|(w, _)| percentiles(w)).collect();
        s.dropped_windows += windows.len() - kept.len();
        if kept.is_empty() {
            s.latency_windows
                .extend(windows.iter().filter(|w| !w.is_empty()).map(|w| percentiles(w)));
        } else {
            s.latency_windows.extend(kept);
        }
    }
    if closed {
        s.rss_mb = rss_mb;
    }
    Ok(s)
}

/// The untraced batch run: whole-file runs until `budget` seconds are
/// spent, at least `min_runs` of them.
pub fn batch(ctx: &Ctx, budget: f64, min_runs: usize) -> std::io::Result<Samples> {
    let file = ctx.work.join(format!("batch-{}.jsonl", ctx.g.seed));
    std::fs::write(&file, ctx.g.batch_file())?;
    let wants: Vec<&Expected> = ctx.g.pass.iter().map(|&t| &ctx.wants[t]).collect();
    let mut s = Samples::default();
    let until = Instant::now() + Duration::from_secs_f64(budget);
    while s.rate_windows.len() < min_runs || Instant::now() < until {
        let run = run_batch(&ctx.bin, &file)?;
        let texts: Vec<&str> = run.replies.iter().map(|(_, l)| l.as_str()).collect();
        s.verdict.add(&check_batch(&wants, &texts, ctx.threads));
        match run.ready {
            Some(r) => s.setup_s.push((r - run.spawned).as_secs_f64()),
            None => s.process_failed = true,
        }
        // A batch line's latency: from submitting the file (spawn) to
        // that line's outcome on stdout. Each run is one window.
        let ms: Vec<f64> =
            run.replies.iter().map(|(t, _)| (*t - run.spawned).as_secs_f64() * 1e3).collect();
        s.latency_windows.push(percentiles(&ms));
        s.latency_ms.extend(ms);
        s.rate_windows.push(wants.len() as f64 / (run.ended - run.spawned).as_secs_f64());
        s.lines += wants.len() as u64;
        s.exit(run.exit);
    }
    let _ = std::fs::remove_file(&file);
    Ok(s)
}

/// Run the untraced measurement and fill the end-to-end metrics.
pub fn run(ctx: &Ctx, report: &mut Report) -> std::io::Result<()> {
    let s = if ctx.g.workload.is_serve() {
        serve(ctx, ctx.seconds, true)?
    } else {
        batch(ctx, ctx.seconds, 2)?
    };
    let v = s.verdict;
    report.attempted += v.attempted;
    report.failed += v.failed();
    report.process_failed |= s.process_failed;
    let error_ratio = v.failed() as f64 / v.attempted.max(1) as f64;
    let window_median =
        |i: usize| median(&s.latency_windows.iter().map(|w| w[i]).collect::<Vec<_>>());
    report.set("throughput_rps", median(&s.rate_windows));
    report.set("latency_p50_ms", window_median(0));
    report.set("latency_p75_ms", window_median(1));
    report.set("latency_p90_ms", window_median(2));
    report.set("latency_p99_ms", window_median(3));
    report.set("setup_s", median(&s.setup_s));
    report.set("peak_rss_mb", median(&s.rss_mb));
    report.set("correct_ratio", 1.0 - error_ratio);
    report.set("error_ratio", error_ratio);
    println!(
        "oracle {}: {} lines checked: missing {}, duplicated {}, wrong {}, orphan {}",
        ctx.g.workload.name(),
        v.attempted,
        v.missing,
        v.duplicated,
        v.wrong,
        v.orphan
    );
    println!(
        "samples: throughput {} windows; latency {} lines in {} windows (all lines pooled: p50 \
         {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; {} windows dropped as host stalls or stubs); set-up {} \
         spawns; memory {} processes ({:.1}–{:.1} MiB); open-loop send lag p99 {:.3} ms",
        s.rate_windows.len(),
        s.latency_ms.len(),
        s.latency_windows.len(),
        quantile(&s.latency_ms, 0.5),
        quantile(&s.latency_ms, 0.9),
        quantile(&s.latency_ms, 0.99),
        s.dropped_windows,
        s.setup_s.len(),
        s.rss_mb.len(),
        quantile(&s.rss_mb, 0.0),
        quantile(&s.rss_mb, 1.0),
        quantile(&s.lag_ms, 0.99)
    );
    Ok(())
}
