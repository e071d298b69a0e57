//! The traced run: per-layer numbers from the same inputs, driven
//! in-process through each layer's public functions.
//!
//! 1. A short untraced pass of the real binary gives its CPU time per
//!    line (and, for serve, the open-loop sender's lateness).
//! 2. A serial replay does per line what the program does, each call in
//!    a span: parse, admission digest, deadline plan, engine solve,
//!    `--check` (batch) and render. Extra root spans outside the request
//!    measure what the path does not isolate: a cold `route_with` per
//!    engine miss, simulator timings, and digest/plan where the path has
//!    none of its own.
//! 3. The same lines again with tracing off give the tracing overhead.
//! 4. Two in-process `Server` passes at the workload's offered rate time
//!    `submit_line`, `submit`, the turnaround to the reply sink and the
//!    backlog.
//! 5. `solve_batch` over the replayed requests gives the pool's busy
//!    ratio.
//!
//! Only calls into layers are timed from outside; nothing inside the
//! program is instrumented.

use crate::drive::{SERVE_QUEUE, SERVE_WORKERS};
use crate::e2e::{self, offered_rate, Ctx};
use crate::gen::{family, Workload, FAMILIES};
use crate::metrics::{median, quantile, Report};
use crate::oracle::{check_replies, judge, Sent, Verdict};
use crate::trace::{self_times, Tracer};
use cpo_core::router::{plan, route_with, RouterScratch};
use cpo_engine::{BatchItem, Engine, EngineConfig};
use cpo_experiments::trust::check_outcome;
use cpo_model::hash::{hash_instance, hash_spec};
use cpo_model::prelude::*;
use cpo_serve::{
    DeadlineStage, RejectReason, ServeConfig, ServeOutcome, ServeReply, Server, ServerHooks,
    StatsSnapshot, DEFAULT_COST_UNITS_PER_MS,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Simulated data sets per `--check`: the serve default, and the batch
/// workload's `--datasets`.
fn datasets(w: Workload) -> usize {
    if w.is_serve() {
        64
    } else {
        crate::drive::BATCH_DATASETS
    }
}

/// Replayed requests kept for the pool pass (its busy ratio).
const POOL_ITEMS: usize = 2000;

/// Most simulator and check timings taken per serve replay (they are
/// off the serve path, so a sample is enough).
const SIM_SAMPLES: usize = 200;

/// What the replay saw.
struct Replay {
    tracer: Tracer,
    lines: u64,
    /// Σ wall time of the request path, ns: [traced, untraced].
    path_ns: [u64; 2],
    parse_ns_per_byte: Vec<f64>,
    solve_us: BTreeMap<&'static str, Vec<f64>>,
    estimate_ratio: BTreeMap<&'static str, Vec<f64>>,
    miss_overhead_us: Vec<f64>,
    hit_us: Vec<f64>,
    /// Σ engine solve time of `requests`, µs (busy-ratio numerator).
    engine_us: f64,
    sim_ns_per_cell: Vec<f64>,
    cache: cpo_engine::CacheStats,
    verdict: Verdict,
    requests: Vec<SolveRequest>,
}

fn duration_of_last(tr: &Tracer) -> f64 {
    tr.spans().last().map_or(0.0, |s| (s.end - s.start) as f64 / 1e3)
}

/// What one line did on the request path.
struct LineRun {
    req: Option<SolveRequest>,
    outcome: ServeOutcome,
    parse_us: f64,
    engine_us: f64,
    hit: bool,
    check_failed: bool,
}

/// Per line, what the program does for it, each layer call in a span of
/// `tr`: parse, admission digest (serve), deadline plan, engine solve,
/// `--check` (batch), render.
fn run_line(
    ctx: &Ctx,
    i: u64,
    line: &str,
    tr: &mut Tracer,
    engine: &Engine,
    scratch: &mut RouterScratch,
) -> LineRun {
    let serve = ctx.g.workload.is_serve();
    let id = ctx.g.templates[ctx.g.template_index(i)].req.as_ref().map(|_| ctx.g.id(i));
    let mut run = LineRun {
        req: None,
        outcome: ServeOutcome::Failed { reason: String::new() },
        parse_us: 0.0,
        engine_us: 0.0,
        hit: false,
        check_failed: false,
    };
    tr.span("request", i, |tr| {
        let parsed = tr.span("io.parse", i, |_| SolveRequest::from_json(line));
        run.parse_us = duration_of_last(tr);
        let render = |tr: &mut Tracer, outcome: &ServeOutcome| {
            let reply = ServeReply {
                seq: i,
                id: id.clone(),
                tenant: None,
                downgraded: false,
                elapsed_ms: 0.0,
                outcome: outcome.clone(),
            };
            black_box(tr.span("io.render", i, |_| reply.to_json_compact()).ok());
        };
        let req = match parsed {
            Ok(req) => req,
            Err(e) => {
                run.outcome = ServeOutcome::Rejected {
                    reason: RejectReason::Invalid,
                    detail: format!("parse error: {e}"),
                };
                render(tr, &run.outcome);
                return;
            }
        };
        if serve {
            black_box(tr.span("hash.digest", i, |_| {
                (hash_instance(&req.apps, &req.platform), hash_spec(&req.problem))
            }));
        }
        if let Some(budget_ms) = req.deadline_ms {
            let est_ms = tr.span("router.plan", i, |_| {
                plan(&req.apps, &req.platform, &req.problem).ok().map(|p| {
                    p.cost_estimate(&req.apps, &req.platform, &req.problem)
                        / DEFAULT_COST_UNITS_PER_MS
                })
            });
            if let Some(est_ms) = est_ms.filter(|&e| e > budget_ms) {
                run.outcome = ServeOutcome::Deadline {
                    exceeded_at: DeadlineStage::Plan,
                    budget_ms,
                    elapsed_ms: 0,
                    estimated_ms: est_ms,
                };
                render(tr, &run.outcome);
                run.req = Some(req);
                return;
            }
        }
        let hits = engine.cache_stats().hits;
        let out = tr.span("engine.solve", i, |_| {
            engine.solve_with(&req.apps, &req.platform, &req.problem, scratch)
        });
        run.engine_us = duration_of_last(tr);
        run.hit = engine.cache_stats().hits > hits;
        if serve {
            run.outcome = ServeOutcome::Done { result: out };
            render(tr, &run.outcome);
        } else {
            let ds = datasets(ctx.g.workload);
            run.check_failed = tr.span("sim.check", i, |_| check_outcome(&req, &out, ds)).is_err();
            black_box(tr.span("io.render", i, |_| out.to_json_compact()).ok());
            run.outcome = ServeOutcome::Done { result: out };
        }
        run.req = Some(req);
    });
    run
}

/// Replay stream lines `0..` through the layers until `budget` passes or
/// `limit` lines are done. Every line runs twice, traced and untraced,
/// each on its own engine (so both see the same cache hits) and in
/// alternating order, so drift of the shared host cancels out of the
/// tracing overhead.
fn replay(ctx: &Ctx, budget: Duration, limit: u64) -> Replay {
    let serve = ctx.g.workload.is_serve();
    let config = EngineConfig { threads: 1, ..EngineConfig::default() };
    let engines = [Engine::new(config.clone()), Engine::new(config)];
    let mut scratch = [RouterScratch::new(), RouterScratch::new()];
    let mut cold_scratch = RouterScratch::new();
    let mut untraced = Tracer::new(false);
    let mut r = Replay {
        tracer: Tracer::new(true),
        lines: 0,
        path_ns: [0, 0],
        parse_ns_per_byte: Vec::new(),
        solve_us: BTreeMap::new(),
        estimate_ratio: BTreeMap::new(),
        miss_overhead_us: Vec::new(),
        hit_us: Vec::new(),
        engine_us: 0.0,
        sim_ns_per_cell: Vec::new(),
        cache: Default::default(),
        verdict: Verdict::default(),
        requests: Vec::new(),
    };
    let start = Instant::now();
    let ds = datasets(ctx.g.workload);
    while r.lines < limit && start.elapsed() < budget {
        let i = r.lines;
        let t = ctx.g.template_index(i);
        let line = if serve { ctx.g.line(i) } else { ctx.g.templates[t].line(None) };
        let mut traced = None;
        for pass in if i.is_multiple_of(2) { [0, 1] } else { [1, 0] } {
            let tr = if pass == 0 { &mut r.tracer } else { &mut untraced };
            let t0 = Instant::now();
            let run = run_line(ctx, i, &line, tr, &engines[pass], &mut scratch[pass]);
            r.path_ns[pass] += t0.elapsed().as_nanos() as u64;
            r.verdict.attempted += 1;
            if !judge(ctx.wants[t].want, &run.outcome) || run.check_failed {
                r.verdict.wrong += 1;
            }
            if pass == 0 {
                traced = Some(run);
            }
        }
        r.lines += 1;
        let run = traced.expect("the traced pass ran");
        // Only solved requests feed the pool pass: exact searches are
        // shed on the serve path and must not run there either.
        let Some(req) = run.req.filter(|_| matches!(run.outcome, ServeOutcome::Done { .. })) else {
            continue;
        };
        r.parse_ns_per_byte.push(run.parse_us * 1e3 / line.len() as f64);
        let hit = run.hit;
        measure_extras(
            &mut r,
            i,
            &req,
            &run.outcome,
            hit,
            run.engine_us,
            &mut cold_scratch,
            ds,
            serve,
        );
        if r.requests.len() < POOL_ITEMS {
            r.engine_us += run.engine_us;
            r.requests.push(req);
        }
    }
    r.cache = engines[0].cache_stats();
    r
}

/// The root spans outside the request path (traced pass only).
#[allow(clippy::too_many_arguments)]
fn measure_extras(
    r: &mut Replay,
    i: u64,
    req: &SolveRequest,
    outcome: &ServeOutcome,
    hit: bool,
    engine_us: f64,
    scratch: &mut RouterScratch,
    ds: usize,
    serve: bool,
) {
    let tr = &mut r.tracer;
    let (apps, pf, spec) = (&req.apps, &req.platform, &req.problem);
    // Batch has no admission digest and only deadline requests plan on
    // the serve path: time those layers here instead.
    if !serve {
        black_box(tr.span("hash.digest", i, |_| (hash_instance(apps, pf), hash_spec(spec))));
    }
    let planned = if req.deadline_ms.is_some() {
        plan(apps, pf, spec).ok()
    } else {
        tr.span("router.plan", i, |_| plan(apps, pf, spec).ok())
    };
    let ServeOutcome::Done { result } = outcome else {
        return;
    };
    if hit {
        r.hit_us.push(engine_us);
        return;
    }
    // A miss: the same solve again, straight through the router.
    black_box(tr.span("router.route", i, |_| route_with(apps, pf, spec, scratch)));
    let route_us = duration_of_last(tr);
    r.miss_overhead_us.push(engine_us - route_us);
    if let Some(p) = planned {
        if let Some(f) = family(p) {
            r.solve_us.entry(f).or_default().push(route_us);
            let est_ms = p.cost_estimate(apps, pf, spec) as f64 / DEFAULT_COST_UNITS_PER_MS as f64;
            r.estimate_ratio.entry(f).or_default().push(est_ms / (route_us / 1e3));
        }
    }
    if r.sim_ns_per_cell.len() < SIM_SAMPLES {
        let mapping = match result {
            SolveOutcome::Solution(s) => s.mapping.as_plain(),
            SolveOutcome::Front(entries) => entries.first().and_then(|e| e.mapping.as_plain()),
            _ => None,
        };
        if let Some(m) = mapping {
            black_box(
                tr.span("sim.simulate", i, |_| cpo_simulator::simulate(apps, pf, m, spec.comm, ds)),
            );
            let ns = duration_of_last(tr) * 1e3;
            r.sim_ns_per_cell.push(ns / (ds * apps.total_stages()) as f64);
        }
        // Serve runs no `--check`; time what it would cost on these
        // outcomes (batch times it on the request path).
        if serve {
            black_box(tr.span("sim.check", i, |_| check_outcome(req, result, ds)).ok());
        }
    }
}

/// What one in-process server pass saw.
struct ServerPass {
    submit_us: Vec<f64>,
    turnaround_us: Vec<f64>,
    backlog: Vec<f64>,
    lag_ms: Vec<f64>,
    snap: StatsSnapshot,
    verdict: Verdict,
}

/// Submit `lines` stream lines to an in-process server at `rate` per
/// second, as raw lines (`submit_line`) or pre-parsed (`submit`).
fn server_pass(ctx: &Ctx, lines: u64, rate: f64, preparsed: bool) -> ServerPass {
    let replies: Arc<Mutex<Vec<(Instant, ServeReply)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_replies = Arc::clone(&replies);
    let sink = Arc::new(move |r: &ServeReply| {
        let now = Instant::now();
        sink_replies.lock().expect("sink lock is never poisoned").push((now, r.clone()));
    });
    let cfg = ServeConfig {
        threads: SERVE_WORKERS,
        queue_capacity: SERVE_QUEUE,
        engine: EngineConfig { threads: 1, ..EngineConfig::default() },
        ..ServeConfig::default()
    };
    let g = &ctx.g;
    let mut inputs = Vec::new();
    let mut ids = Vec::new();
    for i in 0..lines {
        let line = g.line(i);
        let parsed = SolveRequest::from_json(&line).ok();
        if preparsed && parsed.is_none() {
            continue;
        }
        ids.push((parsed.as_ref().and_then(|r| r.id.clone()), g.template_index(i)));
        inputs.push((line, parsed));
    }
    let sent: Vec<Sent<'_>> =
        ids.iter().map(|(id, t)| Sent { id: id.as_deref(), expected: &ctx.wants[*t] }).collect();
    let server = Server::start(cfg, sink, ServerHooks::default());
    let mut p = ServerPass {
        submit_us: Vec::new(),
        turnaround_us: Vec::new(),
        backlog: Vec::new(),
        lag_ms: Vec::new(),
        snap: server.snapshot(),
        verdict: Verdict::default(),
    };
    let mut submitted = Vec::with_capacity(inputs.len());
    let start = Instant::now() + Duration::from_millis(1);
    for (k, (line, parsed)) in inputs.into_iter().enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let req = parsed.filter(|_| preparsed);
        let t0 = Instant::now();
        match req {
            Some(req) => server.submit(req),
            None => server.submit_line(&line),
        };
        let t1 = Instant::now();
        p.lag_ms.push((t0 - due).as_secs_f64() * 1e3);
        p.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        p.backlog.push(server.backlog() as f64);
        submitted.push(t0);
    }
    p.snap = server.drain();
    let replies = std::mem::take(&mut *replies.lock().expect("sink lock is never poisoned"));
    for (t, r) in &replies {
        if let Some(t0) = submitted.get(r.seq as usize) {
            p.turnaround_us.push((*t - *t0).as_secs_f64() * 1e6);
        }
    }
    let typed: Vec<ServeReply> = replies.into_iter().map(|(_, r)| r).collect();
    p.verdict = check_replies(&sent, &typed);
    p
}

/// Run the traced measurement and fill the per-layer metrics.
pub fn run(ctx: &Ctx, report: &mut Report) -> std::io::Result<()> {
    let w = ctx.g.workload;
    let s = ctx.seconds;
    let pass_len = if w == Workload::ServeHot { u64::MAX } else { ctx.g.pass.len() as u64 };

    // 1. The real binary, untraced: CPU per line.
    let e2e =
        if w.is_serve() { e2e::serve(ctx, s * 0.2, false)? } else { e2e::batch(ctx, 0.0, 1)? };
    let cpu_us = e2e.cpu_s * 1e6 / e2e.lines.max(1) as f64;

    // 2-3. Serial replay, every line traced and untraced.
    let traced = replay(ctx, Duration::from_secs_f64(s * 0.4), pass_len);

    // 4. In-process server passes.
    let rate = offered_rate(w);
    let n = ((rate * s * 0.12) as u64).min(pass_len).max(1);
    let by_line = server_pass(ctx, n, rate, false);
    let by_struct = server_pass(ctx, n, rate, true);

    // 5. The batch pool's busy ratio over the replayed requests.
    let items: Vec<BatchItem<'_>> =
        traced.requests.iter().map(|r| BatchItem::new(&r.apps, &r.platform, &r.problem)).collect();
    let pool = Engine::new(EngineConfig::with_threads(SERVE_WORKERS));
    let t0 = Instant::now();
    black_box(pool.solve_batch(&items));
    let pool_s = t0.elapsed().as_secs_f64();
    let busy = traced.engine_us / 1e6 / (pool_s * SERVE_WORKERS as f64);

    // Correctness of everything that produced a verdict.
    let mut v = e2e.verdict;
    for other in [&traced.verdict, &by_line.verdict, &by_struct.verdict] {
        v.add(other);
    }
    report.attempted += v.attempted;
    report.failed += v.failed();
    report.process_failed |= e2e.process_failed;

    // Per-layer self times.
    let spans = traced.tracer.spans();
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (sp, t) in spans.iter().zip(&selfs) {
        by_name.entry(sp.name).or_default().push(*t as f64 / 1e3);
    }
    let med = |name: &str| by_name.get(name).map_or(0.0, |xs| median(xs));
    report.set("io.parse_us", med("io.parse"));
    report.set("io.parse_ns_per_byte", median(&traced.parse_ns_per_byte));
    report.set("io.render_us", med("io.render"));
    report.set("hash.digest_us", med("hash.digest"));
    report.set("router.plan_us", med("router.plan"));
    for f in FAMILIES {
        let solve = traced.solve_us.get(f).map_or(0.0, |xs| median(xs));
        let ratio = traced.estimate_ratio.get(f).map_or(0.0, |xs| median(xs));
        report.set(format!("router.solve_us.{f}"), solve);
        report.set(format!("router.estimate_over_actual.{f}"), ratio);
    }
    let c = traced.cache;
    report.set("engine.hit_us", median(&traced.hit_us));
    report.set("engine.hit_ratio", c.hits as f64 / (c.hits + c.misses).max(1) as f64);
    report.set("engine.miss_overhead_us", median(&traced.miss_overhead_us));
    report.set("engine.evictions", c.evictions as f64);
    report.set("engine.batch_busy_ratio", busy);
    let submit_us = median(&by_line.submit_us);
    let admit_us = median(&by_struct.submit_us);
    report.set("serve.submit_us", submit_us);
    report.set("serve.admit_us", admit_us);
    report.set("serve.turnaround_p50_us", quantile(&by_line.turnaround_us, 0.5));
    report.set("serve.turnaround_p99_us", quantile(&by_line.turnaround_us, 0.99));
    report.set("serve.backlog_p99", quantile(&by_line.backlog, 0.99));
    let st = &by_line.snap;
    for (name, value) in [
        ("serve.accepted", st.accepted),
        ("serve.rejected_queue_full", st.rejected_queue_full),
        ("serve.rejected_rate_limited", st.rejected_rate_limited),
        ("serve.rejected_invalid", st.rejected_invalid),
        ("serve.deadline_dequeue", st.deadline_dequeue),
        ("serve.deadline_plan", st.deadline_plan),
        ("serve.failed", st.failed),
    ] {
        report.set(name, value as f64);
    }
    report.set("sim.check_us", med("sim.check"));
    report.set("sim.ns_per_dataset_stage", median(&traced.sim_ns_per_cell));

    // The layer-sum table: direct children of each request span, plus
    // serve admission (its digest is already the hash.digest row).
    let mut rows: BTreeMap<&str, f64> = BTreeMap::new();
    for (sp, t) in spans.iter().zip(&selfs) {
        if sp.parent.is_some_and(|p| spans[p].name == "request") {
            *rows.entry(sp.name).or_insert(0.0) += *t as f64 / 1e3;
        }
    }
    let per = traced.lines.max(1) as f64;
    let mut table: Vec<(String, f64)> =
        rows.into_iter().map(|(k, v)| (k.to_string(), v / per)).collect();
    if w.is_serve() {
        table.push(("serve.admission".into(), (admit_us - med("hash.digest")).max(0.0)));
    }
    let sum: f64 = table.iter().map(|(_, v)| v).sum();
    let unexplained = 1.0 - sum / cpu_us;
    report.set("cli.layer_sum_us", sum);
    report.set("cli.process_cpu_us", cpu_us);
    report.set("cli.unexplained_share", unexplained);
    let lag = if w.is_serve() { &e2e.lag_ms } else { &by_line.lag_ms };
    report.set("harness.send_lag_p99_ms", quantile(lag, 0.99));
    let overhead = traced.path_ns[0] as f64 / traced.path_ns[1].max(1) as f64;
    report.set("harness.trace_overhead_ratio", overhead);
    report.set("harness.traced_requests", traced.lines as f64);

    println!(
        "layer-sum {} (self time per request over {} traced requests):",
        w.name(),
        traced.lines
    );
    for (name, v) in &table {
        println!("  {name:<24} {v:>12.2} us");
    }
    println!("  {:<24} {sum:>12.2} us", "sum of layers");
    println!(
        "  {:<24} {cpu_us:>12.2} us   ({} lines through the release binary)",
        "process CPU per line", e2e.lines
    );
    println!("  {:<24} {unexplained:>12.3}", "cli.unexplained_share");
    println!(
        "tracing: {} spans, traced/untraced request path {overhead:.3}; server passes {} + {} lines",
        spans.len(),
        by_line.submit_us.len(),
        by_struct.submit_us.len()
    );
    let path = ctx.work.join(format!("spans-{}-{}.tsv", w.name(), ctx.g.seed));
    traced.tracer.write_to(&path)?;
    println!("spans written to {}", path.display());
    Ok(())
}
