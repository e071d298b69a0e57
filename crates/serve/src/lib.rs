//! `cpo_serve`: the long-lived solve service over the batch engine.
//!
//! A [`Server`] owns a worker pool, a bounded ingress queue, and the
//! robustness layers the ROADMAP's serving story needs — each one a
//! *typed* degraded mode, never a silent drop:
//!
//! * **Admission control** ([`queue`], [`tenant`]): a full queue or an
//!   out-of-tokens tenant gets an immediate `Rejected{..}` reply; the
//!   accept loop never blocks on solver progress.
//! * **Deadlines**: `deadline_ms` budgets are enforced at dequeue and
//!   again at plan time via [`Plan::cost_estimate`] — provably
//!   over-budget work is shed *before* it burns a worker, optionally
//!   downgrading to a heuristic plan that fits the budget.
//! * **Quarantine** ([`quarantine`]): engine panics (already degraded to
//!   typed outcomes by the engine backstop), worker panics and `--check`
//!   mismatches charge strikes against the request's structural digest;
//!   repeat offenders are rejected at admission until operator reset,
//!   and the first strike per digest exports a repro bundle through the
//!   [`FailureHook`].
//! * **Graceful drain**: [`Server::drain`] closes the queue, lets the
//!   workers finish every accepted request, and joins them. The
//!   invariant — proven by the exactly-once property test — is one reply
//!   per submitted request, always.
//! * **Chaos** ([`chaos`]): deterministic fault injection (worker
//!   panics, stalls, poison markers) so the drill in CI exercises the
//!   degraded modes on every run.
//!
//! The crate is transport-free: callers push [`SolveRequest`]s (or raw
//! JSONL lines) in and receive [`ServeReply`]s through a [`ReplySink`]
//! closure. stdin/Unix-socket framing, stats printing and bundle export
//! live in the `cpo-experiments serve` binary, wired in through hooks so
//! this crate never depends on the trust subsystem above it.

pub mod chaos;
pub mod quarantine;
pub mod queue;
pub mod stats;
pub mod tenant;

use chaos::{ChaosAction, ChaosConfig};
use cpo_core::router::{plan, RouterScratch};
use cpo_engine::{panic_payload, CacheKey, Engine, EngineConfig};
use cpo_model::bundle::FailureKind;
use cpo_model::hash::{hash_instance, hash_spec};
use cpo_model::io::serde_json_error;
use cpo_model::prelude::*;
use quarantine::Quarantine;
use queue::BoundedQueue;
use serde::{Deserialize, Serialize};
use stats::{CacheSnapshot, ServeStats};
pub use stats::StatsSnapshot;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use tenant::TenantGovernor;

/// Default ingress queue capacity.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;
/// Default quarantine strike threshold.
pub const DEFAULT_STRIKES: u32 = 3;
/// Deadline calibration of the plan-time gate: abstract
/// [`Plan::cost_estimate`] units per millisecond (the estimates are
/// "roughly nanoseconds", so 1e6 units/ms, derated 2× for safety margin).
pub const DEFAULT_COST_UNITS_PER_MS: u64 = 2_000_000;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
    /// Ingress queue capacity (admission rejects beyond it).
    pub queue_capacity: usize,
    /// Per-tenant token refill rate, requests/second (`0` = unlimited).
    pub rate_per_sec: f64,
    /// Per-tenant burst capacity, tokens.
    pub burst: f64,
    /// Strikes before a digest is quarantined.
    pub strikes: u32,
    /// When a deadline cannot be met by the planned solver, retry the
    /// plan with `heuristic_fallback` before shedding.
    pub deadline_downgrade: bool,
    /// Engine configuration (the memo cache lives here).
    pub engine: EngineConfig,
    /// Fault injection (`None` = no chaos).
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            rate_per_sec: 0.0,
            burst: 64.0,
            strikes: DEFAULT_STRIKES,
            deadline_downgrade: false,
            engine: EngineConfig::default(),
            chaos: None,
        }
    }
}

/// Why admission rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The bounded ingress queue is full — back off and retry.
    QueueFull,
    /// The tenant's token bucket is empty.
    RateLimited,
    /// The structural digest is quarantined (too many strikes).
    Quarantined,
    /// The server is draining.
    ShuttingDown,
    /// The request line did not parse.
    Invalid,
}

/// Where a deadline was found unmeetable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeadlineStage {
    /// The budget had already elapsed when a worker dequeued the
    /// request.
    Dequeue,
    /// The planned solver's cost estimate provably overruns the budget.
    Plan,
}

/// The typed verdict carried by every reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeOutcome {
    /// The solver answered (solution, front, infeasible or unsupported —
    /// all typed solver verdicts, including the engine's panic
    /// backstop).
    Done {
        /// The solver's verdict.
        result: SolveOutcome,
    },
    /// Admission refused the request.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Human-readable detail (tenant, queue depth, parse error…).
        detail: String,
    },
    /// The deadline budget was provably unmeetable; the request was
    /// shed without burning a worker on it.
    Deadline {
        /// Where the overrun was detected.
        exceeded_at: DeadlineStage,
        /// The request's budget, milliseconds from admission.
        budget_ms: u64,
        /// Time already spent when the verdict was reached.
        elapsed_ms: u64,
        /// Estimated solve cost in milliseconds (0 at dequeue stage).
        estimated_ms: u64,
    },
    /// The worker failed while holding the request (injected panic,
    /// check mismatch). The request is answered — exactly once — all
    /// the same.
    Failed {
        /// What happened.
        reason: String,
    },
}

/// One reply line: every submitted request produces exactly one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReply {
    /// Admission sequence number (server-assigned, monotonic).
    pub seq: u64,
    /// The request's correlation id, echoed verbatim.
    #[serde(default)]
    pub id: Option<String>,
    /// The request's tenant, echoed verbatim.
    #[serde(default)]
    pub tenant: Option<String>,
    /// True when the solve ran under a deadline-driven heuristic
    /// downgrade (feasible but not certified optimal).
    pub downgraded: bool,
    /// Admission→reply latency, milliseconds (0 for admission-time
    /// rejections).
    pub elapsed_ms: f64,
    /// The verdict.
    pub outcome: ServeOutcome,
}

impl ServeReply {
    /// Compact single-line JSON (the serve wire format).
    pub fn to_json_compact(&self) -> Result<String, serde_json_error::Error> {
        serde_json_error::to_string(self)
    }

    /// Parse a reply line.
    pub fn from_json(json: &str) -> Result<Self, serde_json_error::Error> {
        serde_json_error::from_str(json)
    }
}

/// Where replies go. Called exactly once per submitted request, from
/// admission (rejections) or worker threads (everything else) — the sink
/// must be thread-safe and is expected to be cheap (serialize + write).
pub type ReplySink = Arc<dyn Fn(&ServeReply) + Send + Sync>;

/// Failure capture: called on the *first* strike of a digest with the
/// offending request, the failure kind and a message. Returns `true`
/// when a repro bundle was exported (counted in stats). The binary wires
/// this to the trust subsystem's bundle export.
pub type FailureHook = Arc<dyn Fn(&SolveRequest, FailureKind, &str) -> bool + Send + Sync>;

/// Result cross-validation (`--check`): `Err(message)` marks the outcome
/// untrusted — the reply degrades to `Failed` and the digest is struck.
pub type CheckHook = Arc<dyn Fn(&SolveRequest, &SolveOutcome) -> Result<(), String> + Send + Sync>;

/// Optional capture hooks (both default to "off").
#[derive(Default, Clone)]
pub struct ServerHooks {
    /// See [`FailureHook`].
    pub failure: Option<FailureHook>,
    /// See [`CheckHook`].
    pub check: Option<CheckHook>,
}

/// One queued unit of accepted work.
struct Entry {
    seq: u64,
    req: SolveRequest,
    key: CacheKey,
    admitted_nanos: u64,
}

struct Inner {
    cfg: ServeConfig,
    engine: Engine,
    queue: BoundedQueue<Entry>,
    governor: TenantGovernor,
    quarantine: Quarantine,
    stats: ServeStats,
    sink: ReplySink,
    hooks: ServerHooks,
    draining: AtomicBool,
    seq: AtomicU64,
    clock: Instant,
}

/// The long-lived solve service. See the crate docs for the layer map.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start the worker pool. Replies flow to `sink` from this moment
    /// on; the server runs until [`Server::drain`].
    pub fn start(cfg: ServeConfig, sink: ReplySink, hooks: ServerHooks) -> Server {
        let threads = if cfg.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            cfg.threads
        };
        let inner = Arc::new(Inner {
            engine: Engine::new(cfg.engine.clone()),
            queue: BoundedQueue::new(cfg.queue_capacity),
            governor: TenantGovernor::new(cfg.rate_per_sec, cfg.burst),
            quarantine: Quarantine::new(cfg.strikes),
            stats: ServeStats::new(),
            sink,
            hooks,
            draining: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            clock: Instant::now(),
            cfg,
        });
        let workers = (0..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Server { inner, workers }
    }

    /// Submit one raw JSONL line: parse errors get a typed
    /// `Rejected{Invalid}` reply instead of tearing the stream down.
    /// Returns the admission sequence number of the reply.
    pub fn submit_line(&self, line: &str) -> u64 {
        self.inner.submit_line(line)
    }

    /// Submit one request. Admission is synchronous: a rejection reply
    /// is emitted before this returns; an accepted request is answered
    /// later by a worker. Either way, exactly one reply, carrying the
    /// returned sequence number.
    pub fn submit(&self, req: SolveRequest) -> u64 {
        self.inner.submit(req)
    }

    /// A cloneable ingress handle for reader threads (stdin, sockets):
    /// submit and observe without owning the drain.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { inner: Arc::clone(&self.inner) }
    }

    /// Graceful drain: stop admitting, let the workers answer every
    /// accepted request, join them. Consumes the server; the final
    /// [`StatsSnapshot`] is returned for the shutdown stats line.
    pub fn drain(self) -> StatsSnapshot {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.queue.close();
        for w in self.workers {
            // A worker that somehow panicked outside the per-request
            // guard is a bug, but one that must not turn drain into an
            // abort — the remaining workers still drain the queue.
            let _ = w.join();
        }
        self.inner.snapshot()
    }

    /// Current stats snapshot (periodic stats line).
    pub fn snapshot(&self) -> StatsSnapshot {
        self.inner.snapshot()
    }

    /// Operator reset of the quarantine list.
    pub fn reset_quarantine(&self) {
        self.inner.quarantine.reset();
    }

    /// Queued-but-unanswered requests right now.
    pub fn backlog(&self) -> usize {
        self.inner.queue.len()
    }
}

/// See [`Server::handle`].
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// See [`Server::submit_line`].
    pub fn submit_line(&self, line: &str) -> u64 {
        self.inner.submit_line(line)
    }

    /// See [`Server::submit`].
    pub fn submit(&self, req: SolveRequest) -> u64 {
        self.inner.submit(req)
    }

    /// See [`Server::snapshot`].
    pub fn snapshot(&self) -> StatsSnapshot {
        self.inner.snapshot()
    }

    /// See [`Server::reset_quarantine`].
    pub fn reset_quarantine(&self) {
        self.inner.quarantine.reset();
    }

    /// See [`Server::backlog`].
    pub fn backlog(&self) -> usize {
        self.inner.queue.len()
    }
}

impl Inner {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn submit_line(&self, line: &str) -> u64 {
        match SolveRequest::from_json(line) {
            Ok(req) => self.submit(req),
            Err(e) => {
                let seq = self.next_seq();
                self.stats.rejected_invalid.fetch_add(1, Ordering::Relaxed);
                self.emit(ServeReply {
                    seq,
                    id: None,
                    tenant: None,
                    downgraded: false,
                    elapsed_ms: 0.0,
                    outcome: ServeOutcome::Rejected {
                        reason: RejectReason::Invalid,
                        detail: format!("parse error: {e}"),
                    },
                });
                seq
            }
        }
    }

    fn submit(&self, req: SolveRequest) -> u64 {
        let seq = self.next_seq();
        let reject = |reason: RejectReason, detail: String| {
            self.emit(ServeReply {
                seq,
                id: req.id.clone(),
                tenant: req.tenant.clone(),
                downgraded: false,
                elapsed_ms: 0.0,
                outcome: ServeOutcome::Rejected { reason, detail },
            });
        };
        if self.draining.load(Ordering::SeqCst) {
            self.stats.rejected_shutting_down.fetch_add(1, Ordering::Relaxed);
            reject(RejectReason::ShuttingDown, "server is draining".into());
            return seq;
        }
        let key = (hash_instance(&req.apps, &req.platform), hash_spec(&req.problem));
        if self.quarantine.is_quarantined(&key) {
            self.stats.rejected_quarantined.fetch_add(1, Ordering::Relaxed);
            reject(
                RejectReason::Quarantined,
                format!("digest struck {} times", self.quarantine.threshold()),
            );
            return seq;
        }
        let tenant = req.tenant.as_deref().unwrap_or("");
        if !self.governor.admit(tenant, self.now_nanos()) {
            self.stats.rejected_rate_limited.fetch_add(1, Ordering::Relaxed);
            reject(RejectReason::RateLimited, format!("tenant `{tenant}` is out of tokens"));
            return seq;
        }
        let entry = Entry { seq, req, key, admitted_nanos: self.now_nanos() };
        match self.queue.push(entry) {
            Ok(()) => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(entry) => {
                let detail = format!("queue at capacity {}", self.cfg.queue_capacity);
                self.stats.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                self.emit(ServeReply {
                    seq: entry.seq,
                    id: entry.req.id,
                    tenant: entry.req.tenant,
                    downgraded: false,
                    elapsed_ms: 0.0,
                    outcome: ServeOutcome::Rejected { reason: RejectReason::QueueFull, detail },
                });
            }
        }
        seq
    }

    fn now_nanos(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    fn emit(&self, reply: ServeReply) {
        (self.sink)(&reply);
    }

    fn snapshot(&self) -> StatsSnapshot {
        let cs = self.engine.cache_stats();
        self.stats.snapshot(
            self.clock.elapsed().as_millis() as u64,
            CacheSnapshot {
                hits: cs.hits,
                misses: cs.misses,
                evictions: cs.evictions,
                entries: cs.entries,
            },
            self.quarantine.quarantined() as u64,
        )
    }

    /// Strike the digest; on the first strike, hand the request to the
    /// failure hook for bundle export.
    fn register_failure(&self, req: &SolveRequest, key: CacheKey, kind: FailureKind, message: &str) {
        self.stats.strikes.fetch_add(1, Ordering::Relaxed);
        let strikes = self.quarantine.strike(key);
        if strikes == 1 {
            if let Some(hook) = &self.hooks.failure {
                if hook(req, kind, message) {
                    self.stats.bundles_exported.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut scratch = RouterScratch::new();
    while let Some(entry) = inner.queue.pop() {
        // Everything needed for the panic-arm reply is cloned out
        // before the guarded section: a worker panic can poison the
        // request processing, never the reply obligation.
        let seq = entry.seq;
        let id = entry.req.id.clone();
        let tenant = entry.req.tenant.clone();
        let admitted = entry.admitted_nanos;
        let key = entry.key;
        let result = catch_unwind(AssertUnwindSafe(|| process(inner, &entry, &mut scratch)));
        let (outcome, downgraded) = match result {
            Ok(v) => v,
            Err(panic) => {
                scratch = RouterScratch::new();
                let reason = format!("worker panicked: {}", panic_payload(&*panic));
                inner.register_failure(&entry.req, key, FailureKind::EnginePanic, &reason);
                (ServeOutcome::Failed { reason }, false)
            }
        };
        let elapsed_nanos = inner.now_nanos().saturating_sub(admitted);
        match &outcome {
            ServeOutcome::Done { .. } => {
                inner.stats.done.fetch_add(1, Ordering::Relaxed);
            }
            ServeOutcome::Deadline { exceeded_at, .. } => {
                let c = match exceeded_at {
                    DeadlineStage::Dequeue => &inner.stats.deadline_dequeue,
                    DeadlineStage::Plan => &inner.stats.deadline_plan,
                };
                c.fetch_add(1, Ordering::Relaxed);
            }
            ServeOutcome::Failed { .. } => {
                inner.stats.failed.fetch_add(1, Ordering::Relaxed);
            }
            // Workers never produce admission rejections.
            ServeOutcome::Rejected { .. } => {}
        }
        if downgraded {
            inner.stats.downgraded.fetch_add(1, Ordering::Relaxed);
        }
        inner.stats.record_latency(elapsed_nanos);
        inner.emit(ServeReply {
            seq,
            id,
            tenant,
            downgraded,
            elapsed_ms: elapsed_nanos as f64 / 1e6,
            outcome,
        });
    }
}

/// Process one accepted request on a worker. Runs under the worker's
/// `catch_unwind`; returns the typed verdict plus the downgrade flag.
fn process(inner: &Inner, entry: &Entry, scratch: &mut RouterScratch) -> (ServeOutcome, bool) {
    let req = &entry.req;
    let elapsed_ms = || inner.now_nanos().saturating_sub(entry.admitted_nanos) / 1_000_000;

    // Chaos verdict first: injected faults model infrastructure failure,
    // which does not wait for the request to be cheap.
    if let Some(chaos) = &inner.cfg.chaos {
        match chaos.decide(entry.seq, &req.description) {
            ChaosAction::None => {}
            ChaosAction::Panic => {
                inner.stats.chaos_panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected worker panic (seq={})", entry.seq);
            }
            ChaosAction::Stall(ms) => {
                inner.stats.chaos_stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
    }

    // Deadline gate 1: dead on arrival (queueing ate the budget).
    let mut downgraded = false;
    let mut spec = None;
    // The solve reuses the admission digest and, when the gate below
    // planned the request, its plan: the engine neither re-hashes nor
    // re-plans.
    let mut key = entry.key;
    let mut planned = None;
    if let Some(budget_ms) = req.deadline_ms {
        let waited = elapsed_ms();
        if waited > budget_ms {
            return (
                ServeOutcome::Deadline {
                    exceeded_at: DeadlineStage::Dequeue,
                    budget_ms,
                    elapsed_ms: waited,
                    estimated_ms: 0,
                },
                false,
            );
        }
        // Deadline gate 2: the planned solver provably overruns what is
        // left of the budget. `plan` errors fall through — the solve
        // below reports the typed unsupported verdict.
        let verdict = plan(&req.apps, &req.platform, &req.problem);
        if let Ok(p) = &verdict {
            let est_ms = p.cost_estimate(&req.apps, &req.platform, &req.problem)
                / DEFAULT_COST_UNITS_PER_MS;
            if waited + est_ms > budget_ms {
                let mut shed = true;
                if inner.cfg.deadline_downgrade && !req.problem.hints.heuristic_fallback {
                    // Downgrade: trade certified optimality for a plan
                    // that fits the budget. Same instance, so only the
                    // spec half of the key changes.
                    let mut cheap = req.problem.clone();
                    cheap.hints.heuristic_fallback = true;
                    cheap.hints.exact_fallback = false;
                    if let Ok(p2) = plan(&req.apps, &req.platform, &cheap) {
                        let est2 = p2.cost_estimate(&req.apps, &req.platform, &cheap)
                            / DEFAULT_COST_UNITS_PER_MS;
                        if waited + est2 <= budget_ms {
                            key = (entry.key.0, hash_spec(&cheap));
                            planned = Some(Ok(p2));
                            spec = Some(cheap);
                            downgraded = true;
                            shed = false;
                        }
                    }
                }
                if shed {
                    return (
                        ServeOutcome::Deadline {
                            exceeded_at: DeadlineStage::Plan,
                            budget_ms,
                            elapsed_ms: waited,
                            estimated_ms: est_ms,
                        },
                        false,
                    );
                }
            }
        }
        // The gate's own verdict, unless the downgrade replaced it.
        planned.get_or_insert(verdict);
    }

    let spec = spec.as_ref().unwrap_or(&req.problem);
    let result =
        inner.engine.solve_planned(&req.apps, &req.platform, spec, key, planned.as_ref(), scratch);

    // The engine's panic backstop degrades solver panics to typed
    // `Unsupported` outcomes; recognize them and charge a strike so a
    // poison spec trips the breaker instead of panicking forever.
    if let SolveOutcome::Unsupported { reason } = &result {
        if cpo_engine::panic_details(reason).is_some() {
            inner.register_failure(req, entry.key, FailureKind::EnginePanic, reason);
        }
    }

    // Cross-validation: a mismatch means the result cannot be trusted —
    // degrade to `Failed` and strike the digest.
    if let Some(check) = &inner.hooks.check {
        if let Err(message) = check(req, &result) {
            let reason = format!("check mismatch: {message}");
            inner.register_failure(req, entry.key, FailureKind::CheckMismatch, &reason);
            return (ServeOutcome::Failed { reason }, downgraded);
        }
    }

    (ServeOutcome::Done { result }, downgraded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::generator::section2_example;
    use parking_lot::Mutex;

    /// Solves that reuse the admission digest and the deadline gate's
    /// plan answer exactly what a fresh route of the spec that ran
    /// answers, and are memoized under that spec's digest: a downgraded
    /// solve never lands under the original spec's key.
    #[test]
    fn gate_plans_and_admission_keys_reach_the_engine_intact() {
        let replies = Arc::new(Mutex::new(Vec::new()));
        let sink_replies = Arc::clone(&replies);
        let sink: ReplySink =
            Arc::new(move |r: &ServeReply| sink_replies.lock().push(r.clone()));
        let cfg = ServeConfig { threads: 1, deadline_downgrade: true, ..ServeConfig::default() };
        let server = Server::start(cfg, sink, ServerHooks::default());
        let inner = Arc::clone(&server.inner);

        let (apps, _) = section2_example();
        let pf = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
        let mut exact = ProblemSpec::new(Objective::Period, Strategy::General, CommModel::Overlap);
        exact.hints.exact_fallback = true;
        let mut cheap = exact.clone();
        cheap.hints.heuristic_fallback = true;
        cheap.hints.exact_fallback = false;
        let planned = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.0]);
        for spec in [&exact, &planned] {
            let req = SolveRequest::new("gate", apps.clone(), pf.clone(), spec.clone());
            server.submit(req.with_deadline_ms(60_000));
        }
        server.drain();

        let replies = replies.lock();
        let result = |seq: u64| match &replies.iter().find(|r| r.seq == seq).unwrap().outcome {
            ServeOutcome::Done { result } => result.clone(),
            other => panic!("expected a solve, got {other:?}"),
        };
        // The downgraded request ran `cheap`; the planned one ran as is.
        for (seq, ran) in [(0, &cheap), (1, &planned)] {
            assert_eq!(result(seq), cpo_core::route(&apps, &pf, ran));
            let misses = inner.engine.cache_stats().misses;
            assert_eq!(inner.engine.solve(&apps, &pf, ran), result(seq));
            assert_eq!(inner.engine.cache_stats().misses, misses, "cached under its own key");
        }
        let misses = inner.engine.cache_stats().misses;
        inner.engine.solve(&apps, &pf, &exact);
        assert_eq!(inner.engine.cache_stats().misses, misses + 1, "nothing cached for `exact`");
    }
}
