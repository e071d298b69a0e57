//! The `cpo-experiments serve` subcommand: transport, stats printing and
//! trust-subsystem wiring around [`cpo_serve::Server`].
//!
//! Ingress:
//!
//! * **stdin** — one JSONL `SolveRequest` per line; with `--once` the
//!   server drains and exits 0 at EOF (the drill/bench mode).
//! * **Unix socket** (`--socket PATH`) — additional ingress accepting
//!   the same lines from any number of connections.
//!
//! All solve replies stream to **stdout** as JSONL `ServeReply` lines,
//! whatever the ingress — the envelope `id` is the correlation key.
//! Control verbs (on either ingress): `shutdown` starts a graceful
//! drain, `stats` prints an immediate stats line, `reset-quarantine`
//! reopens quarantined digests. Periodic stats lines (and the final
//! drain snapshot) go to stderr as compact JSON. SIGTERM/SIGINT start
//! the same graceful drain as `shutdown`.
//!
//! Fault injection: `CPO_SERVE_CHAOS` (+ `CPO_SERVE_CHAOS_SEED`) — see
//! [`cpo_serve::chaos`].

use crate::trust;
use cpo_model::bundle::BundleSource;
use cpo_serve::chaos::ChaosConfig;
use cpo_serve::{
    CheckHook, FailureHook, ReplySink, ServeConfig, Server, ServerHandle, ServerHooks,
};
use std::io::{BufRead, Write};
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// CLI options for `serve` (parsed by the binary's flag helpers).
pub struct ServeCliOptions {
    /// Exit after stdin EOF + drain (drill/bench mode).
    pub once: bool,
    /// Optional Unix socket ingress path.
    pub socket: Option<String>,
    /// Worker threads (`None` = one per core).
    pub threads: Option<usize>,
    /// Ingress queue capacity.
    pub queue: usize,
    /// Per-tenant token rate, requests/second (0 = unlimited).
    pub rate: f64,
    /// Per-tenant burst capacity.
    pub burst: f64,
    /// Quarantine strike threshold.
    pub strikes: u32,
    /// Cross-validate every solve (the `--check` loop).
    pub check: bool,
    /// Simulator data sets for `--check` and bundle export.
    pub datasets: usize,
    /// Stats line period, seconds (0 = no periodic line).
    pub stats_secs: u64,
    /// Enable the deadline heuristic-downgrade path.
    pub downgrade: bool,
}

impl Default for ServeCliOptions {
    fn default() -> Self {
        ServeCliOptions {
            once: false,
            socket: None,
            threads: None,
            queue: cpo_serve::DEFAULT_QUEUE_CAPACITY,
            rate: 0.0,
            burst: 64.0,
            strikes: cpo_serve::DEFAULT_STRIKES,
            check: false,
            datasets: 64,
            stats_secs: 10,
            downgrade: false,
        }
    }
}

/// The drain trigger shared by SIGTERM, `shutdown` verbs and stdin EOF.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // std links libc; declaring `signal` directly keeps the approved
    // dependency set closed. SIGTERM = 15, SIGINT = 2 on linux.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(15, on_signal);
        signal(2, on_signal);
    }
}

fn chaos_from_env() -> Result<Option<ChaosConfig>, String> {
    let Some(spec) = std::env::var_os("CPO_SERVE_CHAOS") else {
        return Ok(None);
    };
    let spec = spec.to_string_lossy().to_string();
    let seed = match std::env::var_os("CPO_SERVE_CHAOS_SEED") {
        Some(s) => s
            .to_string_lossy()
            .parse::<u64>()
            .map_err(|_| "CPO_SERVE_CHAOS_SEED must be a u64".to_string())?,
        None => 0,
    };
    let cfg = ChaosConfig::parse(&spec, seed)?;
    Ok((!cfg.is_inert()).then_some(cfg))
}

/// Wire the trust subsystem into the server's capture hooks.
fn trust_hooks(check: bool, engine: cpo_engine::EngineConfig, datasets: usize) -> ServerHooks {
    let export_cfg = engine.clone();
    let failure: FailureHook = Arc::new(move |req, kind, message| {
        // A request that cannot re-serialize (poisoned numerics) cannot
        // be frozen; the strike still counts, only the export is skipped.
        let Ok(_) = req.to_json_compact() else {
            eprintln!("repro bundle skipped: request not re-serializable");
            return false;
        };
        match trust::export_bundle(
            kind,
            message.to_string(),
            None,
            BundleSource::Request(req.clone()),
            &export_cfg,
            datasets,
        ) {
            Ok(path) => {
                eprintln!("repro bundle written: {}", path.display());
                true
            }
            Err(e) => {
                eprintln!("could not write repro bundle: {e}");
                false
            }
        }
    });
    let check_hook: Option<CheckHook> = check.then(|| {
        let hook: CheckHook =
            Arc::new(move |req, out| trust::check_outcome(req, out, datasets));
        hook
    });
    ServerHooks { failure: Some(failure), check: check_hook }
}

/// One line handled from any ingress. Returns `true` when the line asked
/// for shutdown.
fn handle_line(handle: &ServerHandle, line: &str, control_out: &mut dyn Write) -> bool {
    match line.trim() {
        "" => false,
        "shutdown" => {
            SHUTDOWN.store(true, Ordering::SeqCst);
            let _ = writeln!(control_out, "draining");
            true
        }
        "stats" => {
            let snap = handle.snapshot();
            let line = cpo_model::io::serde_json_error::to_string(&snap)
                .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
            let _ = writeln!(control_out, "{line}");
            false
        }
        "reset-quarantine" => {
            handle.reset_quarantine();
            let _ = writeln!(control_out, "quarantine reset");
            false
        }
        request => {
            handle.submit_line(request);
            false
        }
    }
}

fn stats_line(handle: &ServerHandle) {
    let snap = handle.snapshot();
    match cpo_model::io::serde_json_error::to_string(&snap) {
        Ok(line) => eprintln!("{line}"),
        Err(e) => eprintln!("stats line unserializable: {e}"),
    }
}

/// Run the server; returns the process exit code.
pub fn cmd_serve(opts: ServeCliOptions) -> i32 {
    let chaos = match chaos_from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Serve workers own the parallelism; the engine solves one request
    // per worker call.
    let engine = cpo_engine::EngineConfig { threads: 1, ..Default::default() };
    let cfg = ServeConfig {
        threads: opts.threads.unwrap_or(0),
        queue_capacity: opts.queue,
        rate_per_sec: opts.rate,
        burst: opts.burst,
        strikes: opts.strikes,
        deadline_downgrade: opts.downgrade,
        engine: engine.clone(),
        chaos,
    };
    install_signal_handlers();

    // Replies: JSONL on stdout, one locked write per reply.
    let sink: ReplySink = Arc::new(move |reply| {
        let line = reply
            .to_json_compact()
            .unwrap_or_else(|e| format!("{{\"error\":\"reply unserializable: {e}\"}}"));
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    });

    let server = Server::start(cfg, sink, trust_hooks(opts.check, engine, opts.datasets));
    eprintln!("serve: ready (queue={}, strikes={})", opts.queue, opts.strikes);

    // Socket ingress: one handler thread per connection.
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
        match UnixListener::bind(path) {
            Ok(listener) => {
                let handle = server.handle();
                std::thread::spawn(move || {
                    for conn in listener.incoming().flatten() {
                        let handle = handle.clone();
                        std::thread::spawn(move || {
                            let mut writer = match conn.try_clone() {
                                Ok(w) => w,
                                Err(_) => return,
                            };
                            let reader = std::io::BufReader::new(conn);
                            for line in reader.lines() {
                                let Ok(line) = line else { break };
                                if handle_line(&handle, &line, &mut writer) {
                                    break;
                                }
                            }
                        });
                    }
                });
            }
            Err(e) => {
                eprintln!("cannot bind socket `{path}`: {e}");
                return 2;
            }
        }
    }

    // stdin ingress on its own thread so the main thread can watch the
    // shutdown flag and run the stats ticker.
    let stdin_handle = server.handle();
    let once = opts.once;
    let stdin_reader = std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut stderr = std::io::stderr();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if handle_line(&stdin_handle, &line, &mut stderr) {
                return;
            }
            if SHUTDOWN.load(Ordering::SeqCst) {
                return;
            }
        }
        // stdin EOF: in --once mode that is the drain signal.
        if once {
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
    });

    let ticker_handle = server.handle();
    let mut last_stats = std::time::Instant::now();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(25));
        if opts.stats_secs > 0 && last_stats.elapsed().as_secs() >= opts.stats_secs {
            stats_line(&ticker_handle);
            last_stats = std::time::Instant::now();
        }
    }

    // Graceful drain: answer everything accepted, print the final stats
    // line, exit 0. The stdin thread may still be blocked on a read;
    // joining it only in --once mode (where EOF is guaranteed).
    let final_snap = server.drain();
    if once {
        let _ = stdin_reader.join();
    }
    match cpo_model::io::serde_json_error::to_string(&final_snap) {
        Ok(line) => eprintln!("{line}"),
        Err(e) => eprintln!("final stats unserializable: {e}"),
    }
    eprintln!(
        "serve: drained ({} accepted, {} replies, {} quarantined)",
        final_snap.accepted,
        final_snap.replies(),
        final_snap.quarantined
    );
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
    }
    0
}
