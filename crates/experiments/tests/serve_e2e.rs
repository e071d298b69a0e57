//! End-to-end drills for the `serve` subcommand and the streaming JSONL
//! contract, run against the compiled binaries (`cpo-experiments`,
//! `load_gen`) so transport, signal, and environment wiring are covered —
//! not just the library layer that `crates/serve/tests` already locks.

use cpo_model::prelude::*;
use cpo_model::spec::Strategy;
use cpo_serve::{ServeOutcome, ServeReply};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cpo-experiments"))
}

fn load_gen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_load_gen"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpo-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn request_line(tb: f64) -> String {
    let (apps, _) = cpo_model::generator::section2_example();
    let platform = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
    let problem = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
        .with_period_bounds(vec![tb, tb]);
    SolveRequest::new("e2e", apps, platform, problem)
        .with_id(format!("e2e-{tb}"))
        .to_json_compact()
        .unwrap()
}

/// Generate a request file with `load_gen gen`, returning its lines.
fn generate(dir: &Path, args: &[&str]) -> String {
    let out = load_gen().args(["gen"]).args(args).output().expect("run load_gen gen");
    assert!(out.status.success(), "load_gen gen failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("utf8 request stream");
    std::fs::write(dir.join("reqs.jsonl"), &text).expect("write request file");
    text
}

/// Run `serve --once` over `input`, returning (stdout, stderr).
fn serve_once(input: &str, envs: &[(&str, &str)], extra: &[&str]) -> (String, String) {
    let mut cmd = bin();
    cmd.args(["serve", "--once", "--stats-secs", "0"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn serve");
    child.stdin.take().unwrap().write_all(input.as_bytes()).expect("feed stdin");
    let out = child.wait_with_output().expect("serve exits");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "serve exited nonzero:\n{stderr}");
    (String::from_utf8_lossy(&out.stdout).to_string(), stderr)
}

/// Assert the full reply contract with `load_gen verify`.
fn verify(dir: &Path, replies: &str) {
    std::fs::write(dir.join("replies.jsonl"), replies).expect("write reply file");
    let out = load_gen()
        .args(["verify", "--requests"])
        .arg(dir.join("reqs.jsonl"))
        .arg("--responses")
        .arg(dir.join("replies.jsonl"))
        .output()
        .expect("run load_gen verify");
    assert!(
        out.status.success(),
        "reply contract violated:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

// ---------------------------------------------------------------------------
// satellite: streaming JSONL robustness in `batch`
// ---------------------------------------------------------------------------

#[test]
fn batch_garbage_lines_become_typed_unsupported_outcomes_in_order() {
    let dir = scratch("batch-garbage");
    let lines = [
        request_line(2.0),
        "{not json at all".to_string(),
        request_line(1.5),
        "42".to_string(),
        "{\"description\": \"missing everything\"}".to_string(),
        request_line(1.0),
        // Nesting far past the parser's depth limit: a typed parse error,
        // not a stack overflow.
        "[".repeat(100_000),
    ];
    let path = dir.join("batch.jsonl");
    std::fs::write(&path, lines.join("\n")).expect("write batch file");

    let out = bin().arg("batch").arg(&path).output().expect("run batch");
    assert!(out.status.success(), "batch failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let outcomes: Vec<SolveOutcome> = stdout
        .lines()
        .map(|l| SolveOutcome::from_json(l).expect("every batch line is a typed outcome"))
        .collect();
    assert_eq!(outcomes.len(), lines.len(), "one outcome per input line, garbage included");
    for (i, expect_garbage) in [false, true, false, true, true, false, true].iter().enumerate() {
        match (&outcomes[i], expect_garbage) {
            (SolveOutcome::Solution { .. }, false) => {}
            (SolveOutcome::Unsupported { reason }, true) => {
                assert!(
                    reason.contains("unparseable request"),
                    "line {i}: garbage must carry a parse reason, got `{reason}`"
                );
            }
            (other, _) => panic!("line {i}: unexpected outcome {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// serve: clean run, chaos drills
// ---------------------------------------------------------------------------

#[test]
fn serve_once_answers_every_line_exactly_once() {
    let dir = scratch("clean");
    let reqs = generate(&dir, &["--mix", "mixed", "--count", "48", "--seed", "3", "--garbage", "2"]);
    // One more garbage line, nested far past the parser's depth limit: it
    // must get its typed `Invalid` reply like any other.
    let reqs = format!("{}\n{}\n", reqs.trim_end(), "[".repeat(100_000));
    std::fs::write(dir.join("reqs.jsonl"), &reqs).expect("rewrite request file");
    let (replies, _) = serve_once(&reqs, &[], &[]);
    verify(&dir, &replies);
}

#[test]
fn serve_survives_panic_chaos_and_exports_repro_bundles() {
    let dir = scratch("chaos-panic");
    let bundles = dir.join("bundles");
    let reqs = generate(&dir, &["--mix", "duplicate", "--count", "40", "--seed", "11"]);
    let (replies, stderr) = serve_once(
        &reqs,
        &[
            ("CPO_SERVE_CHAOS", "panic=0.3"),
            ("CPO_SERVE_CHAOS_SEED", "5"),
            ("CPO_BUNDLE_DIR", bundles.to_str().unwrap()),
        ],
        &[],
    );
    verify(&dir, &replies);
    let failed = replies
        .lines()
        .filter(|l| {
            matches!(ServeReply::from_json(l).unwrap().outcome, ServeOutcome::Failed { .. })
        })
        .count();
    assert!(failed > 0, "panic=0.3 over 40 requests must hit at least once");
    let exported = std::fs::read_dir(&bundles).map(|d| d.count()).unwrap_or(0);
    assert!(exported > 0, "injected panics must freeze repro bundles\n{stderr}");
}

#[test]
fn serve_quarantines_poison_after_strikes_under_chaos() {
    let dir = scratch("chaos-poison");
    let reqs =
        generate(&dir, &["--mix", "duplicate", "--count", "40", "--seed", "9", "--poison", "3"]);
    let (replies, stderr) = serve_once(
        &reqs,
        &[
            ("CPO_SERVE_CHAOS", "poison=POISON"),
            ("CPO_BUNDLE_DIR", dir.join("bundles").to_str().unwrap()),
        ],
        &["--strikes", "2"],
    );
    verify(&dir, &replies);
    let mut failed = 0usize;
    let mut quarantined = 0usize;
    for line in replies.lines() {
        match ServeReply::from_json(line).unwrap().outcome {
            ServeOutcome::Failed { .. } => failed += 1,
            ServeOutcome::Rejected { detail, .. } if detail.contains("quarantine") => {
                quarantined += 1
            }
            _ => {}
        }
    }
    // Ingress can admit the third poison request before the second strike
    // lands (strict serialized counts are locked in crates/serve/tests);
    // what must hold regardless of racing: every poison line is either a
    // typed failure or a quarantine bounce, and at least the threshold
    // count failed before the breaker could trip.
    assert!(failed >= 2, "strike threshold 2 admits at least two poison failures\n{stderr}");
    assert_eq!(failed + quarantined, 3, "every poison line gets a typed reply\n{stderr}");
}

#[test]
fn serve_keeps_exactly_once_under_stall_chaos() {
    let dir = scratch("chaos-stall");
    let reqs = generate(&dir, &["--mix", "mixed", "--count", "32", "--seed", "17"]);
    let (replies, _) =
        serve_once(&reqs, &[("CPO_SERVE_CHAOS", "stall=0.5:10")], &["--threads", "4"]);
    verify(&dir, &replies);
}

// ---------------------------------------------------------------------------
// serve: socket ingress and control verbs
// ---------------------------------------------------------------------------

#[test]
fn serve_socket_takes_requests_and_control_verbs() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let dir = scratch("socket");
    let sock = dir.join("serve.sock");
    let child = bin()
        .args(["serve", "--stats-secs", "0", "--socket"])
        .arg(&sock)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The socket appears once the listener binds.
    let mut waited = 0u64;
    while !sock.exists() {
        assert!(waited < 10_000, "socket never appeared");
        std::thread::sleep(std::time::Duration::from_millis(20));
        waited += 20;
    }

    let stream = UnixStream::connect(&sock).expect("connect to serve socket");
    let mut writer = stream.try_clone().expect("clone socket stream");
    let mut reader = BufReader::new(stream);

    // Control verb: stats comes back on the same connection.
    writeln!(writer, "stats").expect("send stats verb");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read stats reply");
    assert!(line.contains("\"accepted\":0"), "fresh stats line, got: {line}");

    // A request over the socket is answered on stdout.
    writeln!(writer, "{}", request_line(2.0)).expect("send request");
    // Graceful shutdown over the socket drains and exits 0.
    writeln!(writer, "shutdown").expect("send shutdown verb");

    let out = child.wait_with_output().expect("serve exits after shutdown");
    assert!(out.status.success(), "shutdown must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let replies: Vec<ServeReply> =
        stdout.lines().map(|l| ServeReply::from_json(l).expect("typed reply")).collect();
    assert_eq!(replies.len(), 1, "the socket request is answered exactly once");
    assert!(matches!(replies[0].outcome, ServeOutcome::Done { .. }));
    assert_eq!(replies[0].id.as_deref(), Some("e2e-2"));
    assert!(!sock.exists(), "socket file is removed on exit");
}
