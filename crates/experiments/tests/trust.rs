//! The trust subsystem, end to end: differential path determinism across
//! thread counts, bundle export + bit-for-bit replay, the injected
//! divergence drill (`CPO_TRUST_CORRUPT`), the poison-spec batch, and a
//! fuzz smoke. Anything that depends on environment variables runs in a
//! subprocess (the compiled `cpo-experiments` binary) so tests stay
//! parallel-safe.

use cpo_engine::EngineConfig;
use cpo_experiments::trust::{self, make_recipe, run_paths, scenario_grid};
use cpo_model::bundle::{
    BundleSource, FailureContext, FailureKind, ReproBundle,
};
use cpo_model::prelude::*;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cpo-experiments"))
}

/// A per-test scratch directory (no timestamps: process id + test name).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpo-trust-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn section2_request() -> SolveRequest {
    let (apps, _) = cpo_model::generator::section2_example();
    let platform = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
    let problem = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
        .with_period_bounds(vec![2.0, 2.0]);
    SolveRequest::new("section 2 energy compromise", apps, platform, problem)
}

fn cfg_threads(n: usize) -> EngineConfig {
    EngineConfig { threads: n, ..EngineConfig::default() }
}

// ---------------------------------------------------------------------------
// determinism across thread counts
// ---------------------------------------------------------------------------

#[test]
fn run_paths_is_bitwise_identical_across_thread_counts() {
    let req = section2_request();
    let reference = run_paths(&req, &cfg_threads(1), 32);
    assert!(
        reference.divergences.is_empty(),
        "section 2 instance must be divergence-free: {:?}",
        reference.divergences
    );
    for threads in [2, 4, 0] {
        let other = run_paths(&req, &cfg_threads(threads), 32);
        assert_eq!(other.divergences, Vec::<String>::new());
        assert_eq!(reference.paths.len(), other.paths.len());
        for (a, b) in reference.paths.iter().zip(&other.paths) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.digest, b.digest, "path `{}` digest varies with threads", a.path);
            assert_eq!(a.values, b.values, "path `{}` observations vary with threads", a.path);
        }
    }
}

#[test]
fn replay_confirms_a_bundle_recorded_under_any_thread_count() {
    let req = section2_request();
    for threads in [1usize, 3] {
        let cfg = cfg_threads(threads);
        let report = run_paths(&req, &cfg, 16);
        let bundle = ReproBundle::new(
            "unit-test bundle",
            FailureContext {
                kind: FailureKind::DifferentialMismatch,
                message: "synthetic".into(),
                item_index: None,
            },
            BundleSource::Request(req.clone()),
            trust::engine_snapshot(&cfg),
            16,
            report.paths,
        )
        .expect("bundle builds");
        // Round-trip through JSON first: replay must work from the
        // serialized artifact, not the in-memory object.
        let back = ReproBundle::from_json(&bundle.to_json().expect("serializes")).expect("parses");
        let verdict = trust::replay(&back).expect("replay runs");
        assert!(verdict.confirmed, "threads={threads}: {:#?}", verdict.details);
    }
}

#[test]
fn replay_confirms_a_generated_recipe_bundle() {
    let grid = scenario_grid();
    // A plain period/interval/overlap scenario on a dedicated platform.
    let scenario = grid
        .iter()
        .find(|s| {
            s.objective == Objective::Period
                && s.strategy == Strategy::Interval
                && s.comm == CommModel::Overlap
        })
        .expect("grid covers the basic scenario");
    let recipe = make_recipe(scenario, 2024, 0, 3);
    let cfg = cfg_threads(2);
    let req = recipe.materialize().expect("recipe materializes");
    let report = run_paths(&req, &cfg, trust::FUZZ_DATASETS);
    let bundle = ReproBundle::new(
        "unit-test recipe bundle",
        FailureContext {
            kind: FailureKind::DifferentialMismatch,
            message: "synthetic".into(),
            item_index: None,
        },
        BundleSource::Generated(recipe),
        trust::engine_snapshot(&cfg),
        trust::FUZZ_DATASETS,
        report.paths,
    )
    .expect("bundle builds");
    let dir = scratch("recipe-bundle");
    let path = bundle.write_to_dir(&dir).expect("bundle writes");
    let text = std::fs::read_to_string(&path).expect("bundle readable");
    let back = ReproBundle::from_json(&text).expect("bundle parses");
    let verdict = trust::replay(&back).expect("replay runs");
    assert!(verdict.confirmed, "{:#?}", verdict.details);
}

// ---------------------------------------------------------------------------
// the injected-divergence drill (subprocess: needs CPO_TRUST_CORRUPT)
// ---------------------------------------------------------------------------

#[test]
fn corrupted_solver_exports_a_bundle_that_replays_bit_for_bit() {
    let dir = scratch("drill");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, section2_request().to_json().expect("serializes")).unwrap();
    let bundles = dir.join("bundles");

    // 1. The corrupted solve trips --check, exits 1 and writes a bundle.
    let out = bin()
        .args(["solve", spec.to_str().unwrap(), "--check"])
        .env("CPO_TRUST_CORRUPT", "1")
        .env("CPO_BUNDLE_DIR", &bundles)
        .output()
        .expect("solve runs");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("check: MISMATCH"), "stderr: {stderr}");
    assert!(stderr.contains("repro bundle written"), "stderr: {stderr}");
    let bundle_files: Vec<_> = std::fs::read_dir(&bundles)
        .expect("bundle dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(bundle_files.len(), 1, "exactly one bundle: {bundle_files:?}");

    // 2. Under the same fault the bundle replays bit-for-bit (exit 0).
    let out = bin()
        .args(["replay", bundle_files[0].to_str().unwrap()])
        .env("CPO_TRUST_CORRUPT", "1")
        .output()
        .expect("replay runs");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("CONFIRMED"));

    // 3. With the fault removed the recording no longer reproduces
    //    (exit 1) — replay distinguishes the two worlds.
    let out = bin()
        .args(["replay", bundle_files[0].to_str().unwrap()])
        .output()
        .expect("replay runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("NOT REPRODUCED"));
}

#[test]
fn corrupted_table_rows_exit_1() {
    let out = bin().arg("table1").env_remove("CPO_TRUST_CORRUPT").output().expect("table1 runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(!stdout.contains("MISMATCH"), "stdout: {stdout}");

    let out = bin().arg("table1").env("CPO_TRUST_CORRUPT", "1").output().expect("table1 runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("| MISMATCH |"), "stdout: {stdout}");
}

// ---------------------------------------------------------------------------
// the poison-spec batch (subprocess: needs CPO_BUNDLE_DIR)
// ---------------------------------------------------------------------------

#[test]
fn poisoned_batch_item_fails_typed_without_aborting_and_bundles() {
    let dir = scratch("poison");
    let bundles = dir.join("bundles");
    let good = {
        let (apps, _) = cpo_model::generator::section2_example();
        let platform = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
        let problem = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
        SolveRequest::new("clean period solve", apps, platform, problem)
            .to_json_compact()
            .expect("serializes")
    };
    // Contaminate the platform's static energy with +infinity (`1e999`
    // parses to +inf; work/speed/bandwidth contamination is rejected at
    // parse time, static energy is the numeric door that stays open).
    let poison = good.replace("\"e_stat\":0", "\"e_stat\":1e999");
    assert_ne!(good, poison, "the poison replacement must hit");
    let batch = dir.join("batch.jsonl");
    std::fs::write(&batch, format!("{good}\n{poison}\n{good}\n")).unwrap();

    let out = bin()
        .args(["batch", batch.to_str().unwrap(), "--check"])
        .env("CPO_BUNDLE_DIR", &bundles)
        .output()
        .expect("batch runs");
    // Nonzero exit, but every item still answered in order — the poisoned
    // line degraded, it did not abort the batch.
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<_> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 3, "one typed outcome per input line: {stdout}");
    for line in &lines {
        assert!(
            SolveOutcome::from_json(line).is_ok(),
            "every output line is a typed outcome: {line}"
        );
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("item 1 MISMATCH"), "stderr: {stderr}");
    assert!(stderr.contains("non-finite"), "stderr: {stderr}");

    // The poisoned item produced a bundle, and it replays bit-for-bit
    // (the raw-spec source preserves the exact contaminated bytes).
    let bundle_files: Vec<_> = std::fs::read_dir(&bundles)
        .expect("bundle dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(bundle_files.len(), 1, "exactly one bundle: {bundle_files:?}");
    let out = bin()
        .args(["replay", bundle_files[0].to_str().unwrap()])
        .output()
        .expect("replay runs");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

// ---------------------------------------------------------------------------
// fuzz smoke (subprocess: the CLI front door, one-second box)
// ---------------------------------------------------------------------------

#[test]
fn fuzz_one_second_finds_no_divergence_on_main() {
    let dir = scratch("fuzz-smoke");
    let out = bin()
        .args(["fuzz", "--seconds", "1", "--seed", "5", "--threads", "2"])
        .env("CPO_BUNDLE_DIR", &dir)
        .output()
        .expect("fuzz runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "fuzz must be green on main; stdout: {stdout}; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("0 divergent"), "stdout: {stdout}");
    // Deterministic sequencing: the grid is swept in order, so at least
    // one full sweep of all 160 scenarios happens inside a second.
    assert!(stdout.contains("over 160 scenarios"), "stdout: {stdout}");
}

// ---------------------------------------------------------------------------
// check_outcome hardening
// ---------------------------------------------------------------------------

#[test]
fn check_outcome_flags_non_finite_evaluations_instead_of_panicking() {
    // Build the poisoned request in memory (JSON text is the only door
    // for +inf, so go through the parser like the CLI does).
    let good = section2_request();
    let mut json = good.to_json_compact().expect("serializes");
    json = json.replace("\"e_stat\":0", "\"e_stat\":1e999");
    let req = SolveRequest::from_json(&json).expect("poisoned request parses");
    let req = SolveRequest {
        problem: ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap),
        ..req
    };
    let out = cpo_core::route(&req.apps, &req.platform, &req.problem);
    assert!(matches!(out, SolveOutcome::Solution(_)), "period ignores e_stat: {out:?}");
    let err = trust::check_outcome(&req, &out, 16).expect_err("poison must be flagged");
    assert!(err.contains("non-finite"), "err: {err}");
}
