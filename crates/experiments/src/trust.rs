//! The trust subsystem: differential execution, repro bundles, replay,
//! and the fuzz fleet.
//!
//! Every solver path in the workspace is supposed to be *bitwise*
//! interchangeable: direct routing, pre-planned routing, scratch reuse,
//! the batch engine, its memo cache, the wavefront simulator, the DAG
//! oracle, and fast-forward on/off must all tell the same story about an
//! instance. [`run_paths`] executes them all and reports any divergence;
//! [`export_bundle`] freezes a failure into a deterministic
//! [`ReproBundle`]; [`replay`] re-executes a bundle bit-for-bit; [`fuzz`]
//! hunts for divergences across the full scenario cross-product under a
//! time box.
//!
//! Exit-code convention shared by the `replay`/`fuzz`/`solve`/`batch`
//! subcommands: `0` ok, `1` mismatch (check failure, unreproduced bundle,
//! or fuzz findings), `2` usage/parse errors.

use cpo_core::router::{plan, route_planned, route_with, RouterScratch};
use cpo_engine::{panic_payload, Engine, EngineConfig};
use cpo_model::bundle::{
    BundleSource, EngineSnapshot, FailureContext, FailureKind, GenRecipe, Obs, PathObservation,
    PlatformKind, ReproBundle,
};
use cpo_model::generator::{AppGenConfig, PlatformGenConfig};
use cpo_model::hash::{digest_hex, hash_instance, hash_outcome, hash_spec};
use cpo_model::prelude::*;
use cpo_simulator::{simulate, simulate_reference_dag, simulate_wavefront, SimReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Environment variable that injects a deliberate solver corruption
/// (+1.0 on every routed `Solution` objective, in `solve`, `batch` and
/// the fast side of the certified table cells). Test-only: it exists so
/// the drills can prove that a wrong answer fails loudly (mismatch →
/// bundle → replay, or a `MISMATCH` row and exit 1) without patching the
/// solvers.
pub const CORRUPT_ENV: &str = "CPO_TRUST_CORRUPT";

/// Environment variable overriding where bundles are written
/// (default `repro-bundles/` under the current directory).
pub const BUNDLE_DIR_ENV: &str = "CPO_BUNDLE_DIR";

/// Where [`export_bundle`] writes.
pub fn bundle_dir() -> PathBuf {
    std::env::var_os(BUNDLE_DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("repro-bundles"))
}

/// Relative tolerance used by every `--check` comparison.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-7 * (1.0 + a.abs().max(b.abs()))
}

/// Apply the [`CORRUPT_ENV`] fault injection to an outcome.
pub fn maybe_corrupt(out: SolveOutcome) -> SolveOutcome {
    if std::env::var_os(CORRUPT_ENV).is_none() {
        return out;
    }
    match out {
        SolveOutcome::Solution(mut s) => {
            s.objective += 1.0;
            SolveOutcome::Solution(s)
        }
        other => other,
    }
}

/// Snapshot an engine configuration into a bundle.
pub fn engine_snapshot(cfg: &EngineConfig) -> EngineSnapshot {
    EngineSnapshot {
        threads: cfg.threads,
        cache: cfg.cache,
        min_parallel_cost: cfg.min_parallel_cost,
    }
}

/// Rebuild the engine configuration a bundle was recorded under.
pub fn snapshot_config(snap: &EngineSnapshot) -> EngineConfig {
    EngineConfig {
        threads: snap.threads,
        cache: snap.cache,
        min_parallel_cost: snap.min_parallel_cost,
        ..EngineConfig::default()
    }
}

// ---------------------------------------------------------------------------
// check_outcome — the --check cross-validation (analytic + simulated)
// ---------------------------------------------------------------------------

/// Cross-validate an outcome against its request: analytic re-evaluation
/// plus a simulation of every plain mapping over `datasets` data sets
/// (through the wavefront core backing `simulate`); the measured values
/// must agree with the reported objective. Simulator panics (e.g. on
/// NaN/infinity-contaminated instances, which it rejects loudly) are
/// caught and reported as check failures — a poisoned item must never
/// abort its batch.
pub fn check_outcome(req: &SolveRequest, out: &SolveOutcome, datasets: usize) -> Result<(), String> {
    let apps = &req.apps;
    let pf = &req.platform;
    let comm = req.problem.comm;
    // One validation, one analytic evaluation and one simulation per
    // mapping, however many reported criteria it must agree with.
    let check_plain = |mapping: &Mapping,
                       expected: &[(Objective, f64)],
                       what: &str|
     -> Result<(), String> {
        mapping
            .validate(apps, pf)
            .map_err(|e| format!("{what}: invalid mapping: {e}"))?;
        let e = Evaluator::new(apps, pf).evaluate(mapping, comm);
        // A certifiable solution evaluates finite on every criterion; a
        // non-finite value means numeric contamination (e.g. an infinite
        // static energy) slipped past the parse-time guards.
        if !(e.period.is_finite() && e.latency.is_finite() && e.energy.is_finite()) {
            return Err(format!(
                "{what}: mapping evaluates non-finite (period {}, latency {}, energy {}) — \
                 poisoned instance",
                e.period, e.latency, e.energy
            ));
        }
        if !req.problem.constraints.satisfied_by(&e.periods, &e.latencies, e.energy) {
            return Err(format!("{what}: solution violates the spec constraints"));
        }
        let sim = catch_unwind(AssertUnwindSafe(|| simulate(apps, pf, mapping, comm, datasets)))
            .map_err(|p| format!("{what}: simulator panicked: {}", panic_payload(&*p)))?;
        for &(criterion, objective) in expected {
            if !objective.is_finite() {
                return Err(format!("{what}: non-finite reported {}", criterion.name()));
            }
            let (analytic, measured) = match criterion {
                Objective::Period => (e.period, sim.period),
                Objective::Latency => (e.latency, sim.latency),
                Objective::Energy => (e.energy, sim.power),
                _ => unreachable!("entries carry scalar criteria"),
            };
            if !close(analytic, objective) {
                return Err(format!(
                    "{what}: analytic {} {analytic} != reported {objective}",
                    criterion.name()
                ));
            }
            if !close(measured, objective) {
                return Err(format!(
                    "{what}: simulated {} {measured} != reported {objective}",
                    criterion.name()
                ));
            }
        }
        Ok(())
    };
    match out {
        SolveOutcome::Solution(s) => match &s.mapping {
            SolvedMapping::Plain(m) => {
                check_plain(m, &[(req.problem.objective, s.objective)], "solution")
            }
            SolvedMapping::Replicated(m) => {
                m.validate(apps, pf).map_err(|e| format!("replicated mapping: {e}"))?;
                let ev = cpo_model::replication::ReplicatedEvaluator::new(apps, pf);
                let analytic = match req.problem.objective {
                    Objective::Period => ev.period(m, comm),
                    Objective::Latency => ev.latency(m),
                    Objective::Energy => ev.energy(m),
                    _ => return Err("front outcome with a replicated mapping".into()),
                };
                if close(analytic, s.objective) {
                    Ok(())
                } else {
                    Err(format!("replicated: analytic {analytic} != reported {}", s.objective))
                }
            }
            SolvedMapping::General(m) => {
                m.validate(apps, pf).map_err(|e| format!("general mapping: {e}"))?;
                let ev = cpo_model::sharing::GeneralEvaluator::new(apps, pf);
                let analytic = match req.problem.objective {
                    Objective::Period => ev.period(m, comm),
                    Objective::Latency => ev.latency(m),
                    Objective::Energy => ev.energy(m),
                    _ => return Err("front outcome with a general mapping".into()),
                };
                if close(analytic, s.objective) {
                    Ok(())
                } else {
                    Err(format!("general: analytic {analytic} != reported {}", s.objective))
                }
            }
        },
        SolveOutcome::Front(entries) => {
            let (primary, secondary) = match req.problem.objective {
                Objective::PeriodEnergyFront => (Objective::Period, Objective::Energy),
                Objective::PeriodLatencyFront => (Objective::Period, Objective::Latency),
                other => return Err(format!("front outcome for {} spec", other.name())),
            };
            for (i, entry) in entries.iter().enumerate() {
                let m = entry
                    .mapping
                    .as_plain()
                    .ok_or_else(|| format!("front point {i}: non-plain mapping"))?;
                check_plain(
                    m,
                    &[(primary, entry.achieved), (secondary, entry.objective)],
                    &format!("front point {i}"),
                )?;
            }
            Ok(())
        }
        SolveOutcome::Infeasible { .. } | SolveOutcome::Unsupported { .. } => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// run_paths — every applicable execution path, observed bitwise
// ---------------------------------------------------------------------------

/// What [`run_paths`] saw.
#[derive(Debug, Clone)]
pub struct PathReport {
    /// One observation per executed path, in a fixed order.
    pub paths: Vec<PathObservation>,
    /// Human-readable divergence descriptions (empty = all paths agree).
    pub divergences: Vec<String>,
    /// The routed outcome, for further checking by the caller.
    pub canonical: Option<SolveOutcome>,
}

fn observe(name: &str, out: &SolveOutcome) -> PathObservation {
    let mut values = Vec::new();
    if let Some(obj) = out.objective() {
        values.push(Obs::of("objective", obj));
    }
    PathObservation {
        path: name.into(),
        digest: digest_hex(hash_outcome(out)),
        values,
        summary: out.kind().to_string(),
    }
}

fn run_solver_path(
    name: &str,
    f: impl FnOnce() -> SolveOutcome,
) -> (PathObservation, Option<SolveOutcome>) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(out) => (observe(name, &out), Some(out)),
        Err(p) => (
            PathObservation {
                path: name.into(),
                digest: String::new(),
                values: Vec::new(),
                summary: format!("panicked: {}", panic_payload(&*p)),
            },
            None,
        ),
    }
}

fn observe_sim(name: &str, sim: Result<SimReport, String>) -> PathObservation {
    match sim {
        Ok(rep) => PathObservation {
            path: name.into(),
            digest: String::new(),
            values: vec![
                Obs::of("period", rep.period),
                Obs::of("latency", rep.latency),
                Obs::of("power", rep.power),
            ],
            summary: "simulated".into(),
        },
        Err(what) => PathObservation {
            path: name.into(),
            digest: String::new(),
            values: Vec::new(),
            summary: format!("panicked: {what}"),
        },
    }
}

fn guard_sim(f: impl FnOnce() -> SimReport) -> Result<SimReport, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_payload(&*p))
}

/// Execute every applicable path for `req` and compare them bitwise:
///
/// * solver paths — `routed` (direct [`cpo_core::route`], where the
///   [`CORRUPT_ENV`] drill hook applies), `planned` (plan +
///   `route_planned`), `scratch-reused` (second solve on a warm
///   [`RouterScratch`]), `engine` (batch engine under `cfg`) and
///   `memo-cached` (second engine solve, served by the cache when on) —
///   their outcome digests must be identical;
/// * simulation paths, when the engine outcome is a plain-mapping
///   solution — `sim-wavefront`, `sim-dag` (the independent DAG oracle)
///   and `sim-no-ff` (fast-forward disabled) must agree bitwise on
///   period/latency/power, and the measured value of the optimized
///   criterion must match the reported objective within tolerance (the
///   `analytic` path re-derives it from the evaluator).
pub fn run_paths(req: &SolveRequest, cfg: &EngineConfig, datasets: usize) -> PathReport {
    let apps = &req.apps;
    let pf = &req.platform;
    let spec = &req.problem;
    let mut paths = Vec::new();
    let mut divergences = Vec::new();
    let mut outcomes: Vec<(String, Option<SolveOutcome>)> = Vec::new();

    let (obs, out) = run_solver_path("routed", || maybe_corrupt(cpo_core::route(apps, pf, spec)));
    let canonical = out.clone();
    paths.push(obs);
    outcomes.push(("routed".into(), out));

    let (obs, out) = run_solver_path("planned", || match plan(apps, pf, spec) {
        Ok(p) => {
            let mut scratch = RouterScratch::new();
            route_planned(apps, pf, spec, p, &mut scratch)
        }
        Err(reason) => SolveOutcome::Unsupported { reason },
    });
    paths.push(obs);
    outcomes.push(("planned".into(), out));

    let (obs, out) = run_solver_path("scratch-reused", || {
        let mut scratch = RouterScratch::new();
        let _ = route_with(apps, pf, spec, &mut scratch);
        route_with(apps, pf, spec, &mut scratch)
    });
    paths.push(obs);
    outcomes.push(("scratch-reused".into(), out));

    let engine = Engine::new(cfg.clone());
    let (obs, out) = run_solver_path("engine", || engine.solve(apps, pf, spec));
    paths.push(obs);
    let engine_out = out.clone();
    outcomes.push(("engine".into(), out));

    let (obs, out) = run_solver_path("memo-cached", || engine.solve(apps, pf, spec));
    paths.push(obs);
    outcomes.push(("memo-cached".into(), out));

    // The routed path is the reference (minus the drill hook, every other
    // path is the same deterministic router behind a different front
    // door).
    let reference = outcomes[0].1.as_ref().map(hash_outcome);
    for (name, out) in &outcomes[1..] {
        match (reference, out.as_ref().map(hash_outcome)) {
            (Some(want), Some(got)) if want == got => {}
            (Some(_), Some(_)) => {
                divergences.push(format!("solver path `{name}` disagrees with `routed` bitwise"));
            }
            _ => divergences.push(format!(
                "solver path `{name}` or `routed` panicked — no comparable outcome"
            )),
        }
    }

    // Simulation cross-check on the engine outcome (identical to routed
    // when no divergence): plain-mapping solutions only — replicated and
    // general mappings have no wavefront semantics yet.
    if let Some(SolveOutcome::Solution(s)) = &engine_out {
        if let SolvedMapping::Plain(m) = &s.mapping {
            let comm = spec.comm;
            let wavefront = guard_sim(|| simulate(apps, pf, m, comm, datasets));
            let dag = guard_sim(|| simulate_reference_dag(apps, pf, m, comm, datasets, usize::MAX));
            let no_ff =
                guard_sim(|| simulate_wavefront(apps, pf, m, comm, datasets, usize::MAX, false));
            let sims = [("sim-wavefront", &wavefront), ("sim-dag", &dag), ("sim-no-ff", &no_ff)];
            for (name, sim) in &sims {
                paths.push(observe_sim(name, (*sim).clone()));
            }
            match (&wavefront, &dag, &no_ff) {
                (Ok(w), Ok(d), Ok(n)) => {
                    for (name, other) in [("sim-dag", d), ("sim-no-ff", n)] {
                        if w.period.to_bits() != other.period.to_bits()
                            || w.latency.to_bits() != other.latency.to_bits()
                            || w.power.to_bits() != other.power.to_bits()
                        {
                            divergences.push(format!(
                                "`{name}` disagrees with `sim-wavefront` bitwise"
                            ));
                        }
                    }
                    let measured = match spec.objective {
                        Objective::Period => Some(w.period),
                        Objective::Latency => Some(w.latency),
                        Objective::Energy => Some(w.power),
                        _ => None,
                    };
                    if let Some(measured) = measured {
                        if !close(measured, s.objective) {
                            divergences.push(format!(
                                "simulated {} {measured} != reported objective {}",
                                spec.objective.name(),
                                s.objective
                            ));
                        }
                    }
                }
                _ => divergences.push("a simulation path panicked".into()),
            }
            let analytic = catch_unwind(AssertUnwindSafe(|| {
                Evaluator::new(apps, pf).evaluate(m, comm)
            }));
            match analytic {
                Ok(e) => {
                    paths.push(PathObservation {
                        path: "analytic".into(),
                        digest: String::new(),
                        values: vec![
                            Obs::of("period", e.period),
                            Obs::of("latency", e.latency),
                            Obs::of("energy", e.energy),
                        ],
                        summary: "evaluated".into(),
                    });
                    let value = match spec.objective {
                        Objective::Period => Some(e.period),
                        Objective::Latency => Some(e.latency),
                        Objective::Energy => Some(e.energy),
                        _ => None,
                    };
                    if let Some(value) = value {
                        if !close(value, s.objective) {
                            divergences.push(format!(
                                "analytic {} {value} != reported objective {}",
                                spec.objective.name(),
                                s.objective
                            ));
                        }
                    }
                }
                Err(p) => divergences.push(format!("evaluator panicked: {}", panic_payload(&*p))),
            }
        }
    }

    PathReport { paths, divergences, canonical }
}

// ---------------------------------------------------------------------------
// export
// ---------------------------------------------------------------------------

/// Freeze a failure into a bundle under [`bundle_dir`] and return the
/// written path. The per-path observations are gathered by re-running
/// [`run_paths`] on the request, so the bundle records what every path
/// saw at export time.
pub fn export_bundle(
    kind: FailureKind,
    message: String,
    item_index: Option<usize>,
    source: BundleSource,
    cfg: &EngineConfig,
    datasets: usize,
) -> Result<PathBuf, String> {
    let req = source.materialize()?;
    let report = run_paths(&req, cfg, datasets);
    let bundle = ReproBundle::new(
        "exported by cpo-experiments",
        FailureContext { kind, message, item_index },
        source,
        engine_snapshot(cfg),
        datasets,
        report.paths,
    )?;
    bundle.write_to_dir(&bundle_dir())
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

/// The verdict of one [`replay`].
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Every recorded path reproduced bit-for-bit.
    pub confirmed: bool,
    /// Per-path comparison lines (human-readable).
    pub details: Vec<String>,
    /// Divergences observed in the fresh run.
    pub divergences: Vec<String>,
}

/// Re-execute a bundle bit-for-bit: rebuild the request (verifying the
/// recorded structural digests, which guards against generator drift),
/// re-run every path under the recorded engine configuration, and compare
/// outcome digests and bitwise observations against what was recorded.
pub fn replay(bundle: &ReproBundle) -> Result<ReplayReport, String> {
    let req = bundle.request()?;
    let inst = digest_hex(hash_instance(&req.apps, &req.platform));
    if inst != bundle.instance_digest {
        return Err(format!(
            "instance digest drift: bundle recorded {}, source regenerates {inst} — \
             the generators changed since export",
            bundle.instance_digest
        ));
    }
    let spec_digest = digest_hex(hash_spec(&req.problem));
    if spec_digest != bundle.spec_digest {
        return Err(format!(
            "spec digest drift: bundle recorded {}, source regenerates {spec_digest}",
            bundle.spec_digest
        ));
    }
    let cfg = snapshot_config(&bundle.engine);
    let fresh = run_paths(&req, &cfg, bundle.datasets);
    let mut confirmed = true;
    let mut details = Vec::new();
    for rec in &bundle.paths {
        match fresh.paths.iter().find(|p| p.path == rec.path) {
            Some(now) if now.digest == rec.digest && now.values == rec.values => {
                details.push(format!("{}: reproduced bit-for-bit", rec.path));
            }
            Some(now) => {
                confirmed = false;
                details.push(format!(
                    "{}: NOT reproduced (recorded digest `{}` values {:?}, got `{}` {:?})",
                    rec.path,
                    rec.digest,
                    rec.values.iter().map(|o| &o.bits).collect::<Vec<_>>(),
                    now.digest,
                    now.values.iter().map(|o| &o.bits).collect::<Vec<_>>(),
                ));
            }
            None => {
                confirmed = false;
                details.push(format!("{}: path was not re-executed", rec.path));
            }
        }
    }
    Ok(ReplayReport { confirmed, details, divergences: fresh.divergences })
}

// ---------------------------------------------------------------------------
// fuzz
// ---------------------------------------------------------------------------

/// Dataset count used by the fuzz fleet's simulation paths: small enough
/// for throughput, large enough that steady state is reached and the
/// fast-forward path actually engages.
pub const FUZZ_DATASETS: usize = 24;

/// One fuzz scenario: a cell of the cross-product.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The optimized criterion.
    pub objective: Objective,
    /// The mapping rule.
    pub strategy: Strategy,
    /// The communication model.
    pub comm: CommModel,
    /// The platform family.
    pub platform: PlatformKind,
}

/// The full scenario cross-product the fleet sweeps: every
/// objective × strategy × comm-model combination over dedicated
/// homogeneous/heterogeneous platforms and the Benes multistage fabric.
/// Unsupported cells still run — a typed `Unsupported` answer must also
/// be bitwise stable across paths.
pub fn scenario_grid() -> Vec<Scenario> {
    let objectives = [
        Objective::Period,
        Objective::Latency,
        Objective::Energy,
        Objective::PeriodEnergyFront,
        Objective::PeriodLatencyFront,
    ];
    let strategies =
        [Strategy::OneToOne, Strategy::Interval, Strategy::Replicated, Strategy::General];
    let comms = [CommModel::Overlap, CommModel::NoOverlap];
    let platforms = [
        PlatformKind::FullyHomogeneous,
        PlatformKind::CommHomogeneous,
        PlatformKind::FullyHeterogeneous,
        PlatformKind::Multistage { bandwidth: 1.0, hop_latency: 0.05 },
    ];
    let mut grid = Vec::new();
    for &objective in &objectives {
        for &strategy in &strategies {
            for &comm in &comms {
                for platform in &platforms {
                    grid.push(Scenario { objective, strategy, comm, platform: platform.clone() });
                }
            }
        }
    }
    grid
}

/// Build the deterministic recipe for `(scenario, master seed, iteration)`.
/// Instance sizes stay tiny (≤3 apps, ≤4 stages, ≤6 processors) so one
/// iteration sweeps the whole grid in well under a second; constraints
/// are derived from the generated instance so bounded cells are usually
/// feasible.
pub fn make_recipe(scenario: &Scenario, seed: u64, iter: u64, cell: u64) -> GenRecipe {
    let salt = seed ^ iter.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ cell.wrapping_mul(0x85eb_ca6b);
    let app_cfg = AppGenConfig {
        apps: 1 + (salt % 3) as usize,
        stages: (1, 4),
        work: (1.0, 10.0),
        data: (0.0, 5.0),
        integral: true,
    };
    let platform_cfg = PlatformGenConfig {
        procs: 2 + (salt.rotate_right(8) % 5) as usize,
        modes: (1, 3),
        speed: (1.0, 8.0),
        bandwidth: (1.0, 5.0),
        e_stat: (0.0, 0.0),
        integral: true,
    };
    // The JSON layer stores numbers as f64 (exact only up to 2^53), so
    // recipe seeds stay within 48 bits — replay's digest-drift guard
    // would loudly reject a bundle whose seed did not round-trip.
    const SEED_MASK: u64 = (1 << 48) - 1;
    let app_seed = salt.wrapping_mul(0xff51_afd7_ed55_8ccd) & SEED_MASK;
    let platform_seed = (app_seed ^ 0xc4ce_b9fe_1a85_ec53) & SEED_MASK;
    let mut spec = ProblemSpec::new(scenario.objective, scenario.strategy, scenario.comm);
    if scenario.objective == Objective::Energy {
        // Energy minimization needs a period bound to be well-posed; one
        // derived from the actual total work is usually feasible, and an
        // infeasible draw is itself a valid differential check.
        let apps = cpo_model::generator::random_apps(&app_cfg, app_seed);
        let bounds: Vec<f64> =
            apps.apps.iter().map(|a| a.total_work() / 2.0 + 2.0).collect();
        spec = spec.with_period_bounds(bounds);
    }
    if matches!(scenario.objective, Objective::PeriodEnergyFront | Objective::PeriodLatencyFront) {
        // Single-threaded sweeps: the front solvers are deterministic for
        // every thread count, but one worker keeps tiny instances cheap.
        spec.hints.sweep_threads = Some(1);
    }
    GenRecipe {
        app_cfg,
        platform_cfg,
        platform_kind: scenario.platform.clone(),
        app_seed,
        platform_seed,
        spec,
    }
}

/// What one [`fuzz`] campaign did.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Completed grid sweeps.
    pub iterations: u64,
    /// Instances executed (scenario cells × sweeps, counting partials).
    pub executed: u64,
    /// Grid width (scenario count).
    pub scenarios: usize,
    /// Bundles written, one per divergent instance.
    pub bundles: Vec<PathBuf>,
}

/// Time-boxed, deterministically seeded differential fuzz: sweep the full
/// [`scenario_grid`] with fresh seeded instances until `seconds` elapse,
/// running every applicable path per instance ([`run_paths`] +
/// [`check_outcome`]) and bundling any divergence. The sequence of
/// instances depends only on `seed`, never on timing — the time box only
/// decides how far down the sequence the campaign gets.
pub fn fuzz(seconds: u64, seed: u64, cfg: &EngineConfig) -> FuzzReport {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let grid = scenario_grid();
    let mut report = FuzzReport {
        iterations: 0,
        executed: 0,
        scenarios: grid.len(),
        bundles: Vec::new(),
    };
    'outer: loop {
        for (cell, scenario) in grid.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'outer;
            }
            let recipe = make_recipe(scenario, seed, report.iterations, cell as u64);
            report.executed += 1;
            let req = match recipe.materialize() {
                Ok(req) => req,
                Err(e) => {
                    // A recipe that cannot materialize is itself a finding.
                    if let Ok(path) = export_bundle(
                        FailureKind::DifferentialMismatch,
                        format!("recipe failed to materialize: {e}"),
                        None,
                        BundleSource::Generated(recipe),
                        cfg,
                        FUZZ_DATASETS,
                    ) {
                        report.bundles.push(path);
                    }
                    continue;
                }
            };
            let paths = run_paths(&req, cfg, FUZZ_DATASETS);
            let mut problems = paths.divergences.clone();
            if let Some(out) = &paths.canonical {
                if let Err(e) = check_outcome(&req, out, FUZZ_DATASETS) {
                    problems.push(format!("check: {e}"));
                }
            }
            if !problems.is_empty() {
                match export_bundle(
                    FailureKind::DifferentialMismatch,
                    problems.join("; "),
                    None,
                    BundleSource::Generated(recipe),
                    cfg,
                    FUZZ_DATASETS,
                ) {
                    Ok(path) => report.bundles.push(path),
                    Err(e) => eprintln!("fuzz: could not write bundle: {e}"),
                }
            }
        }
        report.iterations += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_grid_is_the_full_cross_product() {
        let grid = scenario_grid();
        assert_eq!(grid.len(), 5 * 4 * 2 * 4);
    }

    #[test]
    fn recipes_are_deterministic_in_their_inputs() {
        let grid = scenario_grid();
        let a = make_recipe(&grid[7], 42, 3, 7);
        let b = make_recipe(&grid[7], 42, 3, 7);
        assert_eq!(a, b);
        let c = make_recipe(&grid[7], 43, 3, 7);
        assert_ne!(a.app_seed, c.app_seed);
    }
}
