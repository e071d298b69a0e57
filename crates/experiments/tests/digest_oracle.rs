//! Bitwise oracle for the structural digests.
//!
//! `cpo_model::hash` derives its digest stream from each type's
//! `Serialize` impl. Before that, every hashed type had a hand-written
//! `StableHash` impl; those 24 impls are kept below verbatim, and the
//! tests assert that `hash_instance`, `hash_spec` and `hash_outcome`
//! still return exactly the digests they produced — over the fuzz
//! scenario grid, the committed example specs, their routed outcomes and
//! hand-built edge cases (`None`/`Some(vec![])`, `Links::PerApp`, `-0.0`,
//! NaN, reasons longer than one 8-byte word). Equal digests mean memo
//! caches, quarantine lists and repro bundles written by either
//! implementation stay interchangeable.

use cpo_experiments::trust::{make_recipe, scenario_grid};
use cpo_model::application::{AppSet, Application, Stage};
use cpo_model::eval::CommModel;
use cpo_model::hash::{hash_instance, hash_outcome, hash_spec, StructuralHasher};
use cpo_model::mapping::{Assignment, Interval, Mapping};
use cpo_model::objective::Thresholds;
use cpo_model::platform::{Links, Platform, Processor};
use cpo_model::replication::{ReplicatedAssignment, ReplicatedMapping};
use cpo_model::sharing::{GeneralMapping, SharedAssignment};
use cpo_model::spec::{
    FrontEntry, Objective, ProblemSpec, SolveOutcome, SolveRequest, SolvedMapping, SolvedPoint,
    SolverHints, Strategy,
};
use cpo_model::topology::{CommTopology, MultistageNetwork};

/// The tagged optional writers the hand-written impls used.
trait OptWrites {
    fn write_opt_f64(&mut self, v: Option<f64>);
    fn write_opt_slice(&mut self, v: Option<&[f64]>);
}

impl OptWrites for StructuralHasher {
    fn write_opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.write_u64(0),
            Some(x) => {
                self.write_u64(1);
                self.write_f64(x);
            }
        }
    }

    fn write_opt_slice(&mut self, v: Option<&[f64]>) {
        match v {
            None => self.write_u64(0),
            Some(xs) => {
                self.write_u64(1);
                self.write_usize(xs.len());
                for &x in xs {
                    self.write_f64(x);
                }
            }
        }
    }
}

/// Types with a stable structural hash (every semantically meaningful
/// field, in declaration order — mirrors the derived `PartialEq`).
trait StableHash {
    /// Feed this value into `h`.
    fn stable_hash(&self, h: &mut StructuralHasher);
}

impl StableHash for Stage {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_f64(self.work);
        h.write_f64(self.output);
    }
}

impl StableHash for Application {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_f64(self.input);
        h.write_usize(self.stages.len());
        for s in &self.stages {
            s.stable_hash(h);
        }
        h.write_f64(self.weight);
        h.write_str(&self.name);
    }
}

impl StableHash for AppSet {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_usize(self.apps.len());
        for a in &self.apps {
            a.stable_hash(h);
        }
    }
}

impl StableHash for Processor {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_usize(self.modes());
        for &s in self.speeds() {
            h.write_f64(s);
        }
        h.write_f64(self.e_stat);
    }
}

impl StableHash for Links {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        match self {
            Links::Uniform(b) => {
                h.write_u64(0);
                h.write_f64(*b);
            }
            Links::PerApp(bs) => {
                h.write_u64(1);
                h.write_usize(bs.len());
                for &b in bs {
                    h.write_f64(b);
                }
            }
            Links::Heterogeneous { inter, input, output } => {
                h.write_u64(2);
                for table in [inter, input, output] {
                    h.write_usize(table.len());
                    for row in table {
                        h.write_usize(row.len());
                        for &b in row {
                            h.write_f64(b);
                        }
                    }
                }
            }
        }
    }
}

impl StableHash for CommTopology {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        match self {
            CommTopology::Dedicated => h.write_u64(0),
            CommTopology::Multistage(net) => {
                h.write_u64(1);
                h.write_f64(net.link_bandwidth);
                h.write_f64(net.hop_latency);
            }
        }
    }
}

impl StableHash for Platform {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_usize(self.procs.len());
        for p in &self.procs {
            p.stable_hash(h);
        }
        self.links.stable_hash(h);
        self.topology.stable_hash(h);
    }
}

impl StableHash for CommModel {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_u64(match self {
            CommModel::Overlap => 0,
            CommModel::NoOverlap => 1,
        });
    }
}

impl StableHash for Objective {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_u64(match self {
            Objective::Period => 0,
            Objective::Latency => 1,
            Objective::Energy => 2,
            Objective::PeriodEnergyFront => 3,
            Objective::PeriodLatencyFront => 4,
        });
    }
}

impl StableHash for Strategy {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_u64(match self {
            Strategy::OneToOne => 0,
            Strategy::Interval => 1,
            Strategy::Replicated => 2,
            Strategy::General => 3,
        });
    }
}

impl StableHash for Thresholds {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_opt_slice(self.period.as_deref());
        h.write_opt_slice(self.latency.as_deref());
        h.write_opt_f64(self.energy);
    }
}

impl StableHash for SolverHints {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_bool(self.exact_fallback);
        h.write_bool(self.heuristic_fallback);
        match self.sweep_threads {
            None => h.write_u64(0),
            Some(n) => {
                h.write_u64(1);
                h.write_usize(n);
            }
        }
        match self.local_search_iterations {
            None => h.write_u64(0),
            Some(n) => {
                h.write_u64(1);
                h.write_usize(n);
            }
        }
        match self.seed {
            None => h.write_u64(0),
            Some(s) => {
                h.write_u64(1);
                h.write_u64(s);
            }
        }
    }
}

impl StableHash for ProblemSpec {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_u64(u64::from(self.version));
        self.objective.stable_hash(h);
        self.strategy.stable_hash(h);
        self.comm.stable_hash(h);
        self.constraints.stable_hash(h);
        self.hints.stable_hash(h);
    }
}

impl StableHash for Interval {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_usize(self.app);
        h.write_usize(self.first);
        h.write_usize(self.last);
    }
}

impl StableHash for Assignment {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        self.interval.stable_hash(h);
        h.write_usize(self.proc);
        h.write_usize(self.mode);
    }
}

impl StableHash for Mapping {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_usize(self.assignments.len());
        for a in &self.assignments {
            a.stable_hash(h);
        }
    }
}

impl StableHash for ReplicatedAssignment {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        self.interval.stable_hash(h);
        h.write_usize(self.procs.len());
        for &p in &self.procs {
            h.write_usize(p);
        }
        h.write_usize(self.modes.len());
        for &m in &self.modes {
            h.write_usize(m);
        }
    }
}

impl StableHash for ReplicatedMapping {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_usize(self.assignments.len());
        for a in &self.assignments {
            a.stable_hash(h);
        }
    }
}

impl StableHash for SharedAssignment {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        self.interval.stable_hash(h);
        h.write_usize(self.proc);
        h.write_usize(self.mode);
    }
}

impl StableHash for GeneralMapping {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_usize(self.assignments.len());
        for a in &self.assignments {
            a.stable_hash(h);
        }
    }
}

impl StableHash for SolvedMapping {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        match self {
            SolvedMapping::Plain(m) => {
                h.write_u64(0);
                m.stable_hash(h);
            }
            SolvedMapping::Replicated(m) => {
                h.write_u64(1);
                m.stable_hash(h);
            }
            SolvedMapping::General(m) => {
                h.write_u64(2);
                m.stable_hash(h);
            }
        }
    }
}

impl StableHash for SolvedPoint {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_f64(self.objective);
        self.mapping.stable_hash(h);
    }
}

impl StableHash for FrontEntry {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        h.write_f64(self.achieved);
        h.write_f64(self.objective);
        self.mapping.stable_hash(h);
    }
}

impl StableHash for SolveOutcome {
    fn stable_hash(&self, h: &mut StructuralHasher) {
        match self {
            SolveOutcome::Solution(p) => {
                h.write_u64(0);
                p.stable_hash(h);
            }
            SolveOutcome::Front(entries) => {
                h.write_u64(1);
                h.write_usize(entries.len());
                for e in entries {
                    e.stable_hash(h);
                }
            }
            SolveOutcome::Infeasible { reason } => {
                h.write_u64(2);
                h.write_str(reason);
            }
            SolveOutcome::Unsupported { reason } => {
                h.write_u64(3);
                h.write_str(reason);
            }
        }
    }
}

fn oracle_instance(apps: &AppSet, platform: &Platform) -> u128 {
    let mut h = StructuralHasher::new();
    apps.stable_hash(&mut h);
    platform.stable_hash(&mut h);
    h.finish()
}

fn oracle_spec(spec: &ProblemSpec) -> u128 {
    let mut h = StructuralHasher::new();
    spec.stable_hash(&mut h);
    h.finish()
}

fn oracle_outcome(outcome: &SolveOutcome) -> u128 {
    let mut h = StructuralHasher::new();
    outcome.stable_hash(&mut h);
    h.finish()
}

/// Assert the instance and spec digests of `req`, and the digest of its
/// routed outcome, against the oracle; returns the outcome.
fn assert_request(req: &SolveRequest, what: &str) -> SolveOutcome {
    assert_eq!(
        hash_instance(&req.apps, &req.platform),
        oracle_instance(&req.apps, &req.platform),
        "{what}: instance digest"
    );
    assert_eq!(hash_spec(&req.problem), oracle_spec(&req.problem), "{what}: spec digest");
    let outcome = cpo_core::route(&req.apps, &req.platform, &req.problem);
    assert_outcome(&outcome, what);
    outcome
}

fn assert_outcome(outcome: &SolveOutcome, what: &str) {
    assert_eq!(
        hash_outcome(outcome),
        oracle_outcome(outcome),
        "{what}: outcome digest {outcome:?}"
    );
}

fn spec_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs")
}

#[test]
fn scenario_grid_requests_and_outcomes_match_the_oracle() {
    let grid = scenario_grid();
    let mut kinds = std::collections::BTreeSet::new();
    for iter in 0..6u64 {
        for (cell, scenario) in grid.iter().enumerate() {
            let recipe = make_recipe(scenario, 0x5eed, iter, cell as u64);
            let req = recipe.materialize().expect("grid recipes materialize");
            kinds.insert(assert_request(&req, &format!("iter {iter} cell {cell}")).kind());
        }
    }
    // The grid must exercise all four outcome kinds, or the outcome half
    // of the oracle is thinner than it looks.
    assert_eq!(kinds.len(), 4, "outcome kinds covered: {kinds:?}");
}

#[test]
fn committed_example_specs_match_the_oracle() {
    let mut checked = 0;
    for entry in std::fs::read_dir(spec_dir()).expect("examples/specs exists") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read spec");
        let name = path.display().to_string();
        if name.ends_with(".jsonl") {
            for (i, line) in text.lines().enumerate() {
                // The serve smoke file carries one deliberate garbage line.
                if let Ok(req) = SolveRequest::from_json(line) {
                    assert_request(&req, &format!("{name}:{}", i + 1));
                    checked += 1;
                }
            }
        } else if name.ends_with(".json") {
            let req = SolveRequest::from_json(&text).expect("example spec parses");
            assert_request(&req, &name);
            checked += 1;
        }
    }
    assert!(checked >= 30, "too few example requests: {checked}");
}

#[test]
fn optional_constraints_and_hints_match_the_oracle() {
    let base = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::NoOverlap);
    let thresholds = [
        Thresholds::default(),
        Thresholds { period: Some(vec![]), latency: None, energy: None },
        Thresholds { period: None, latency: Some(vec![]), energy: Some(0.0) },
        Thresholds { period: Some(vec![2.0, 2.5]), latency: Some(vec![7.0]), energy: Some(50.0) },
        Thresholds { period: Some(vec![-0.0, f64::NAN]), latency: None, energy: Some(-0.0) },
        Thresholds { period: None, latency: None, energy: Some(f64::NAN) },
    ];
    let hints = [
        SolverHints::default(),
        SolverHints {
            exact_fallback: true,
            heuristic_fallback: false,
            sweep_threads: Some(0),
            local_search_iterations: None,
            seed: Some(0),
        },
        SolverHints {
            exact_fallback: false,
            heuristic_fallback: true,
            sweep_threads: None,
            local_search_iterations: Some(500),
            seed: Some(u64::MAX),
        },
    ];
    for t in &thresholds {
        for h in &hints {
            let mut spec = base.clone();
            spec.constraints = t.clone();
            spec.hints = h.clone();
            assert_eq!(hash_spec(&spec), oracle_spec(&spec), "{spec:?}");
        }
    }
}

#[test]
fn links_variants_and_signed_zero_nan_instances_match_the_oracle() {
    let (apps, pf) = cpo_model::generator::section2_example();
    let procs: Vec<Processor> = pf.procs.clone();
    let per_app = Platform::new(procs.clone(), Links::PerApp(vec![1.0, 2.5])).unwrap();
    // Built literally: the tables are ragged on purpose, which the
    // validating constructor would reject but the digest must still cover.
    let hetero = Platform {
        procs: procs.clone(),
        links: Links::Heterogeneous {
            inter: vec![vec![1.0; procs.len()]; procs.len()],
            input: vec![vec![2.0; procs.len()]; 2],
            output: vec![vec![3.0; procs.len()], vec![]],
        },
        topology: CommTopology::Dedicated,
    };
    let multistage = pf
        .clone()
        .with_topology(CommTopology::Multistage(MultistageNetwork::new(1.0, 0.05).unwrap()))
        .unwrap();
    let mut weird = pf.clone();
    weird.procs[0].e_stat = -0.0;
    weird.links = Links::Uniform(f64::NAN);
    weird.topology =
        CommTopology::Multistage(MultistageNetwork { link_bandwidth: -0.0, hop_latency: f64::NAN });
    let mut odd_apps = apps.clone();
    odd_apps.apps[0].input = -0.0;
    odd_apps.apps[0].stages[1].work = f64::NAN;
    odd_apps.apps[1].weight = f64::INFINITY;
    odd_apps.apps[1].name = "a name longer than one word, with ünïcödé".into();
    odd_apps.apps.push(Application::new(0.0, vec![Stage::new(1.0, 0.0)], 1.0).unwrap());
    for a in [&apps, &odd_apps] {
        for p in [&pf, &per_app, &hetero, &multistage, &weird] {
            assert_eq!(hash_instance(a, p), oracle_instance(a, p), "{a:?} on {p:?}");
        }
    }
}

#[test]
fn every_outcome_shape_matches_the_oracle() {
    let mapping = Mapping::new().with(Interval::new(0, 0, 2), 0, 1);
    let plain = SolvedMapping::Plain(mapping.with(Interval::new(1, 0, 3), 2, 0));
    let replicated = SolvedMapping::Replicated(ReplicatedMapping {
        assignments: vec![ReplicatedAssignment {
            interval: Interval::new(0, 0, 1),
            procs: vec![0, 3, 1],
            modes: vec![2, 0, 1],
        }],
    });
    let general = SolvedMapping::General(GeneralMapping {
        assignments: vec![
            SharedAssignment { interval: Interval::new(0, 0, 0), proc: 1, mode: 0 },
            SharedAssignment { interval: Interval::new(0, 1, 2), proc: 1, mode: 0 },
        ],
    });
    let empty = SolvedMapping::Plain(Mapping { assignments: Vec::<Assignment>::new() });
    let mut outcomes = vec![
        SolveOutcome::Front(vec![]),
        SolveOutcome::Infeasible { reason: String::new() },
        SolveOutcome::Infeasible { reason: "period bound 2.5 is below the slowest stage".into() },
        SolveOutcome::Unsupported { reason: "12345678".into() },
        SolveOutcome::Unsupported {
            reason: "no solver for energy / general on a multistage fabric — ∆ ≠ 1".into(),
        },
    ];
    for (i, mapping) in [plain, replicated, general, empty].into_iter().enumerate() {
        for objective in [0.0, -0.0, 46.5, f64::NAN, f64::INFINITY] {
            outcomes
                .push(SolveOutcome::Solution(SolvedPoint { objective, mapping: mapping.clone() }));
        }
        outcomes.push(SolveOutcome::Front(vec![
            FrontEntry { achieved: 1.0 + i as f64, objective: f64::NAN, mapping: mapping.clone() },
            FrontEntry { achieved: -0.0, objective: 3.25, mapping },
        ]));
    }
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_outcome(outcome, &format!("hand-built outcome {i}"));
    }
}
