//! Seeded workload generator.
//!
//! Every workload is a set of *templates* — distinct requests, each with
//! its expected verdict — plus a deterministic rule that turns a line
//! number into one of them. The same seed always yields byte-identical
//! lines. The program under test only ever sees the rendered lines.
//!
//! Requests are drawn from the polynomial plan families of
//! [`cpo_experiments::trust::scenario_grid`]: a scenario (objective ×
//! strategy × comm model × platform family) is materialized at the
//! workload's instance size and kept when the router plans it to the
//! wanted family. No generated line is over-deep or oversized: one such
//! line aborts the server today, and that case belongs to a hostile
//! drill, not to a performance benchmark.

use cpo_core::router::{plan, Plan};
use cpo_experiments::trust::{scenario_grid, Scenario};
use cpo_model::generator::{AppGenConfig, PlatformGenConfig};
use cpo_model::hash::{hash_instance, hash_spec};
use cpo_model::prelude::*;
use std::collections::{BTreeMap, HashSet};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small repeated requests through `serve`: the memo cache answers.
    ServeHot,
    /// Large distinct requests through `serve`: every solve is a miss.
    ServeCold,
    /// A generated file through `batch --check`: pool, fronts, simulator.
    BatchCheck,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ServeHot, Workload::ServeCold, Workload::BatchCheck];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::BatchCheck => "batch_check",
        }
    }

    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Served through `cpo-experiments serve` (as opposed to `batch`).
    pub fn is_serve(self) -> bool {
        self != Workload::BatchCheck
    }
}

/// The plan families the per-family rows report. Benes-wrapped plans
/// share one row; the one-to-one latency variants share another.
pub const FAMILIES: [&str; 12] = [
    "PeriodOneToOne",
    "PeriodInterval",
    "PeriodReplicated",
    "LatencyOneToOne",
    "LatencyInterval",
    "EnergyMatching",
    "EnergyInterval",
    "EnergyReplicated",
    "FrontPeriodEnergyInterval",
    "FrontPeriodEnergyOneToOne",
    "FrontPeriodLatency",
    "Benes",
];

/// The family row a plan reports under; `None` for the plans the
/// generator never asks to be solved (exact searches, heuristics,
/// constrained duals).
pub fn family(p: Plan) -> Option<&'static str> {
    Some(match p {
        Plan::PeriodOneToOne => "PeriodOneToOne",
        Plan::PeriodInterval => "PeriodInterval",
        Plan::PeriodReplicated => "PeriodReplicated",
        Plan::LatencyOneToOne | Plan::LatencyOneToOneSingleApp => "LatencyOneToOne",
        Plan::LatencyInterval => "LatencyInterval",
        Plan::EnergyMatching => "EnergyMatching",
        Plan::EnergyInterval => "EnergyInterval",
        Plan::EnergyReplicated => "EnergyReplicated",
        Plan::FrontPeriodEnergyInterval => "FrontPeriodEnergyInterval",
        Plan::FrontPeriodEnergyOneToOne => "FrontPeriodEnergyOneToOne",
        Plan::FrontPeriodLatency => "FrontPeriodLatency",
        Plan::Benes(_) => "Benes",
        _ => return None,
    })
}

/// Exponential exact searches: their cost estimate saturates, so under
/// any deadline the server must shed them at plan time.
fn is_exact_search(p: Plan) -> bool {
    matches!(p, Plan::PeriodGeneralExact | Plan::EnergyBranchAndBound | Plan::ExactEnumeration)
}

/// What a line must be answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `Done` with the reference outcome (digest filled in by
    /// [`crate::oracle::reference`]).
    Solve,
    /// `Rejected{Invalid}`: the line does not parse.
    Invalid,
    /// `Deadline{Plan}`: an exact search under a deadline.
    DeadlinePlan,
}

/// One distinct request of a workload.
#[derive(Debug, Clone)]
pub struct Template {
    /// The parsed request (`None` for garbage lines).
    pub req: Option<SolveRequest>,
    /// The plan family (`None` for garbage and deadline bait).
    pub family: Option<&'static str>,
    /// The expected verdict.
    pub expect: Expect,
    /// Rendered line up to the id value.
    prefix: String,
    /// Rendered line after the id value.
    suffix: String,
}

/// The id placeholder rendered into templates and replaced per line.
const ID_MARK: &str = "@ID@";

impl Template {
    fn request(req: SolveRequest, family: Option<&'static str>, expect: Expect) -> Template {
        let text = req
            .clone()
            .with_id(ID_MARK)
            .to_json_compact()
            .expect("generated requests hold finite numbers only");
        let at = text.find(ID_MARK).expect("the rendered request carries its id");
        Template {
            family,
            expect,
            prefix: text[..at].to_string(),
            suffix: text[at + ID_MARK.len()..].to_string(),
            req: Some(req),
        }
    }

    fn garbage(text: &str) -> Template {
        Template {
            req: None,
            family: None,
            expect: Expect::Invalid,
            prefix: text.to_string(),
            suffix: String::new(),
        }
    }

    /// The line for this template with the given id (garbage lines carry
    /// none). Batch lines are rendered without an id.
    pub fn line(&self, id: Option<&str>) -> String {
        match (&self.req, id) {
            (None, _) => self.prefix.clone(),
            (Some(_), Some(id)) => format!("{}{id}{}", self.prefix, self.suffix),
            (Some(req), None) => {
                req.to_json_compact().expect("generated requests hold finite numbers only")
            }
        }
    }

    /// The (instance, spec) cache key, for requests.
    pub fn digest(&self) -> Option<(u128, u128)> {
        self.req.as_ref().map(|r| (hash_instance(&r.apps, &r.platform), hash_spec(&r.problem)))
    }
}

/// Garbage lines for the hot mix: each must come back `Rejected{Invalid}`.
/// None is empty, a control verb, over-deep or oversized.
const GARBAGE: [&str; 4] = [
    "{\"this line is\": deliberately broken,,,",
    "{\"version\":1,\"apps\":{\"apps\":[]},\"platform\":",
    "{\"version\":1,\"description\":\"no instance\"}",
    "solve this please",
];

/// Instance size ranges for one workload and plan family.
#[derive(Debug, Clone, Copy)]
struct Size {
    apps: (usize, usize),
    stages: (usize, usize),
    procs: (usize, usize),
}

fn size(workload: Workload, family: Option<&str>) -> Size {
    // One-to-one mappings need a processor per stage, so those families
    // get shorter applications (and, at serve_cold sizes, more
    // processors).
    let one_to_one = matches!(
        family,
        Some("PeriodOneToOne" | "LatencyOneToOne" | "EnergyMatching" | "FrontPeriodEnergyOneToOne")
    );
    match (workload, one_to_one) {
        (Workload::ServeHot, _) => Size { apps: (1, 3), stages: (1, 4), procs: (2, 6) },
        (Workload::ServeCold, false) => Size { apps: (8, 8), stages: (16, 24), procs: (32, 32) },
        (Workload::ServeCold, true) => Size { apps: (8, 8), stages: (2, 8), procs: (64, 64) },
        (Workload::BatchCheck, false) => Size { apps: (4, 4), stages: (2, 12), procs: (12, 12) },
        (Workload::BatchCheck, true) => Size { apps: (2, 2), stages: (2, 6), procs: (12, 12) },
    }
}

/// splitmix64: the stream's only source of randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_133f_11eb);
    x ^ (x >> 31)
}

/// Seeds stay within 48 bits, the range the JSON layer keeps exact.
const SEED_MASK: u64 = (1 << 48) - 1;

/// Materialize one scenario at `sz` from `salt`.
fn draw(scenario: &Scenario, sz: Size, salt: u64, deadline_ms: Option<u64>) -> SolveRequest {
    let r = mix(salt);
    let app_cfg = AppGenConfig {
        apps: sz.apps.0 + (r % (sz.apps.1 - sz.apps.0 + 1) as u64) as usize,
        stages: sz.stages,
        work: (1.0, 10.0),
        data: (0.0, 5.0),
        integral: true,
    };
    let span = (sz.procs.1 - sz.procs.0 + 1) as u64;
    let platform_cfg = PlatformGenConfig {
        procs: sz.procs.0 + (mix(r) % span) as usize,
        modes: (1, 3),
        speed: (1.0, 8.0),
        bandwidth: (1.0, 5.0),
        e_stat: (0.0, 0.0),
        integral: true,
    };
    let app_seed = mix(r ^ 0xa5a5) & SEED_MASK;
    let platform_seed = mix(r ^ 0x5a5a) & SEED_MASK;
    let mut spec = ProblemSpec::new(scenario.objective, scenario.strategy, scenario.comm);
    if scenario.objective == Objective::Energy {
        // The fuzz fleet's rule: a period bound derived from the drawn
        // work, usually feasible.
        let apps = cpo_model::generator::random_apps(&app_cfg, app_seed);
        spec =
            spec.with_period_bounds(apps.apps.iter().map(|a| a.total_work() / 2.0 + 2.0).collect());
    }
    if matches!(scenario.objective, Objective::PeriodEnergyFront | Objective::PeriodLatencyFront) {
        // Front requests sweep on one thread: solver threads never
        // outnumber the cores the serve workers already use.
        spec.hints.sweep_threads = Some(1);
    }
    let recipe = GenRecipe {
        app_cfg,
        platform_cfg,
        platform_kind: scenario.platform.clone(),
        app_seed,
        platform_seed,
        spec,
    };
    let mut req = recipe.materialize().expect("grid platform kinds always materialize");
    req.deadline_ms = deadline_ms;
    req
}

/// Budget on every `serve_cold` request: generous for every polynomial
/// plan the generator emits (checked at generation), hopeless for the
/// saturating estimate of an exact search.
pub const COLD_DEADLINE_MS: u64 = 600_000;

/// The grid scenarios that can plan to `want` (a family name, or `None`
/// for an exact search). Sorted, so the draw is seed-deterministic.
fn scenarios_for(grid: &[Scenario], want: Option<&str>) -> Vec<Scenario> {
    grid.iter()
        .filter(|s| {
            let benes = matches!(s.platform, PlatformKind::Multistage { .. });
            match want {
                // Interval DPs on the fabric: at the larger sizes a
                // one-to-one draw would be infeasible before any solve.
                Some("Benes") => benes && s.strategy == Strategy::Interval,
                Some(f) => {
                    let (objective, strategy) = family_shape(f);
                    !benes && s.objective == objective && s.strategy == strategy
                }
                None => !benes && s.strategy == Strategy::General,
            }
        })
        .cloned()
        .collect()
}

/// The (objective, strategy) a non-Benes family is planned from.
fn family_shape(f: &str) -> (Objective, Strategy) {
    match f {
        "PeriodOneToOne" => (Objective::Period, Strategy::OneToOne),
        "PeriodInterval" => (Objective::Period, Strategy::Interval),
        "PeriodReplicated" => (Objective::Period, Strategy::Replicated),
        "LatencyOneToOne" => (Objective::Latency, Strategy::OneToOne),
        "LatencyInterval" => (Objective::Latency, Strategy::Interval),
        "EnergyMatching" => (Objective::Energy, Strategy::OneToOne),
        "EnergyInterval" => (Objective::Energy, Strategy::Interval),
        "EnergyReplicated" => (Objective::Energy, Strategy::Replicated),
        "FrontPeriodEnergyInterval" => (Objective::PeriodEnergyFront, Strategy::Interval),
        "FrontPeriodEnergyOneToOne" => (Objective::PeriodEnergyFront, Strategy::OneToOne),
        "FrontPeriodLatency" => (Objective::PeriodLatencyFront, Strategy::Interval),
        other => unreachable!("unknown family {other}"),
    }
}

/// Draw one template of family `want` (`None` = exact-search deadline
/// bait). Retries fresh salts until the router agrees.
fn template_of(
    workload: Workload,
    grid: &[Scenario],
    want: Option<&'static str>,
    salt: u64,
) -> Template {
    let candidates = scenarios_for(grid, want);
    let deadline = (workload == Workload::ServeCold).then_some(COLD_DEADLINE_MS);
    for attempt in 0..10_000u64 {
        let r = mix(salt ^ attempt.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let scenario = &candidates[(r % candidates.len() as u64) as usize];
        let mut req = draw(scenario, size(workload, want), r, deadline);
        if want.is_none() {
            req.problem.hints.exact_fallback = true;
        }
        let Ok(p) = plan(&req.apps, &req.platform, &req.problem) else {
            continue;
        };
        match want {
            None if is_exact_search(p) => {
                return Template::request(req, None, Expect::DeadlinePlan);
            }
            Some(f) if family(p) == Some(f) => {
                let est_ms = p.cost_estimate(&req.apps, &req.platform, &req.problem)
                    / cpo_serve::DEFAULT_COST_UNITS_PER_MS;
                assert!(
                    est_ms < COLD_DEADLINE_MS / 4,
                    "{f}: estimate {est_ms} ms is not generous under the deadline"
                );
                req.description = format!("perfbench {} {f}", workload.name());
                return Template::request(req, Some(f), Expect::Solve);
            }
            _ => {}
        }
    }
    panic!("no grid scenario plans to {want:?} at the {} size", workload.name())
}

/// A generated workload: its distinct templates and the line stream over
/// them.
#[derive(Debug, Clone)]
pub struct Generated {
    /// Which workload.
    pub workload: Workload,
    /// The seed it was drawn from.
    pub seed: u64,
    /// The distinct templates.
    pub templates: Vec<Template>,
    /// For [`Workload::BatchCheck`] and [`Workload::ServeCold`]: the
    /// fixed template order of one pass. Empty for the endless hot stream.
    pub pass: Vec<usize>,
}

/// Distinct request templates in the hot mix: three per family.
const HOT_PER_FAMILY: usize = 3;
/// Share of garbage lines in the hot stream, per mille.
const HOT_GARBAGE_PERMILLE: u64 = 20;
/// Distinct requests in one `serve_cold` pass (one server lifetime).
pub const COLD_PASS: usize = 1200;
/// Items in the `batch_check` file.
pub const BATCH_ITEMS: usize = 2000;

/// Relative weights of the families in `serve_cold`: the replicated DPs,
/// the fronts and the matching, where solver kernels do the work, come
/// up more often than the families whose solve is cheaper than parsing
/// their request.
fn cold_weight(f: &str) -> u64 {
    match f {
        "PeriodReplicated" | "EnergyReplicated" => 3,
        "FrontPeriodEnergyInterval" | "FrontPeriodEnergyOneToOne" | "FrontPeriodLatency" => 2,
        "EnergyMatching" => 2,
        _ => 1,
    }
}

/// Relative weights of the families in the batch file: interval DPs and
/// fronts carry the file; every other family keeps a small share so each
/// per-family row is measured on every workload.
fn batch_weight(f: &str) -> u64 {
    match f {
        "PeriodOneToOne" | "LatencyOneToOne" | "EnergyMatching" => 2,
        "Benes" => 4,
        _ => 10,
    }
}

/// `n` draws in seeded order with exact shares: each cycle holds every
/// family `weight(f)` times plus `bait` exact-search slots (`None`).
/// Fixed shares keep the work per pass the same from seed to seed.
fn stratified(
    n: usize,
    weight: fn(&str) -> u64,
    bait: usize,
    seed: u64,
) -> Vec<Option<&'static str>> {
    let mut cycle: Vec<Option<&'static str>> = vec![None; bait];
    for f in FAMILIES {
        cycle.extend(std::iter::repeat_n(Some(f), weight(f) as usize));
    }
    let mut out: Vec<_> = cycle.iter().copied().cycle().take(n).collect();
    for i in (1..n).rev() {
        out.swap(i, (mix(seed ^ (i as u64) << 16) % (i as u64 + 1)) as usize);
    }
    out
}

/// Generate a workload from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Generated {
    let grid = scenario_grid();
    let base = mix(seed ^ (workload as u64 + 1).wrapping_mul(0x9e37_79b9));
    let mut templates = Vec::new();
    let mut pass = Vec::new();
    match workload {
        Workload::ServeHot => {
            for (fi, f) in FAMILIES.iter().enumerate() {
                for k in 0..HOT_PER_FAMILY {
                    let salt = mix(base ^ ((fi * HOT_PER_FAMILY + k) as u64) << 8);
                    templates.push(template_of(workload, &grid, Some(f), salt));
                }
            }
            templates.extend(GARBAGE.iter().map(|g| Template::garbage(g)));
        }
        Workload::ServeCold => {
            // One exact-search bait per weight cycle: 1/21 ≈ 4.8 %.
            let wants = stratified(COLD_PASS, cold_weight, 1, base);
            for (i, want) in wants.into_iter().enumerate() {
                templates.push(template_of(workload, &grid, want, mix(base ^ i as u64)));
                pass.push(i);
            }
        }
        Workload::BatchCheck => {
            let wants = stratified(BATCH_ITEMS, batch_weight, 0, base);
            for (i, want) in wants.into_iter().enumerate() {
                templates.push(template_of(workload, &grid, want, mix(base ^ i as u64)));
                pass.push(i);
            }
        }
    }
    Generated { workload, seed, templates, pass }
}

impl Generated {
    /// The template of stream line `i`.
    pub fn template_index(&self, i: u64) -> usize {
        match self.workload {
            Workload::ServeHot => {
                let r = mix(self.seed ^ mix(i));
                let requests = (self.templates.len() - GARBAGE.len()) as u64;
                if r % 1000 < HOT_GARBAGE_PERMILLE {
                    requests as usize + ((r >> 20) % GARBAGE.len() as u64) as usize
                } else {
                    ((r >> 10) % requests) as usize
                }
            }
            _ => self.pass[(i % self.pass.len() as u64) as usize],
        }
    }

    /// The correlation id of stream line `i`.
    pub fn id(&self, i: u64) -> String {
        let tag = match self.workload {
            Workload::ServeHot => 'h',
            Workload::ServeCold => 'c',
            Workload::BatchCheck => 'b',
        };
        format!("{tag}{i}")
    }

    /// Stream line `i` with its correlation id.
    pub fn line(&self, i: u64) -> String {
        self.templates[self.template_index(i)].line(Some(&self.id(i)))
    }

    /// The batch file: one id-less line per pass entry.
    pub fn batch_file(&self) -> String {
        let mut out = String::new();
        for &t in &self.pass {
            out.push_str(&self.templates[t].line(None));
            out.push('\n');
        }
        out
    }

    /// A one-screen profile of the first `lines` stream lines, with the
    /// expected outcome kind of each template.
    pub fn profile(&self, lines: u64, kinds: &[&str]) -> String {
        let mut bytes = 0usize;
        let mut families: BTreeMap<&str, u64> = BTreeMap::new();
        let mut expects: BTreeMap<&str, u64> = BTreeMap::new();
        let mut digests = HashSet::new();
        for i in 0..lines {
            let t = &self.templates[self.template_index(i)];
            bytes += match self.workload {
                Workload::BatchCheck => t.line(None).len() + 1,
                _ => self.line(i).len() + 1,
            };
            *families.entry(t.family.unwrap_or("-")).or_insert(0) += 1;
            *expects.entry(kinds[self.template_index(i)]).or_insert(0) += 1;
            if let Some(d) = t.digest() {
                digests.insert(d);
            }
        }
        let fmt = |m: &BTreeMap<_, u64>| {
            m.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
        };
        format!(
            "profile {} seed={}: lines={lines} bytes={bytes} ({:.0} B/line) distinct_digests={}\n  \
             families: {}\n  expected: {}",
            self.workload.name(),
            self.seed,
            bytes as f64 / lines.max(1) as f64,
            digests.len(),
            fmt(&families),
            fmt(&expects),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        for w in [Workload::ServeHot, Workload::BatchCheck] {
            let a = generate(w, 7);
            let b = generate(w, 7);
            let c = generate(w, 8);
            let lines = |g: &Generated| (0..300).map(|i| g.line(i)).collect::<Vec<_>>();
            assert_eq!(lines(&a), lines(&b), "{}", w.name());
            assert_ne!(lines(&a), lines(&c), "{}", w.name());
            if w == Workload::BatchCheck {
                assert_eq!(a.batch_file(), b.batch_file());
            }
        }
    }

    #[test]
    fn hot_mix_covers_every_family_and_garbage() {
        let g = generate(Workload::ServeHot, 1);
        for f in FAMILIES {
            assert!(g.templates.iter().any(|t| t.family == Some(f)), "{f} missing");
        }
        let garbage = (0..5000).filter(|&i| g.templates[g.template_index(i)].req.is_none()).count();
        assert!((50..200).contains(&garbage), "garbage share {garbage}/5000");
        for i in 0..50 {
            let line = g.line(i);
            let t = &g.templates[g.template_index(i)];
            assert_eq!(SolveRequest::from_json(&line).is_ok(), t.req.is_some(), "{line}");
        }
    }
}
