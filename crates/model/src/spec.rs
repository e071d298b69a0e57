//! The problem IR: a typed, serde-round-trippable description of every
//! optimization problem in the paper's catalogue, plus the typed outcome
//! vocabulary the router and the batch engine speak.
//!
//! The paper enumerates ~20 distinct problems (mono/bi/tri-criteria ×
//! one-to-one/interval/general/replicated × two communication models).
//! After the solver crates grew one differently-shaped free function per
//! problem, this module gives them a single *name*: a [`ProblemSpec`] says
//! **what** to optimize ([`Objective`]), **under which** bounds on the
//! other criteria ([`crate::objective::Thresholds`]), **with which**
//! mapping rule ([`Strategy`]) and communication model, and **how** the
//! solver may fall back when no polynomial algorithm applies
//! ([`SolverHints`]). A [`SolveOutcome`] is the typed answer: a witness
//! solution, a Pareto front, a per-spec infeasibility, or an
//! unsupported-combination report with a reason — never a panic.
//!
//! Everything round-trips through JSON bit-for-bit (f64 values are printed
//! in shortest round-trippable form), so specs can be archived, sharded,
//! queued and replayed: [`SolveRequest`] bundles a spec with its instance
//! for exactly that purpose, in pretty (single request) or compact
//! (JSONL batch) form.

use crate::application::AppSet;
use crate::eval::CommModel;
use crate::io::serde_json_error::{self, Error as JsonError};
use crate::mapping::Mapping;
use crate::objective::Thresholds;
use crate::platform::Platform;
use crate::replication::ReplicatedMapping;
use crate::sharing::GeneralMapping;
use serde::{Deserialize, Serialize};

/// Current spec schema version; bumped on incompatible changes.
pub const SPEC_VERSION: u32 = 1;

/// What a [`ProblemSpec`] optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize the global weighted period `max_a W_a·T_a`.
    Period,
    /// Minimize the global weighted latency `max_a W_a·L_a`.
    Latency,
    /// Minimize the total energy of the enrolled processors.
    Energy,
    /// Extract the full period/energy trade-off front.
    PeriodEnergyFront,
    /// Extract the full period/latency trade-off front.
    PeriodLatencyFront,
}

impl Objective {
    /// Human-readable name (used in reasons and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Period => "period",
            Objective::Latency => "latency",
            Objective::Energy => "energy",
            Objective::PeriodEnergyFront => "period/energy front",
            Objective::PeriodLatencyFront => "period/latency front",
        }
    }
}

/// Which mapping rule the solver may use (Section 3.3 plus the Section 6
/// extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Each stage on a distinct processor.
    OneToOne,
    /// Each processor holds an interval of consecutive stages.
    Interval,
    /// Interval mappings whose intervals may be replicated over several
    /// processors (Section 6 extension).
    Replicated,
    /// General mappings with processor sharing (Section 6 extension).
    General,
}

impl Strategy {
    /// Human-readable name (used in reasons and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::OneToOne => "one-to-one",
            Strategy::Interval => "interval",
            Strategy::Replicated => "replicated",
            Strategy::General => "general",
        }
    }
}

/// Solver selection hints: which fallbacks the router may use when no
/// polynomial algorithm matches the spec, and tuning knobs for the ones
/// that take parameters. All default to the most conservative choice
/// (polynomial solvers only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverHints {
    /// Allow exponential exact baselines (`exact_optimize`, the
    /// tri-criteria branch-and-bound, the general-mapping enumeration) on
    /// combinations with no polynomial solver. Small instances only.
    #[serde(default)]
    pub exact_fallback: bool,
    /// Allow polynomial heuristics (LPT packing, the one-to-one latency
    /// greedy, local search) on combinations with no polynomial exact
    /// solver. The outcome is then feasible but not certified optimal.
    #[serde(default)]
    pub heuristic_fallback: bool,
    /// Worker threads for Pareto sweeps (`None` = one per core).
    #[serde(default)]
    pub sweep_threads: Option<usize>,
    /// Iteration budget for the local-search heuristic.
    #[serde(default)]
    pub local_search_iterations: Option<usize>,
    /// RNG seed for randomized heuristics (deterministic runs).
    #[serde(default)]
    pub seed: Option<u64>,
}

impl Default for SolverHints {
    /// Polynomial solvers only, default sweep parallelism.
    fn default() -> Self {
        SolverHints {
            exact_fallback: false,
            heuristic_fallback: false,
            sweep_threads: None,
            local_search_iterations: None,
            seed: None,
        }
    }
}

/// A fully-specified optimization problem over some instance: the typed
/// front door to every solver in the workspace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Spec schema version (forward compatibility checks).
    pub version: u32,
    /// The optimized criterion (or requested front).
    pub objective: Objective,
    /// The mapping rule.
    pub strategy: Strategy,
    /// The communication model (Eqs. 3 / 4).
    pub comm: CommModel,
    /// Bounds on the criteria *not* being optimized (Section 5 thresholds).
    #[serde(default)]
    pub constraints: Thresholds,
    /// Fallback permissions and tuning knobs.
    #[serde(default)]
    pub hints: SolverHints,
}

impl ProblemSpec {
    /// A fresh unconstrained spec at the current schema version.
    pub fn new(objective: Objective, strategy: Strategy, comm: CommModel) -> Self {
        ProblemSpec {
            version: SPEC_VERSION,
            objective,
            strategy,
            comm,
            constraints: Thresholds::none(),
            hints: SolverHints::default(),
        }
    }

    /// Attach per-application period bounds.
    pub fn with_period_bounds(mut self, bounds: Vec<f64>) -> Self {
        self.constraints.period = Some(bounds);
        self
    }

    /// Attach per-application latency bounds.
    pub fn with_latency_bounds(mut self, bounds: Vec<f64>) -> Self {
        self.constraints.latency = Some(bounds);
        self
    }

    /// Attach a global energy budget.
    pub fn with_energy_budget(mut self, budget: f64) -> Self {
        self.constraints.energy = Some(budget);
        self
    }

    /// Replace the hints.
    pub fn with_hints(mut self, hints: SolverHints) -> Self {
        self.hints = hints;
        self
    }

    /// Structural validation against an instance: schema version, bound
    /// vector lengths, NaN/non-positive bounds, and objective/constraint
    /// coherence (the optimized criterion must not also be bounded; fronts
    /// take no constraints). Returns the first problem found as a
    /// human-readable reason — the router turns it into
    /// [`SolveOutcome::Unsupported`] instead of panicking.
    pub fn validate(&self, apps: &AppSet) -> Result<(), String> {
        if self.version != SPEC_VERSION {
            return Err(format!(
                "unsupported spec version {} (expected {SPEC_VERSION})",
                self.version
            ));
        }
        let a = apps.a();
        let check_bounds = |name: &str, bounds: &Option<Vec<f64>>| -> Result<(), String> {
            if let Some(bs) = bounds {
                if bs.len() != a {
                    return Err(format!(
                        "{name} bounds have {} entries but the instance has {a} applications",
                        bs.len()
                    ));
                }
                for (i, &b) in bs.iter().enumerate() {
                    if b.is_nan() || b <= 0.0 {
                        return Err(format!("{name} bound {b} for application {i} is not positive"));
                    }
                }
            }
            Ok(())
        };
        check_bounds("period", &self.constraints.period)?;
        check_bounds("latency", &self.constraints.latency)?;
        if let Some(e) = self.constraints.energy {
            if e.is_nan() || e <= 0.0 {
                return Err(format!("energy budget {e} is not positive"));
            }
        }
        let bounded = |o: Objective| match o {
            Objective::Period => self.constraints.period.is_some(),
            Objective::Latency => self.constraints.latency.is_some(),
            Objective::Energy => self.constraints.energy.is_some(),
            _ => false,
        };
        match self.objective {
            Objective::Period | Objective::Latency | Objective::Energy => {
                if bounded(self.objective) {
                    return Err(format!(
                        "the optimized criterion ({}) must not also be bounded",
                        self.objective.name()
                    ));
                }
            }
            Objective::PeriodEnergyFront | Objective::PeriodLatencyFront => {
                if self.constraints.period.is_some()
                    || self.constraints.latency.is_some()
                    || self.constraints.energy.is_some()
                {
                    return Err(format!(
                        "{} extraction takes no extra constraints",
                        self.objective.name()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, JsonError> {
        serde_json_error::to_string_pretty(self)
    }

    /// Deserialize from JSON (no instance at hand: structural parse only).
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        serde_json_error::from_str(json)
    }
}

/// A mapping of any strategy, ready for serialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolvedMapping {
    /// A plain one-to-one or interval mapping.
    Plain(Mapping),
    /// A replicated interval mapping.
    Replicated(ReplicatedMapping),
    /// A general (processor-sharing) mapping.
    General(GeneralMapping),
}

impl SolvedMapping {
    /// The plain mapping, when this is one.
    pub fn as_plain(&self) -> Option<&Mapping> {
        match self {
            SolvedMapping::Plain(m) => Some(m),
            _ => None,
        }
    }
}

/// A witness solution: the achieved objective value plus the mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolvedPoint {
    /// The optimized objective value achieved by `mapping`.
    pub objective: f64,
    /// The witness mapping.
    pub mapping: SolvedMapping,
}

/// One point of a returned trade-off front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontEntry {
    /// The primary-criterion value achieved by the witness mapping.
    pub achieved: f64,
    /// The minimized secondary objective at this point.
    pub objective: f64,
    /// The witness mapping.
    pub mapping: SolvedMapping,
}

/// The typed answer to a [`ProblemSpec`]: exactly one of a solution, a
/// front, a per-spec infeasibility or an unsupported-combination report.
/// Batch runs report one outcome per item — a bad spec never aborts its
/// batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolveOutcome {
    /// The optimum (or, under a heuristic fallback, a feasible witness).
    Solution(SolvedPoint),
    /// The requested Pareto front, sorted by increasing achieved value.
    Front(Vec<FrontEntry>),
    /// The instance admits no mapping satisfying the spec.
    Infeasible {
        /// What was found infeasible.
        reason: String,
    },
    /// No solver covers this spec/platform combination (with the given
    /// fallback permissions), or the spec itself is malformed.
    Unsupported {
        /// Why the combination is not covered.
        reason: String,
    },
}

impl SolveOutcome {
    /// The solution's objective value, when the outcome is one.
    pub fn objective(&self) -> Option<f64> {
        match self {
            SolveOutcome::Solution(s) => Some(s.objective),
            _ => None,
        }
    }

    /// True for [`SolveOutcome::Solution`] and [`SolveOutcome::Front`].
    pub fn is_success(&self) -> bool {
        matches!(self, SolveOutcome::Solution(_) | SolveOutcome::Front(_))
    }

    /// Short tag for logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            SolveOutcome::Solution(_) => "solution",
            SolveOutcome::Front(_) => "front",
            SolveOutcome::Infeasible { .. } => "infeasible",
            SolveOutcome::Unsupported { .. } => "unsupported",
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, JsonError> {
        serde_json_error::to_string_pretty(self)
    }

    /// Serialize to compact single-line JSON (JSONL-friendly).
    pub fn to_json_compact(&self) -> Result<String, JsonError> {
        serde_json_error::to_string(self)
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        serde_json_error::from_str(json)
    }
}

/// A self-contained solve request: instance + problem, the unit of work of
/// the batch engine, of the `solve`/`batch` CLI subcommands, and of the
/// long-lived serve loop.
///
/// The serving envelope (`id`/`tenant`/`deadline_ms`) is optional and
/// ignored by the one-shot paths: `id` is echoed back so a streaming
/// client can correlate replies, `tenant` keys the server's per-tenant
/// token-bucket fairness, and `deadline_ms` is the soft deadline budget
/// (milliseconds from admission) the server enforces at dequeue and at
/// router-plan time. None of the three participates in the structural
/// digests — two requests for the same work share cache entries and
/// quarantine state regardless of who sent them or how urgently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveRequest {
    /// Request schema version.
    pub version: u32,
    /// Free-form description (provenance, purpose).
    #[serde(default)]
    pub description: String,
    /// Client-assigned correlation id, echoed verbatim in serve replies.
    #[serde(default)]
    pub id: Option<String>,
    /// Fairness key for the serve admission controller (absent = the
    /// anonymous tenant).
    #[serde(default)]
    pub tenant: Option<String>,
    /// Soft deadline budget in milliseconds from admission (absent = no
    /// deadline).
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// The concurrent applications.
    pub apps: AppSet,
    /// The target platform.
    pub platform: Platform,
    /// The problem to solve on them.
    pub problem: ProblemSpec,
}

impl SolveRequest {
    /// Bundle a request.
    pub fn new(
        description: impl Into<String>,
        apps: AppSet,
        platform: Platform,
        problem: ProblemSpec,
    ) -> Self {
        SolveRequest {
            version: SPEC_VERSION,
            description: description.into(),
            id: None,
            tenant: None,
            deadline_ms: None,
            apps,
            platform,
            problem,
        }
    }

    /// Attach a correlation id (echoed in serve replies).
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = Some(id.into());
        self
    }

    /// Attach a tenant fairness key.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Attach a soft deadline budget (milliseconds from admission).
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, JsonError> {
        serde_json_error::to_string_pretty(self)
    }

    /// Serialize to compact single-line JSON (one JSONL batch line).
    pub fn to_json_compact(&self) -> Result<String, JsonError> {
        serde_json_error::to_string(self)
    }

    /// Deserialize from JSON, checking the schema version.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        let req: SolveRequest = serde_json_error::from_str(json)?;
        if req.version != SPEC_VERSION {
            return Err(JsonError(format!(
                "unsupported request version {} (expected {SPEC_VERSION})",
                req.version
            )));
        }
        Ok(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::section2_example;
    use crate::mapping::Interval;

    fn spec() -> ProblemSpec {
        ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.5])
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let s = spec();
        let json = s.to_json().unwrap();
        assert_eq!(ProblemSpec::from_json(&json).unwrap(), s);
    }

    #[test]
    fn outcome_roundtrips_through_json() {
        let mapping = Mapping::new().with(Interval::new(0, 0, 2), 0, 1);
        let out = SolveOutcome::Solution(SolvedPoint {
            objective: 46.25,
            mapping: SolvedMapping::Plain(mapping),
        });
        let json = out.to_json().unwrap();
        assert_eq!(SolveOutcome::from_json(&json).unwrap(), out);
        let compact = out.to_json_compact().unwrap();
        assert!(!compact.contains('\n'));
        assert_eq!(SolveOutcome::from_json(&compact).unwrap(), out);
    }

    #[test]
    fn request_roundtrips_and_checks_version() {
        let (apps, platform) = section2_example();
        let req = SolveRequest::new("s2", apps, platform, spec());
        let json = req.to_json().unwrap();
        assert_eq!(SolveRequest::from_json(&json).unwrap(), req);
        let mut bad = req.clone();
        bad.version = 99;
        assert!(SolveRequest::from_json(&bad.to_json().unwrap()).is_err());
    }

    #[test]
    fn invalid_stage_names_its_application() {
        let (apps, platform) = section2_example();
        let mut req = SolveRequest::new("s2", apps, platform, spec());
        req.apps.apps[1].stages[0].work = 1e300;
        let json = req.to_json_compact().unwrap();
        assert_eq!(json.matches("1e300").count(), 1);
        // `1e999` overflows to +∞: a non-finite work in application 1.
        let err = SolveRequest::from_json(&json.replace("1e300", "1e999")).unwrap_err();
        assert!(
            err.to_string().contains("invalid stage S_1^0: negative or non-finite work"),
            "{err}"
        );
    }

    #[test]
    fn envelope_fields_roundtrip_and_default() {
        let (apps, platform) = section2_example();
        let req = SolveRequest::new("s2", apps, platform, spec())
            .with_id("req-42")
            .with_tenant("team-a")
            .with_deadline_ms(250);
        let json = req.to_json().unwrap();
        let back = SolveRequest::from_json(&json).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.id.as_deref(), Some("req-42"));
        assert_eq!(back.tenant.as_deref(), Some("team-a"));
        assert_eq!(back.deadline_ms, Some(250));
        // Pre-envelope requests (no id/tenant/deadline keys) still parse.
        let compact = SolveRequest::new("bare", back.apps.clone(), back.platform.clone(), spec())
            .to_json_compact()
            .unwrap();
        let stripped = compact
            .replace("\"id\":null,", "")
            .replace("\"tenant\":null,", "")
            .replace("\"deadline_ms\":null,", "");
        let bare = SolveRequest::from_json(&stripped).unwrap();
        assert_eq!(bare.id, None);
        assert_eq!(bare.tenant, None);
        assert_eq!(bare.deadline_ms, None);
    }

    #[test]
    fn validation_catches_malformed_specs() {
        let (apps, _) = section2_example();
        assert!(spec().validate(&apps).is_ok());
        // Wrong bound count.
        let s = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0]);
        assert!(s.validate(&apps).is_err());
        // Objective also bounded.
        let s = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.0]);
        assert!(s.validate(&apps).is_err());
        // NaN bound.
        let s = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![f64::NAN, 1.0]);
        assert!(s.validate(&apps).is_err());
        // Front with constraints.
        let s =
            ProblemSpec::new(Objective::PeriodEnergyFront, Strategy::Interval, CommModel::Overlap)
                .with_energy_budget(10.0);
        assert!(s.validate(&apps).is_err());
        // Wrong version.
        let mut s = spec();
        s.version = 7;
        assert!(s.validate(&apps).is_err());
    }

    #[test]
    fn defaults_fill_missing_fields() {
        // A spec without constraints/hints keys parses with defaults.
        let json = r#"{
            "version": 1,
            "objective": "Period",
            "strategy": "Interval",
            "comm": "Overlap"
        }"#;
        let s = ProblemSpec::from_json(json).unwrap();
        assert_eq!(s.constraints, Thresholds::none());
        assert_eq!(s.hints, SolverHints::default());
    }
}
