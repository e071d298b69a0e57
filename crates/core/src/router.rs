//! The solver router: one typed front door for every solver in the crate.
//!
//! A [`ProblemSpec`](cpo_model::spec::ProblemSpec) *names* one of the
//! paper's ~20 problems (objective × strategy × communication model ×
//! threshold bundle); the router [`plan`]s it — validating it against the
//! instance and selecting the matching theorem, exact baseline or
//! heuristic — and [`route`]s it to a typed
//! [`SolveOutcome`](cpo_model::spec::SolveOutcome). The planner is a pure
//! function from `(instance shape, platform class, spec)` to a [`Plan`],
//! so tests and callers can introspect *which* algorithm a spec resolves
//! to without running it.
//!
//! Guarantees:
//!
//! * **No panics.** Malformed specs (wrong bound counts, NaN bounds,
//!   objective also bounded, …) come back as
//!   [`SolveOutcome::Unsupported`] with a reason; solver-level
//!   infeasibility comes back as [`SolveOutcome::Infeasible`]. Batch
//!   drivers can therefore run mixed workloads without aborting.
//! * **Bitwise equivalence.** Routing adds dispatch only: every plan
//!   executes the public entry point a direct caller would use, or the
//!   crate-private `*_scratch` core behind it with a reusable
//!   [`RouterScratch`], so objectives and mappings are bit-for-bit
//!   identical to the direct calls — proved
//!   by `tests/router_equivalence.rs` over random instances under both
//!   communication models.
//! * **Fallback policy is explicit.** NP-hard combinations resolve to the
//!   exponential exact baselines only when
//!   [`SolverHints::exact_fallback`](cpo_model::spec::SolverHints) is set,
//!   and to polynomial heuristics only when
//!   [`SolverHints::heuristic_fallback`](cpo_model::spec::SolverHints) is
//!   set; otherwise the spec is reported unsupported with the reason (and
//!   the theorem that proves the hardness).

use crate::bi::period_energy::{
    min_energy_interval_scratch, min_energy_one_to_one_with_table, StageCostTable,
};
use crate::bi::period_latency::{
    min_latency_under_period_scratch, min_period_under_latency_fully_hom,
};
use crate::dp::DpWorkspace;
use crate::exact::{exact_optimize, ExactConfig, SpeedPolicy};
use crate::heuristics::{local_search, LocalSearchConfig};
use crate::pareto::{period_energy_front, period_latency_front};
use crate::solution::{Criterion, MappingKind, Solution};
use crate::sweep::{FrontPoint, Sweep};
use cpo_matching::{BenesNetwork, CostMatrix, HungarianWorkspace};
use cpo_model::prelude::*;
use cpo_model::spec::FrontEntry;

/// The algorithm a spec resolves to. Produced by [`plan`], executed by
/// [`route`] / [`route_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plan {
    /// Theorem 1: period, one-to-one, communication homogeneous.
    PeriodOneToOne,
    /// Theorem 3 / Algorithm 2: period, interval, fully homogeneous.
    PeriodInterval,
    /// Section 6 replication DP: period, replicated intervals.
    PeriodReplicated,
    /// Exhaustive general-mapping search (exact fallback; NP-hard).
    PeriodGeneralExact,
    /// LPT packing heuristic for general mappings.
    PeriodGeneralLpt,
    /// Theorem 16 dual: period under latency bounds, interval.
    PeriodUnderLatency,
    /// Theorem 24 variant 1: period under latency bounds + energy budget.
    PeriodTriUnimodal,
    /// Theorem 8: latency, one-to-one, fully homogeneous.
    LatencyOneToOne,
    /// Reference [5] rearrangement: latency, one-to-one, single app.
    LatencyOneToOneSingleApp,
    /// Greedy heuristic for multi-app one-to-one latency (NP-hard, Thm 9).
    LatencyOneToOneGreedy,
    /// Theorem 12: latency, interval, communication homogeneous.
    LatencyInterval,
    /// Theorems 15/16: latency under period bounds, interval.
    LatencyUnderPeriod,
    /// Theorem 24 variant 2: latency under period bounds + energy budget.
    LatencyTriUnimodal,
    /// Theorem 19: energy under period bounds, one-to-one (Hungarian).
    EnergyMatching,
    /// Theorems 18/21: energy under period bounds, interval (DP).
    EnergyInterval,
    /// Section 6 extension: energy under period bounds, replicated.
    EnergyReplicated,
    /// Theorem 24 variant 3: energy under period + latency bounds.
    EnergyTriUnimodal,
    /// Theorems 26/27 branch-and-bound (exact fallback; NP-hard).
    EnergyBranchAndBound,
    /// Randomized local search (heuristic fallback).
    EnergyLocalSearch,
    /// Exhaustive mapping enumeration (exact fallback).
    ExactEnumeration,
    /// Pruned parallel sweep: period/energy front, interval mappings.
    FrontPeriodEnergyInterval,
    /// Pruned parallel sweep: period/energy front, one-to-one mappings.
    FrontPeriodEnergyOneToOne,
    /// Pruned parallel sweep: period/latency front, interval mappings.
    FrontPeriodLatency,
    /// A base plan on a `CommTopology::Multistage` platform: run the base
    /// solver (whose cost tables already carry the fabric traversal
    /// overhead), then certify that the mapping's inter-processor flow
    /// pattern routes contention-free through the Benes network. Plain
    /// interval/one-to-one mappings always form a partial permutation, so
    /// the certificate is a checked invariant; a failure surfaces as
    /// [`SolveOutcome::Unsupported`], never a panic.
    Benes(BenesBase),
}

/// The base algorithms that remain sound on a multistage fabric — every
/// plan except the replicated and general-mapping families, whose
/// processor sharing / replication breaks the partial-permutation property
/// the Benes routing certificate relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenesBase {
    PeriodOneToOne,
    PeriodInterval,
    PeriodUnderLatency,
    PeriodTriUnimodal,
    LatencyOneToOne,
    LatencyOneToOneSingleApp,
    LatencyOneToOneGreedy,
    LatencyInterval,
    LatencyUnderPeriod,
    LatencyTriUnimodal,
    EnergyMatching,
    EnergyInterval,
    EnergyTriUnimodal,
    EnergyBranchAndBound,
    EnergyLocalSearch,
    ExactEnumeration,
    FrontPeriodEnergyInterval,
    FrontPeriodEnergyOneToOne,
    FrontPeriodLatency,
}

impl BenesBase {
    /// The wrapped base plan.
    pub fn base_plan(self) -> Plan {
        match self {
            BenesBase::PeriodOneToOne => Plan::PeriodOneToOne,
            BenesBase::PeriodInterval => Plan::PeriodInterval,
            BenesBase::PeriodUnderLatency => Plan::PeriodUnderLatency,
            BenesBase::PeriodTriUnimodal => Plan::PeriodTriUnimodal,
            BenesBase::LatencyOneToOne => Plan::LatencyOneToOne,
            BenesBase::LatencyOneToOneSingleApp => Plan::LatencyOneToOneSingleApp,
            BenesBase::LatencyOneToOneGreedy => Plan::LatencyOneToOneGreedy,
            BenesBase::LatencyInterval => Plan::LatencyInterval,
            BenesBase::LatencyUnderPeriod => Plan::LatencyUnderPeriod,
            BenesBase::LatencyTriUnimodal => Plan::LatencyTriUnimodal,
            BenesBase::EnergyMatching => Plan::EnergyMatching,
            BenesBase::EnergyInterval => Plan::EnergyInterval,
            BenesBase::EnergyTriUnimodal => Plan::EnergyTriUnimodal,
            BenesBase::EnergyBranchAndBound => Plan::EnergyBranchAndBound,
            BenesBase::EnergyLocalSearch => Plan::EnergyLocalSearch,
            BenesBase::ExactEnumeration => Plan::ExactEnumeration,
            BenesBase::FrontPeriodEnergyInterval => Plan::FrontPeriodEnergyInterval,
            BenesBase::FrontPeriodEnergyOneToOne => Plan::FrontPeriodEnergyOneToOne,
            BenesBase::FrontPeriodLatency => Plan::FrontPeriodLatency,
        }
    }

    /// The Benes wrapping of `plan`, or `None` when the plan's mapping
    /// class (replicated / general) is incompatible with the fabric.
    fn of(plan: Plan) -> Option<BenesBase> {
        Some(match plan {
            Plan::PeriodOneToOne => BenesBase::PeriodOneToOne,
            Plan::PeriodInterval => BenesBase::PeriodInterval,
            Plan::PeriodUnderLatency => BenesBase::PeriodUnderLatency,
            Plan::PeriodTriUnimodal => BenesBase::PeriodTriUnimodal,
            Plan::LatencyOneToOne => BenesBase::LatencyOneToOne,
            Plan::LatencyOneToOneSingleApp => BenesBase::LatencyOneToOneSingleApp,
            Plan::LatencyOneToOneGreedy => BenesBase::LatencyOneToOneGreedy,
            Plan::LatencyInterval => BenesBase::LatencyInterval,
            Plan::LatencyUnderPeriod => BenesBase::LatencyUnderPeriod,
            Plan::LatencyTriUnimodal => BenesBase::LatencyTriUnimodal,
            Plan::EnergyMatching => BenesBase::EnergyMatching,
            Plan::EnergyInterval => BenesBase::EnergyInterval,
            Plan::EnergyTriUnimodal => BenesBase::EnergyTriUnimodal,
            Plan::EnergyBranchAndBound => BenesBase::EnergyBranchAndBound,
            Plan::EnergyLocalSearch => BenesBase::EnergyLocalSearch,
            Plan::ExactEnumeration => BenesBase::ExactEnumeration,
            Plan::FrontPeriodEnergyInterval => BenesBase::FrontPeriodEnergyInterval,
            Plan::FrontPeriodEnergyOneToOne => BenesBase::FrontPeriodEnergyOneToOne,
            Plan::FrontPeriodLatency => BenesBase::FrontPeriodLatency,
            Plan::PeriodReplicated
            | Plan::EnergyReplicated
            | Plan::PeriodGeneralExact
            | Plan::PeriodGeneralLpt
            | Plan::Benes(_) => return None,
        })
    }
}

impl Plan {
    /// Crude work estimate for this plan on this instance, in abstract
    /// inner-loop units (roughly nanoseconds on a modern core, accurate
    /// to an order of magnitude at best). The batch engine sums these to
    /// decide whether a batch is worth fanning out over worker threads —
    /// the absolute scale only has to separate "microseconds" from
    /// "milliseconds", which the leading polynomial terms of each
    /// theorem's complexity bound do. Exponential fallbacks saturate: a
    /// single one justifies every thread the engine has.
    pub fn cost_estimate(&self, apps: &AppSet, platform: &Platform, spec: &ProblemSpec) -> u64 {
        let a = apps.a() as u64;
        let n = apps.n_max() as u64;
        let nt = apps.total_stages() as u64;
        let p = platform.p() as u64;
        let q = platform.procs.iter().map(|pr| pr.modes()).max().unwrap_or(1) as u64;
        let log2 = |x: u64| u64::from(64 - x.max(2).leading_zeros());
        let m = |xs: &[u64]| xs.iter().copied().fold(1u64, u64::saturating_mul);
        match self {
            // Exponential exact baselines: always worth every thread.
            Plan::PeriodGeneralExact
            | Plan::EnergyBranchAndBound
            | Plan::ExactEnumeration => u64::MAX / 4,
            // Mono-criterion polynomial solvers.
            Plan::PeriodOneToOne => m(&[nt * p, nt * p, log2(nt * p)]),
            Plan::PeriodInterval => m(&[a, n, n, p]),
            Plan::PeriodReplicated => m(&[a, n, n, p, q]),
            Plan::PeriodGeneralLpt => m(&[nt, p, log2(nt)]),
            Plan::LatencyOneToOne | Plan::LatencyOneToOneSingleApp => m(&[nt, log2(nt), p]),
            Plan::LatencyOneToOneGreedy => m(&[nt, p]),
            Plan::LatencyInterval => m(&[a, n, p]),
            // Bounded bi-/tri-criteria DPs (binary-search duals pay an
            // extra log factor folded into the p² term).
            Plan::LatencyUnderPeriod => m(&[a, n, n, p, q]),
            Plan::PeriodUnderLatency => m(&[a, n, n, p, p, q]),
            Plan::PeriodTriUnimodal | Plan::LatencyTriUnimodal | Plan::EnergyTriUnimodal => {
                m(&[a, n, n, p, p])
            }
            Plan::EnergyMatching => {
                let v = nt.max(p);
                m(&[v, v, v])
            }
            Plan::EnergyInterval => m(&[a, n, n, p, q]),
            Plan::EnergyReplicated => m(&[a, n, n, n, p, q]),
            Plan::EnergyLocalSearch => {
                let iters = spec.hints.local_search_iterations.unwrap_or(10_000) as u64;
                m(&[iters, nt.max(1)])
            }
            // Front sweeps: candidate count × per-candidate solve.
            Plan::FrontPeriodEnergyInterval => m(&[a, n, p, q, a, n, n, p, q]),
            Plan::FrontPeriodEnergyOneToOne => {
                let v = nt.max(p);
                m(&[a, n, p, q, v, v, v])
            }
            Plan::FrontPeriodLatency => m(&[a, n, p, a, n, n, p, q]),
            // Base solve plus one Benes routing certificate: the looping
            // algorithm is O(p log p) per routed round.
            Plan::Benes(base) => base
                .base_plan()
                .cost_estimate(apps, platform, spec)
                .saturating_add(m(&[p, log2(p)])),
        }
    }

    /// One-line description (theorem and algorithm) for logs and docs.
    pub fn describe(&self) -> &'static str {
        match self {
            Plan::PeriodOneToOne => "Thm 1: binary search + greedy assignment",
            Plan::PeriodInterval => "Thm 3: period DP + Algorithm 2",
            Plan::PeriodReplicated => "replicated period DP + Algorithm 2",
            Plan::PeriodGeneralExact => "exhaustive general-mapping search",
            Plan::PeriodGeneralLpt => "LPT packing heuristic",
            Plan::PeriodUnderLatency => "Thm 16 dual: binary search over period candidates",
            Plan::PeriodTriUnimodal => "Thm 24: energy budget as processor cap + Thm 16 dual",
            Plan::LatencyOneToOne => "Thm 8: canonical assignment",
            Plan::LatencyOneToOneSingleApp => "rearrangement inequality pairing",
            Plan::LatencyOneToOneGreedy => "greedy heaviest-stage/fastest-proc heuristic",
            Plan::LatencyInterval => "Thm 12: whole chains on the A fastest processors",
            Plan::LatencyUnderPeriod => "Thm 15/16: (L,T)(i,q) DP + Algorithm 2",
            Plan::LatencyTriUnimodal => "Thm 24: energy budget as processor cap + Thm 15/16",
            Plan::EnergyMatching => "Thm 19: Hungarian matching",
            Plan::EnergyInterval => "Thm 18/21: energy DP + convolution",
            Plan::EnergyReplicated => "replicated energy DP (DVFS vs replication)",
            Plan::EnergyTriUnimodal => "Thm 24: fewest processors satisfying both bounds",
            Plan::EnergyBranchAndBound => "Thm 26/27 branch-and-bound (exact)",
            Plan::EnergyLocalSearch => "randomized local search (heuristic)",
            Plan::ExactEnumeration => "exhaustive mapping enumeration (exact)",
            Plan::FrontPeriodEnergyInterval => "pruned sweep over Thm 18/21",
            Plan::FrontPeriodEnergyOneToOne => "pruned sweep over Thm 19",
            Plan::FrontPeriodLatency => "pruned sweep over Thm 15/16",
            Plan::Benes(base) => base.base_plan().describe_benes(),
        }
    }

    /// [`Plan::describe`] for the Benes-certified wrapping of `self`.
    fn describe_benes(&self) -> &'static str {
        match self {
            Plan::PeriodOneToOne => "Thm 1 + Benes routing certificate",
            Plan::PeriodInterval => "Thm 3 + Benes routing certificate",
            Plan::PeriodUnderLatency => "Thm 16 dual + Benes routing certificate",
            Plan::PeriodTriUnimodal => "Thm 24 + Benes routing certificate",
            Plan::LatencyOneToOne => "Thm 8 + Benes routing certificate",
            Plan::LatencyOneToOneSingleApp => "rearrangement pairing + Benes certificate",
            Plan::LatencyOneToOneGreedy => "greedy heuristic + Benes routing certificate",
            Plan::LatencyInterval => "Thm 12 + Benes routing certificate",
            Plan::LatencyUnderPeriod => "Thm 15/16 + Benes routing certificate",
            Plan::LatencyTriUnimodal => "Thm 24 + Benes routing certificate",
            Plan::EnergyMatching => "Thm 19 + Benes routing certificate",
            Plan::EnergyInterval => "Thm 18/21 + Benes routing certificate",
            Plan::EnergyTriUnimodal => "Thm 24 + Benes routing certificate",
            Plan::EnergyBranchAndBound => "Thm 26/27 B&B + Benes routing certificate",
            Plan::EnergyLocalSearch => "local search + Benes routing certificate",
            Plan::ExactEnumeration => "exhaustive enumeration + Benes certificate",
            Plan::FrontPeriodEnergyInterval
            | Plan::FrontPeriodEnergyOneToOne
            | Plan::FrontPeriodLatency => "pruned sweep + Benes routing certificates",
            _ => "Benes-certified base solve",
        }
    }
}

/// Reusable per-worker solver state: the flat DP arenas, Hungarian
/// workspace, cost-matrix buffer and bound vectors the routed solvers
/// thread their computations through. One scratch per worker thread turns
/// a batch of routed solves into the same zero-allocation regime the
/// Pareto sweep engine runs in.
#[derive(Default)]
pub struct RouterScratch {
    ws: DpWorkspace,
    hungarian: HungarianWorkspace,
    matrix: CostMatrix,
    tb: Vec<f64>,
    lb: Vec<f64>,
}

impl RouterScratch {
    /// Fresh scratch (all arenas empty; they grow on first use).
    pub fn new() -> Self {
        RouterScratch::default()
    }
}

/// Validate `spec` against the instance and select the solver. `Err` holds
/// the human-readable unsupported/invalid reason.
///
/// On a `CommTopology::Multistage` platform the selected base plan comes
/// back wrapped as [`Plan::Benes`]; replicated and general-mapping specs
/// are rejected there with the hardness-aware reason (their traffic is no
/// longer a partial permutation, so the rearrangeability guarantee — and
/// with it the solvers' contention-free cost model — does not apply).
pub fn plan(apps: &AppSet, platform: &Platform, spec: &ProblemSpec) -> Result<Plan, String> {
    spec.validate(apps).map_err(|e| format!("invalid spec: {e}"))?;
    // Instance-assembly check: a `PerApp` bandwidth vector (or
    // heterogeneous input/output matrix) too short for this application
    // count used to panic deep inside the bandwidth accessors; it is a
    // typed unsupported reason now.
    platform
        .validate_for_apps(apps.a())
        .map_err(|e| format!("platform cannot serve this instance: {e}"))?;
    let base = plan_base(apps, platform, spec)?;
    if !platform.is_multistage() {
        return Ok(base);
    }
    match BenesBase::of(base) {
        Some(b) => Ok(Plan::Benes(b)),
        None => Err(format!(
            "no solver for {} / {} on a multistage fabric: replicated and general mappings \
             multiplex several flows per processor, so the traffic is not a partial permutation \
             and the Benes rearrangeability certificate (contention factor 1) does not apply",
            spec.objective.name(),
            spec.strategy.name()
        )),
    }
}

/// The topology-agnostic planner body: selects the base algorithm from
/// `(instance shape, platform class, spec)`.
fn plan_base(apps: &AppSet, platform: &Platform, spec: &ProblemSpec) -> Result<Plan, String> {
    let tb = spec.constraints.period.is_some();
    let lb = spec.constraints.latency.is_some();
    let eb = spec.constraints.energy.is_some();
    let fully_hom = platform.class() == PlatformClass::FullyHomogeneous;
    let links_hom = crate::mono::links_are_homogeneous(platform);
    let uni_modal = platform.is_uni_modal();
    let exact = spec.hints.exact_fallback;
    let heuristic = spec.hints.heuristic_fallback;
    let unsupported = |why: &str, hint: &str| {
        Err(format!(
            "no solver for {} / {} here: {why}{hint}",
            spec.objective.name(),
            spec.strategy.name()
        ))
    };
    let need_exact = ", set hints.exact_fallback to enumerate (small instances only)";
    let need_any =
        ", set hints.exact_fallback (small instances) or hints.heuristic_fallback (uncertified)";

    match (spec.objective, spec.strategy) {
        // -------------------------------------------------- period --
        (Objective::Period, Strategy::OneToOne) => {
            if lb || eb {
                if exact {
                    Ok(Plan::ExactEnumeration)
                } else {
                    unsupported("no polynomial one-to-one solver takes these bounds", need_exact)
                }
            } else if links_hom {
                Ok(Plan::PeriodOneToOne)
            } else if exact {
                Ok(Plan::ExactEnumeration)
            } else {
                unsupported("NP-hard on fully heterogeneous links (Thm 2)", need_exact)
            }
        }
        (Objective::Period, Strategy::Interval) => {
            if eb {
                if fully_hom && uni_modal {
                    Ok(Plan::PeriodTriUnimodal)
                } else if exact {
                    Ok(Plan::ExactEnumeration)
                } else {
                    unsupported(
                        "the energy budget needs a fully homogeneous uni-modal platform (Thm 24) \
                         — multi-modal is NP-hard (Thm 26)",
                        need_exact,
                    )
                }
            } else if lb {
                if fully_hom {
                    Ok(Plan::PeriodUnderLatency)
                } else if exact {
                    Ok(Plan::ExactEnumeration)
                } else {
                    unsupported("Thm 16 needs a fully homogeneous platform", need_exact)
                }
            } else if fully_hom {
                Ok(Plan::PeriodInterval)
            } else if exact {
                Ok(Plan::ExactEnumeration)
            } else {
                unsupported(
                    "NP-hard beyond fully homogeneous platforms (Thm 5 and onward)",
                    need_exact,
                )
            }
        }
        (Objective::Period, Strategy::Replicated) => {
            if tb || lb || eb {
                unsupported("the replicated period DP takes no extra bounds", "")
            } else if fully_hom {
                Ok(Plan::PeriodReplicated)
            } else {
                unsupported("replication needs a fully homogeneous platform", "")
            }
        }
        (Objective::Period, Strategy::General) => {
            if tb || lb || eb {
                unsupported("the general-mapping solvers take no extra bounds", "")
            } else if exact && fully_hom {
                Ok(Plan::PeriodGeneralExact)
            } else if heuristic && platform.p() > 0 {
                Ok(Plan::PeriodGeneralLpt)
            } else if exact {
                unsupported(
                    "the exact general search needs a fully homogeneous platform",
                    ", set hints.heuristic_fallback for the LPT packing instead",
                )
            } else {
                unsupported(
                    "processor sharing makes period minimization NP-hard even for one application",
                    need_any,
                )
            }
        }
        // ------------------------------------------------- latency --
        (Objective::Latency, Strategy::OneToOne) => {
            if tb || eb {
                if exact {
                    Ok(Plan::ExactEnumeration)
                } else {
                    unsupported("no polynomial one-to-one solver takes these bounds", need_exact)
                }
            } else if fully_hom {
                Ok(Plan::LatencyOneToOne)
            } else if apps.a() == 1 && links_hom {
                Ok(Plan::LatencyOneToOneSingleApp)
            } else if exact {
                Ok(Plan::ExactEnumeration)
            } else if heuristic && links_hom {
                Ok(Plan::LatencyOneToOneGreedy)
            } else {
                unsupported(
                    "NP-hard for several applications on heterogeneous processors (Thm 9)",
                    need_any,
                )
            }
        }
        (Objective::Latency, Strategy::Interval) => {
            if eb {
                if fully_hom && uni_modal {
                    Ok(Plan::LatencyTriUnimodal)
                } else if exact {
                    Ok(Plan::ExactEnumeration)
                } else {
                    unsupported(
                        "the energy budget needs a fully homogeneous uni-modal platform (Thm 24) \
                         — multi-modal is NP-hard (Thm 26)",
                        need_exact,
                    )
                }
            } else if tb {
                if fully_hom {
                    Ok(Plan::LatencyUnderPeriod)
                } else if exact {
                    Ok(Plan::ExactEnumeration)
                } else {
                    unsupported("Thm 15/16 needs a fully homogeneous platform", need_exact)
                }
            } else if links_hom {
                Ok(Plan::LatencyInterval)
            } else if exact {
                Ok(Plan::ExactEnumeration)
            } else {
                unsupported("NP-hard on fully heterogeneous links (Thm 13)", need_exact)
            }
        }
        (Objective::Latency, Strategy::Replicated | Strategy::General) => {
            unsupported("no latency solver exists for this mapping rule", "")
        }
        // -------------------------------------------------- energy --
        (Objective::Energy, Strategy::OneToOne) => {
            if lb {
                if exact {
                    Ok(Plan::EnergyBranchAndBound)
                } else {
                    unsupported(
                        "energy under latency bounds is NP-hard with multiple modes (Thm 26)",
                        need_exact,
                    )
                }
            } else if links_hom {
                Ok(Plan::EnergyMatching)
            } else if exact {
                Ok(Plan::EnergyBranchAndBound)
            } else {
                unsupported("NP-hard on fully heterogeneous links (Thm 20)", need_exact)
            }
        }
        (Objective::Energy, Strategy::Interval) => {
            if lb {
                if fully_hom && uni_modal {
                    Ok(Plan::EnergyTriUnimodal)
                } else if exact {
                    Ok(Plan::EnergyBranchAndBound)
                } else if heuristic {
                    Ok(Plan::EnergyLocalSearch)
                } else {
                    unsupported(
                        "energy under period + latency bounds is NP-hard with multiple modes \
                         (Thm 26/27)",
                        need_any,
                    )
                }
            } else if fully_hom {
                Ok(Plan::EnergyInterval)
            } else if exact {
                Ok(Plan::EnergyBranchAndBound)
            } else if heuristic {
                Ok(Plan::EnergyLocalSearch)
            } else {
                unsupported("Thm 18/21 needs a fully homogeneous platform", need_any)
            }
        }
        (Objective::Energy, Strategy::Replicated) => {
            if lb || eb || !tb {
                unsupported("the replicated energy DP takes exactly period bounds", "")
            } else if fully_hom {
                Ok(Plan::EnergyReplicated)
            } else {
                unsupported("replication needs a fully homogeneous platform", "")
            }
        }
        (Objective::Energy, Strategy::General) => {
            unsupported("no energy solver exists for general mappings", "")
        }
        // -------------------------------------------------- fronts --
        (Objective::PeriodEnergyFront, Strategy::Interval) => {
            if fully_hom {
                Ok(Plan::FrontPeriodEnergyInterval)
            } else {
                unsupported("the interval sweep needs a fully homogeneous platform", "")
            }
        }
        (Objective::PeriodEnergyFront, Strategy::OneToOne) => {
            if links_hom {
                Ok(Plan::FrontPeriodEnergyOneToOne)
            } else {
                unsupported("the matching sweep needs homogeneous links (Thm 20)", "")
            }
        }
        (Objective::PeriodLatencyFront, Strategy::Interval) => {
            if fully_hom {
                Ok(Plan::FrontPeriodLatency)
            } else {
                unsupported("the interval sweep needs a fully homogeneous platform", "")
            }
        }
        (Objective::PeriodEnergyFront | Objective::PeriodLatencyFront, _) => {
            unsupported("fronts exist for one-to-one and interval mappings only", "")
        }
    }
}

/// Route a spec end to end with a fresh [`RouterScratch`]. See
/// [`route_with`] for the batch form.
pub fn route(apps: &AppSet, platform: &Platform, spec: &ProblemSpec) -> SolveOutcome {
    route_with(apps, platform, spec, &mut RouterScratch::new())
}

/// Route a spec end to end, reusing `scratch` across calls (the
/// per-worker form used by the batch engine: consecutive solves share the
/// DP arenas, the Hungarian workspace and the bound buffers).
pub fn route_with(
    apps: &AppSet,
    platform: &Platform,
    spec: &ProblemSpec,
    scratch: &mut RouterScratch,
) -> SolveOutcome {
    let selected = match plan(apps, platform, spec) {
        Ok(p) => p,
        Err(reason) => return SolveOutcome::Unsupported { reason },
    };
    execute(apps, platform, spec, selected, scratch)
}

/// Execute an already-selected plan, skipping the re-validation and
/// re-planning `route_with` would perform. `selected` **must** be a plan
/// whose preconditions the `(apps, platform, spec)` triple meets —
/// usually the [`plan`] result, which callers that planned once (e.g.
/// the batch engine's adaptive cutoff) pass to avoid paying the planner
/// twice per item. [`Plan::ExactEnumeration`] meets them for every
/// non-front spec on a dedicated platform; the certification cells of
/// Tables 1 and 2 use it as the brute-force side.
pub fn route_planned(
    apps: &AppSet,
    platform: &Platform,
    spec: &ProblemSpec,
    selected: Plan,
    scratch: &mut RouterScratch,
) -> SolveOutcome {
    execute(apps, platform, spec, selected, scratch)
}

/// Bounds for the bounded solvers: the spec's vector, or `+∞` per
/// application when the criterion is unconstrained.
fn fill_bounds(dst: &mut Vec<f64>, src: &Option<Vec<f64>>, a: usize) {
    dst.clear();
    match src {
        Some(bs) => dst.extend_from_slice(bs),
        None => dst.resize(a, f64::INFINITY),
    }
}

fn plain(sol: Solution) -> SolveOutcome {
    SolveOutcome::Solution(SolvedPoint {
        objective: sol.objective,
        mapping: SolvedMapping::Plain(sol.mapping),
    })
}

fn infeasible(spec: &ProblemSpec) -> SolveOutcome {
    SolveOutcome::Infeasible {
        reason: format!(
            "no feasible {} mapping minimizing {} under the given bounds",
            spec.strategy.name(),
            spec.objective.name()
        ),
    }
}

fn from_plain(spec: &ProblemSpec, sol: Option<Solution>) -> SolveOutcome {
    match sol {
        Some(s) => plain(s),
        None => infeasible(spec),
    }
}

fn kind_of(spec: &ProblemSpec) -> MappingKind {
    match spec.strategy {
        Strategy::OneToOne => MappingKind::OneToOne,
        _ => MappingKind::Interval,
    }
}

fn sweep_of(spec: &ProblemSpec) -> Sweep {
    match spec.hints.sweep_threads {
        Some(n) => Sweep::with_threads(n),
        None => Sweep::default(),
    }
}

fn front_outcome(spec: &ProblemSpec, points: Vec<FrontPoint>) -> SolveOutcome {
    if points.is_empty() {
        return infeasible(spec);
    }
    SolveOutcome::Front(
        points
            .into_iter()
            .map(|p| FrontEntry {
                achieved: p.achieved,
                objective: p.objective,
                mapping: SolvedMapping::Plain(p.solution.mapping),
            })
            .collect(),
    )
}

fn execute(
    apps: &AppSet,
    platform: &Platform,
    spec: &ProblemSpec,
    selected: Plan,
    scratch: &mut RouterScratch,
) -> SolveOutcome {
    let a = apps.a();
    let comm = spec.comm;
    match selected {
        Plan::PeriodOneToOne => from_plain(
            spec,
            crate::mono::period_one_to_one::min_period_one_to_one_comm_hom(apps, platform, comm),
        ),
        Plan::PeriodInterval => from_plain(
            spec,
            crate::mono::period_interval::minimize_global_period(apps, platform, comm),
        ),
        Plan::PeriodReplicated => {
            match crate::replication::minimize_global_period_replicated(apps, platform, comm) {
                Some((mapping, objective)) => SolveOutcome::Solution(SolvedPoint {
                    objective,
                    mapping: SolvedMapping::Replicated(mapping),
                }),
                None => infeasible(spec),
            }
        }
        Plan::PeriodGeneralExact => {
            match crate::sharing::exact_min_period_general(apps, platform, comm) {
                Some((mapping, objective)) => SolveOutcome::Solution(SolvedPoint {
                    objective,
                    mapping: SolvedMapping::General(mapping),
                }),
                None => infeasible(spec),
            }
        }
        Plan::PeriodGeneralLpt => match crate::sharing::lpt_general_period(apps, platform, comm) {
            Some((mapping, objective)) => SolveOutcome::Solution(SolvedPoint {
                objective,
                mapping: SolvedMapping::General(mapping),
            }),
            None => infeasible(spec),
        },
        Plan::PeriodUnderLatency => {
            fill_bounds(&mut scratch.lb, &spec.constraints.latency, a);
            from_plain(
                spec,
                min_period_under_latency_fully_hom(apps, platform, comm, &scratch.lb),
            )
        }
        Plan::PeriodTriUnimodal => {
            fill_bounds(&mut scratch.lb, &spec.constraints.latency, a);
            let budget = spec.constraints.energy.expect("planned with an energy budget");
            from_plain(
                spec,
                crate::tri::unimodal::min_period_tri_unimodal(
                    apps, platform, comm, &scratch.lb, budget,
                ),
            )
        }
        Plan::LatencyOneToOne => from_plain(
            spec,
            crate::mono::latency::min_latency_one_to_one_fully_hom(apps, platform),
        ),
        Plan::LatencyOneToOneSingleApp => from_plain(
            spec,
            crate::mono::latency::min_latency_one_to_one_single_app(apps, platform),
        ),
        Plan::LatencyOneToOneGreedy => from_plain(
            spec,
            crate::mono::latency::latency_one_to_one_heuristic(apps, platform),
        ),
        Plan::LatencyInterval => from_plain(
            spec,
            crate::mono::latency::min_latency_interval_comm_hom(apps, platform),
        ),
        Plan::LatencyUnderPeriod => {
            let Some(tables) = crate::bi::interval_cost_tables(apps, platform, comm) else {
                return infeasible(spec);
            };
            fill_bounds(&mut scratch.tb, &spec.constraints.period, a);
            from_plain(
                spec,
                min_latency_under_period_scratch(
                    apps,
                    platform,
                    &tables,
                    &scratch.tb,
                    platform.p(),
                    &mut scratch.ws,
                ),
            )
        }
        Plan::LatencyTriUnimodal => {
            fill_bounds(&mut scratch.tb, &spec.constraints.period, a);
            let budget = spec.constraints.energy.expect("planned with an energy budget");
            from_plain(
                spec,
                crate::tri::unimodal::min_latency_tri_unimodal(
                    apps, platform, comm, &scratch.tb, budget,
                ),
            )
        }
        Plan::EnergyMatching => {
            let Some(table) = StageCostTable::build(apps, platform, comm) else {
                return infeasible(spec);
            };
            fill_bounds(&mut scratch.tb, &spec.constraints.period, a);
            from_plain(
                spec,
                min_energy_one_to_one_with_table(
                    apps,
                    platform,
                    &table,
                    &scratch.tb,
                    &mut scratch.hungarian,
                    &mut scratch.matrix,
                ),
            )
        }
        Plan::EnergyInterval => {
            // The same tables as the one-shot entry point.
            let Some(tables) = crate::bi::energy_cost_tables(apps, platform, comm) else {
                return infeasible(spec);
            };
            fill_bounds(&mut scratch.tb, &spec.constraints.period, a);
            from_plain(
                spec,
                min_energy_interval_scratch(
                    apps,
                    platform,
                    &tables,
                    &scratch.tb,
                    &mut scratch.ws,
                ),
            )
        }
        Plan::EnergyReplicated => {
            fill_bounds(&mut scratch.tb, &spec.constraints.period, a);
            match crate::replication::min_energy_replicated_under_period(
                apps,
                platform,
                comm,
                &scratch.tb,
            ) {
                Some((mapping, objective)) => SolveOutcome::Solution(SolvedPoint {
                    objective,
                    mapping: SolvedMapping::Replicated(mapping),
                }),
                None => infeasible(spec),
            }
        }
        Plan::EnergyTriUnimodal => {
            fill_bounds(&mut scratch.tb, &spec.constraints.period, a);
            fill_bounds(&mut scratch.lb, &spec.constraints.latency, a);
            from_plain(
                spec,
                crate::tri::unimodal::min_energy_tri_unimodal(
                    apps,
                    platform,
                    comm,
                    &scratch.tb,
                    &scratch.lb,
                ),
            )
        }
        Plan::EnergyBranchAndBound => {
            fill_bounds(&mut scratch.tb, &spec.constraints.period, a);
            fill_bounds(&mut scratch.lb, &spec.constraints.latency, a);
            from_plain(
                spec,
                crate::tri::multimodal::branch_and_bound_tri_counted(
                    apps,
                    platform,
                    comm,
                    kind_of(spec),
                    &scratch.tb,
                    &scratch.lb,
                )
                .0,
            )
        }
        Plan::EnergyLocalSearch => {
            fill_bounds(&mut scratch.tb, &spec.constraints.period, a);
            fill_bounds(&mut scratch.lb, &spec.constraints.latency, a);
            let defaults = LocalSearchConfig::default();
            let cfg = LocalSearchConfig {
                iterations: spec.hints.local_search_iterations.unwrap_or(defaults.iterations),
                seed: spec.hints.seed.unwrap_or(defaults.seed),
                ..defaults
            };
            from_plain(
                spec,
                local_search(apps, platform, comm, &scratch.tb, &scratch.lb, &cfg),
            )
        }
        Plan::ExactEnumeration => {
            let speed = if matches!(spec.objective, Objective::Energy)
                || spec.constraints.energy.is_some()
            {
                SpeedPolicy::All
            } else {
                SpeedPolicy::MaxOnly
            };
            let criterion = match spec.objective {
                Objective::Period => Criterion::Period,
                Objective::Latency => Criterion::Latency,
                Objective::Energy => Criterion::Energy,
                _ => unreachable!("fronts never plan the enumeration"),
            };
            let cfg = ExactConfig { kind: kind_of(spec), model: comm, speed };
            from_plain(
                spec,
                exact_optimize(apps, platform, cfg, criterion, &spec.constraints),
            )
        }
        Plan::FrontPeriodEnergyInterval | Plan::FrontPeriodEnergyOneToOne => {
            let kind = if selected == Plan::FrontPeriodEnergyInterval {
                MappingKind::Interval
            } else {
                MappingKind::OneToOne
            };
            front_outcome(spec, period_energy_front(apps, platform, comm, kind, &sweep_of(spec)))
        }
        Plan::FrontPeriodLatency => {
            front_outcome(spec, period_latency_front(apps, platform, comm, &sweep_of(spec)))
        }
        Plan::Benes(base) => {
            let outcome = execute(apps, platform, spec, base.base_plan(), scratch);
            certify_benes_outcome(apps, platform, outcome)
        }
    }
}

/// Certify every mapping in a routed outcome against the multistage
/// fabric: the inter-processor flow pattern must be a partial permutation
/// that the Benes network routes with every stage wire carrying at most
/// one flow. Plain interval/one-to-one mappings satisfy this by
/// construction (each enrolled processor hosts one interval, hence at most
/// one predecessor and one successor edge); a violation therefore signals
/// a mapping class the fabric cost model does not cover and comes back as
/// a typed [`SolveOutcome::Unsupported`] — never a panic.
fn certify_benes_outcome(
    apps: &AppSet,
    platform: &Platform,
    outcome: SolveOutcome,
) -> SolveOutcome {
    let check = |mapping: &SolvedMapping| -> Result<(), String> {
        match mapping {
            SolvedMapping::Plain(m) => certify_benes_mapping(apps, platform, m),
            SolvedMapping::Replicated(_) | SolvedMapping::General(_) => Err(
                "replicated/general mappings are not routable as a partial permutation".into(),
            ),
        }
    };
    let fail = |reason: String| SolveOutcome::Unsupported {
        reason: format!("multistage routing certificate failed: {reason}"),
    };
    match &outcome {
        SolveOutcome::Solution(point) => match check(&point.mapping) {
            Ok(()) => outcome,
            Err(reason) => fail(reason),
        },
        SolveOutcome::Front(entries) => {
            for e in entries {
                if let Err(reason) = check(&e.mapping) {
                    return fail(reason);
                }
            }
            outcome
        }
        SolveOutcome::Infeasible { .. } | SolveOutcome::Unsupported { .. } => outcome,
    }
}

/// Route one plain mapping's inter-processor flows through the Benes
/// network and verify the routing is contention-free.
fn certify_benes_mapping(
    apps: &AppSet,
    platform: &Platform,
    mapping: &Mapping,
) -> Result<(), String> {
    let net = BenesNetwork::with_capacity_for(platform.p());
    let mut dest: Vec<Option<usize>> = vec![None; net.ports()];
    let mut incoming = vec![false; net.ports()];
    for a in 0..apps.a() {
        let chain = mapping.app_chain(a);
        for w in chain.windows(2) {
            let (u, v) = (w[0].proc, w[1].proc);
            if u == v {
                continue; // no fabric crossing
            }
            if dest[u].is_some() {
                return Err(format!("processor {u} has several outgoing flows"));
            }
            if incoming[v] {
                return Err(format!("processor {v} has several incoming flows"));
            }
            dest[u] = Some(v);
            incoming[v] = true;
        }
    }
    let routing = net.route(&dest);
    if routing.verify(&dest) {
        Ok(())
    } else {
        Err("routed paths are not stage-edge-disjoint".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::generator::section2_example;

    fn fully_hom() -> (AppSet, Platform) {
        let (apps, _) = section2_example();
        (apps, Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap())
    }

    #[test]
    fn planner_selects_the_paper_theorems() {
        let (apps, pf) = fully_hom();
        let cases = [
            (Objective::Period, Strategy::Interval, Plan::PeriodInterval),
            (Objective::Latency, Strategy::Interval, Plan::LatencyInterval),
            (Objective::PeriodEnergyFront, Strategy::Interval, Plan::FrontPeriodEnergyInterval),
            (Objective::PeriodLatencyFront, Strategy::Interval, Plan::FrontPeriodLatency),
        ];
        for (objective, strategy, expected) in cases {
            let spec = ProblemSpec::new(objective, strategy, CommModel::Overlap);
            assert_eq!(plan(&apps, &pf, &spec).unwrap(), expected, "{}", objective.name());
        }
        let spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.0]);
        assert_eq!(plan(&apps, &pf, &spec).unwrap(), Plan::EnergyInterval);
    }

    #[test]
    fn cost_estimates_order_cheap_below_heavy() {
        let (apps, pf) = fully_hom();
        let spec = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
        let dp = Plan::PeriodInterval.cost_estimate(&apps, &pf, &spec);
        let front = Plan::FrontPeriodEnergyInterval.cost_estimate(&apps, &pf, &spec);
        let exact = Plan::ExactEnumeration.cost_estimate(&apps, &pf, &spec);
        assert!(dp > 0);
        assert!(front > dp, "a full sweep ({front}) outweighs one DP ({dp})");
        assert!(exact > front, "exponential baselines saturate");
        // The estimate never overflows into a small value on big shapes.
        let wide = Platform::fully_homogeneous(64, vec![1.0; 16], 1.0).unwrap();
        assert!(
            Plan::FrontPeriodEnergyInterval.cost_estimate(&apps, &wide, &spec)
                >= Plan::FrontPeriodEnergyInterval.cost_estimate(&apps, &pf, &spec)
        );
    }

    #[test]
    fn invalid_specs_come_back_unsupported_not_panicking() {
        let (apps, pf) = fully_hom();
        // Wrong bound count would assert inside the solver; the router
        // must catch it first.
        let spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0]);
        match route(&apps, &pf, &spec) {
            SolveOutcome::Unsupported { reason } => assert!(reason.contains("2 applications")),
            other => panic!("expected unsupported, got {other:?}"),
        }
    }

    #[test]
    fn np_hard_combination_requires_explicit_fallback() {
        let (apps, pf) = section2_example(); // comm-hom, multi-modal
        let spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.0])
            .with_latency_bounds(vec![1e9, 1e9]);
        assert!(matches!(route(&apps, &pf, &spec), SolveOutcome::Unsupported { .. }));
        let mut hinted = spec.clone();
        hinted.hints.exact_fallback = true;
        assert_eq!(plan(&apps, &pf, &hinted).unwrap(), Plan::EnergyBranchAndBound);
        match route(&apps, &pf, &hinted) {
            SolveOutcome::Solution(s) => assert!((s.objective - 46.0).abs() < 1e-9),
            other => panic!("expected solution, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_bounds_are_reported_per_spec() {
        let (apps, pf) = fully_hom();
        let spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![1e-3, 1e-3]);
        assert!(matches!(route(&apps, &pf, &spec), SolveOutcome::Infeasible { .. }));
    }

    #[test]
    fn section2_compromise_through_the_front_door() {
        let (apps, pf) = fully_hom();
        let spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.0]);
        match route(&apps, &pf, &spec) {
            SolveOutcome::Solution(s) => {
                assert!((s.objective - 46.0).abs() < 1e-9);
                s.mapping.as_plain().unwrap().validate(&apps, &pf).unwrap();
            }
            other => panic!("expected solution, got {other:?}"),
        }
    }
}
