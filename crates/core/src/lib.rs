//! # cpo-core — solvers for concurrent pipelined applications
//!
//! This crate implements **every algorithm** of Benoit, Renaud-Goud,
//! Robert, *"Performance and energy optimization of concurrent pipelined
//! applications"* (IPDPS 2010), plus exact baselines and the heuristics the
//! paper defers to future work.
//!
//! | Module | Paper result | Problem |
//! |---|---|---|
//! | [`mono::period_one_to_one`] | Thm 1 | period, one-to-one, comm-homogeneous (binary search + greedy) |
//! | [`mono::period_interval`] | Thm 3 | period, interval, fully homogeneous (DP + Algorithm 2) |
//! | [`mono::latency`] | Thms 8, 12 | latency, one-to-one / interval |
//! | [`bi::period_latency`] | Thms 15, 16 | latency under period bounds and dual (DP) |
//! | [`bi::period_energy`] | Thms 18, 19, 21 | energy under period bounds (DP / Hungarian matching) |
//! | [`tri::unimodal`] | Thms 23, 24 | tri-criteria with uni-modal processors |
//! | [`tri::multimodal`] | Thms 26, 27 | tri-criteria, exact branch-and-bound (NP-hard) |
//! | [`exact`] | — | exhaustive baselines certifying optimality |
//! | [`fairness`] | Eq. 6 / Thms 6, 7 | stretch weights, reference optima, weight-scaling trick |
//! | [`heuristics`] | Section 6 | greedy DVFS downscaling, local search |
//! | [`replication`] | Section 6 ext. | replicated intervals: period DP, energy-aware DVFS-vs-replication |
//! | [`sharing`] | Section 6 ext. | general mappings: exact, LPT heuristic, sharing-gain experiment |
//! | [`pareto`] | — | period/energy and period/latency trade-off fronts |
//! | [`sweep`] | — | pruned, parallel threshold-sweep engine behind every front |
//!
//! All solvers return a [`Solution`] (mapping + objective value) or `None`
//! when the instance is infeasible for the requested strategy.

pub mod alloc;
pub mod bi;
pub mod dp;
pub mod exact;
pub mod fairness;
pub mod heuristics;
pub mod mono;
pub mod pareto;
pub mod replication;
pub mod router;
pub mod sharing;
pub mod solution;
pub mod sweep;
pub mod tri;

pub use router::{plan, route, route_with, Plan, RouterScratch};
pub use solution::{Criterion, MappingKind, Solution};

/// Prelude re-exporting the crate's full public solver surface: the one
/// entry point of every solver (mono/bi/tri solvers, exact baselines,
/// heuristics, fairness, the Section 6 extensions), the two Pareto fronts
/// with their [`Sweep`](crate::sweep::Sweep) configuration and
/// [`FrontPoint`](crate::sweep::FrontPoint) result, plus the typed front
/// door (problem IR + router). The per-candidate scratch forms the router
/// and the sweeps reuse workspaces through stay inside the crate.
pub mod prelude {
    pub use crate::bi::period_energy::{
        min_energy_interval_fully_hom, min_energy_one_to_one_matching,
    };
    pub use crate::bi::period_latency::{
        min_latency_under_period_fully_hom, min_period_under_latency_fully_hom,
    };
    pub use crate::exact::{exact_optimize, ExactConfig, SpeedPolicy};
    pub use crate::fairness::{
        apply_period_stretch_weights, reference_latencies, reference_periods,
        reference_periods_exact, scale_out_weights,
    };
    pub use crate::heuristics::{greedy_energy_downscale, local_search, LocalSearchConfig};
    pub use crate::mono::latency::{
        latency_one_to_one_heuristic, min_latency_interval_comm_hom,
        min_latency_one_to_one_fully_hom, min_latency_one_to_one_single_app,
    };
    pub use crate::mono::period_interval::minimize_global_period;
    pub use crate::mono::period_one_to_one::min_period_one_to_one_comm_hom;
    pub use crate::pareto::{period_energy_front, period_latency_front};
    pub use crate::replication::{
        min_energy_replicated_under_period, minimize_global_period_replicated,
        replicated_period_table, ReplicatedPartition, ReplicatedPeriodTable,
    };
    pub use crate::router::{plan, route, route_with, Plan, RouterScratch};
    pub use crate::sharing::{exact_min_period_general, lpt_general_period, sharing_gain};
    pub use crate::solution::{Criterion, MappingKind, Solution};
    pub use crate::sweep::{FrontPoint, Sweep};
    pub use crate::tri::multimodal::{branch_and_bound_tri_counted, tri_feasible};
    pub use crate::tri::unimodal::{
        min_energy_tri_unimodal, min_latency_tri_unimodal, min_period_tri_unimodal,
    };
    pub use cpo_model::spec::{
        FrontEntry, Objective, ProblemSpec, SolveOutcome, SolveRequest, SolvedMapping,
        SolvedPoint, SolverHints, Strategy,
    };
}
