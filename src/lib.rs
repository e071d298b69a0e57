//! # concurrent-pipelines
//!
//! Facade crate for the reproduction of Benoit, Renaud-Goud, Robert,
//! *"Performance and energy optimization of concurrent pipelined
//! applications"* (IPDPS 2010).
//!
//! The workspace is organized as:
//! * [`model`] — applications, platforms, mappings, period/latency/energy
//!   evaluation, generators, NP-hardness gadgets and the typed problem IR
//!   (`ProblemSpec` / `SolveOutcome`);
//! * [`matching`] — bipartite matching substrate (Hungarian, Benes routing);
//! * [`simulator`] — discrete-event and live multi-threaded execution of a
//!   mapping;
//! * [`solvers`] — every algorithm of the paper (mono-, bi- and tri-criteria,
//!   exact baselines, heuristics, Pareto fronts) plus the router dispatching
//!   `ProblemSpec`s to them;
//! * [`engine`] — the batched solve engine (work-stealing fan-out, memo
//!   cache, streaming results) over the router.
//!
//! ## Quickstart
//!
//! ```
//! use concurrent_pipelines::prelude::*;
//!
//! // The Section 2 applications on a *fully homogeneous* DVFS platform,
//! // where Theorem 3's polynomial Algorithm 2 applies directly.
//! let (apps, _) = concurrent_pipelines::model::generator::section2_example();
//! let platform = Platform::fully_homogeneous(3, vec![3.0, 6.0], 1.0).unwrap();
//! let sol = concurrent_pipelines::solvers::mono::period_interval::minimize_global_period(
//!     &apps, &platform, CommModel::Overlap,
//! ).expect("feasible");
//! let ev = Evaluator::new(&apps, &platform);
//! assert!((ev.period(&sol.mapping, CommModel::Overlap) - sol.objective).abs() < 1e-9);
//! ```

pub use cpo_core as solvers;
pub use cpo_engine as engine;
pub use cpo_matching as matching;
pub use cpo_model as model;
pub use cpo_simulator as simulator;

/// One-stop prelude for examples and downstream users.
pub mod prelude {
    pub use cpo_core::prelude::*;
    pub use cpo_model::prelude::*;
}
