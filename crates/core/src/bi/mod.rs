//! Bi-criteria solvers (Section 5 of the paper): period/latency and
//! period/energy, following the threshold approach — one criterion is
//! optimized under per-application bounds on the other.

pub mod period_energy;
pub mod period_latency;

use crate::dp::{HomCtx, IntervalCostTable};
use cpo_model::platform::{Platform, PlatformClass};
use cpo_model::prelude::*;

/// Shared speed set of a fully homogeneous platform; `None` when the
/// platform class is wrong (the interval solvers of Theorems 15/16/18/21
/// only apply to fully homogeneous platforms). The per-application
/// communication structure comes from [`Platform::uniform_comm`].
pub(crate) fn fully_hom_params(platform: &Platform) -> Option<Vec<f64>> {
    if platform.class() != PlatformClass::FullyHomogeneous {
        return None;
    }
    Some(platform.procs[0].speeds().to_vec())
}

/// Build one [`IntervalCostTable`] per application for a fully homogeneous
/// platform — the shared precomputation behind the Theorem 15/18/21 interval
/// solvers and every Pareto sweep over them. Returns `None` when the
/// platform class is wrong or `p < A` (no feasible mapping exists then).
pub fn interval_cost_tables(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
) -> Option<Vec<IntervalCostTable>> {
    cost_tables(apps, platform, model, IntervalCostTable::build)
}

/// [`interval_cost_tables`] with each table built by [`energy_cost_table`]:
/// the tables a one-shot Theorem 18/21 energy solve needs.
pub(crate) fn energy_cost_tables(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
) -> Option<Vec<IntervalCostTable>> {
    cost_tables(apps, platform, model, energy_cost_table)
}

/// The cost table a one-shot [`crate::dp::energy_dp`] needs. Under the
/// overlap model the run-decomposed core never reads the `O(n²·modes)`
/// cycle matrix, so the table is built lean
/// ([`IntervalCostTable::build_lean`]); the no-overlap core needs the full
/// table. Lean tables must not escape to latency solvers or candidate
/// enumeration.
pub(crate) fn energy_cost_table(ctx: &HomCtx<'_>) -> IntervalCostTable {
    if matches!(ctx.model, CommModel::Overlap) {
        IntervalCostTable::build_lean(ctx)
    } else {
        IntervalCostTable::build(ctx)
    }
}

fn cost_tables(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    build: fn(&HomCtx<'_>) -> IntervalCostTable,
) -> Option<Vec<IntervalCostTable>> {
    let speeds = fully_hom_params(platform)?;
    if platform.p() < apps.a() {
        return None;
    }
    let e_stat = platform.procs[0].e_stat;
    apps.apps
        .iter()
        .enumerate()
        .map(|(a, app)| {
            let comm = platform.uniform_comm(a)?;
            let mut ctx = HomCtx::with_comm(app, &speeds, comm, model);
            ctx.e_stat = e_stat;
            Some(build(&ctx))
        })
        .collect()
}
