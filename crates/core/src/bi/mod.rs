//! Bi-criteria solvers (Section 5 of the paper): period/latency and
//! period/energy, following the threshold approach — one criterion is
//! optimized under per-application bounds on the other.

pub mod period_energy;
pub mod period_latency;

use crate::dp::{HomCtx, IntervalCostTable};
use cpo_model::platform::{Platform, PlatformClass};
use cpo_model::prelude::*;

/// Build one [`IntervalCostTable`] per application for a fully homogeneous
/// platform — the shared precomputation behind the Theorem 15/18/21 interval
/// solvers and every Pareto sweep over them. Returns `None` when the
/// platform class is wrong or `p < A` (no feasible mapping exists then).
pub fn interval_cost_tables(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
) -> Option<Vec<IntervalCostTable>> {
    cost_tables(apps, platform, model, |_, ctx| IntervalCostTable::build(ctx))
}

/// [`interval_cost_tables`] with each table built by [`energy_cost_table`]:
/// the tables a one-shot Theorem 18/21 energy solve needs.
pub(crate) fn energy_cost_tables(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
) -> Option<Vec<IntervalCostTable>> {
    cost_tables(apps, platform, model, |_, ctx| energy_cost_table(ctx))
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

/// The per-application setup of every fully homogeneous solver: check the
/// platform class and `p ≥ A`, then build `build(a, ctx)` for each
/// application `a` over its [`HomCtx`] — the shared speed set and static
/// energy, and the communication structure of [`Platform::uniform_comm`].
/// `None` when the platform is not fully homogeneous or `p < A`.
pub(crate) fn cost_tables<T>(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    mut build: impl FnMut(usize, &HomCtx<'_>) -> T,
) -> Option<Vec<T>> {
    if platform.class() != PlatformClass::FullyHomogeneous || platform.p() < apps.a() {
        return None;
    }
    let proc = &platform.procs[0];
    apps.apps
        .iter()
        .enumerate()
        .map(|(a, app)| {
            let mut ctx = HomCtx::with_comm(app, proc.speeds(), platform.uniform_comm(a)?, model);
            ctx.e_stat = proc.e_stat;
            Some(build(a, &ctx))
        })
        .collect()
}
