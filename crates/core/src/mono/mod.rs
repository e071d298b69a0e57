//! Mono-criterion solvers (Section 4 of the paper): period or latency
//! minimization. Energy is never a criterion on its own (Section 3.5), so
//! these solvers run every enrolled processor at its highest mode.

pub mod latency;
pub mod period_interval;
pub mod period_one_to_one;

use cpo_model::platform::Platform;

/// Check the platform qualifies as communication homogeneous for the
/// Theorem 1 / 12 greedy algorithms: it has a [`Platform::uniform_comm`]
/// structure — uniform or per-application
/// dedicated links, a heterogeneous matrix holding one bandwidth, or any
/// multistage fabric (whose links are identical by construction).
pub(crate) fn links_are_homogeneous(platform: &Platform) -> bool {
    platform.uniform_comm(0).is_some()
}
