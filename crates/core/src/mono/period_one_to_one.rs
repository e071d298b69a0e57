//! Theorem 1 — period minimization, one-to-one mappings, communication
//! homogeneous platforms.
//!
//! The optimal period belongs to the finite set
//! `T = { W_a · C(δ_a^{k-1}/b_a, w_a^k/s_u, δ_a^k/b_a) }` over all stages
//! and processors (`C` = max under overlap, sum under no-overlap), because
//! it equals the weighted cycle-time of some processor executing some
//! stage. The algorithm sorts this set, binary searches it, and probes each
//! candidate with the greedy assignment procedure (Algorithm 1 of the
//! paper): keep the `N` fastest processors, scan them from slowest to
//! fastest, and hand each one *any* still-free stage it can process within
//! the candidate period. The exchange argument of the paper shows the
//! greedy succeeds iff the candidate is feasible (stage feasibility is
//! monotone in processor speed). Total cost `O((n_max·A·p)² log(n_max·A·p))`.

use crate::solution::Solution;
use cpo_model::num;
use cpo_model::prelude::*;

/// Per-stage data prepared once: weighted cycle-time as a function of speed.
struct StageCost {
    app: usize,
    stage: usize,
    /// Weighted communication component (already includes `W_a`):
    /// under overlap the max of the two edge times, under no-overlap their
    /// sum.
    weight: f64,
    incoming: f64,
    outgoing: f64,
    work: f64,
}

impl StageCost {
    #[inline]
    fn weighted_cycle(&self, speed: f64, model: CommModel) -> f64 {
        self.weight * model.combine(self.incoming, self.work / speed, self.outgoing)
    }
}

/// Greedy assignment (Algorithm 1): returns the stage assignment
/// `stage -> processor` for period `t`, or `None` ("failure").
fn greedy_assignment(
    stages: &[StageCost],
    procs: &[usize], // the N fastest processors, ascending speed
    platform: &Platform,
    model: CommModel,
    t: f64,
) -> Option<Vec<usize>> {
    let n = stages.len();
    let mut assigned_proc = vec![usize::MAX; n];
    let mut free = vec![true; n];
    for &u in procs {
        let speed = platform.procs[u].max_speed();
        let pick = (0..n)
            .find(|&k| free[k] && num::le(stages[k].weighted_cycle(speed, model), t))?;
        free[pick] = false;
        assigned_proc[pick] = u;
    }
    Some(assigned_proc)
}

/// Minimize the global weighted period with a one-to-one mapping on a
/// communication homogeneous platform (Theorem 1). Works for both
/// communication models. Returns `None` when `p < N` or the platform has
/// heterogeneous links (the problem is then NP-hard, Theorem 2 — use
/// [`crate::exact`]).
pub fn min_period_one_to_one_comm_hom(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
) -> Option<Solution> {
    if !super::links_are_homogeneous(platform) {
        return None;
    }
    let n_total = apps.total_stages();
    if platform.p() < n_total {
        return None;
    }

    // Prepare per-stage costs. Edge times come from the uniform comm
    // structure: the chain-boundary edges (`P_in`/`P_out`) are plain
    // `δ/b`, interior edges add the topology's inter-processor overhead
    // (zero on dedicated links — bitwise the same division as before).
    let mut stages = Vec::with_capacity(n_total);
    for (a, app) in apps.apps.iter().enumerate() {
        let comm = platform.uniform_comm(a)?;
        let n = app.n();
        for k in 0..n {
            let incoming = if k == 0 {
                comm.io_time(app.input_of(k))
            } else {
                comm.inter_time(app.input_of(k))
            };
            let outgoing = if k + 1 == n {
                comm.io_time(app.output_of(k))
            } else {
                comm.inter_time(app.output_of(k))
            };
            stages.push(StageCost {
                app: a,
                stage: k,
                weight: app.weight,
                incoming,
                outgoing,
                work: app.stages[k].work,
            });
        }
    }

    // The N fastest processors, ascending max speed.
    let by_speed = platform.procs_by_max_speed();
    let fastest_n: Vec<usize> = by_speed[by_speed.len() - n_total..].to_vec();

    // Candidate periods.
    let mut candidates = Vec::with_capacity(stages.len() * fastest_n.len());
    for st in &stages {
        for &u in &fastest_n {
            candidates.push(st.weighted_cycle(platform.procs[u].max_speed(), model));
        }
    }
    let candidates = num::sorted_candidates(candidates);

    // Binary search for the smallest feasible candidate.
    let feasible =
        |t: f64| greedy_assignment(&stages, &fastest_n, platform, model, t).is_some();
    let mut lo = 0usize;
    let mut hi = candidates.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible(candidates[mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if lo == candidates.len() {
        return None;
    }
    let t_opt = candidates[lo];
    let assignment =
        greedy_assignment(&stages, &fastest_n, platform, model, t_opt).expect("probe succeeded");

    let mut mapping = Mapping::new();
    for (k, st) in stages.iter().enumerate() {
        let u = assignment[k];
        let top = platform.procs[u].modes() - 1;
        mapping.push(Interval::new(st.app, st.stage, st.stage), u, top);
    }
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let achieved = Evaluator::new(apps, platform).period(&mapping, model);
    debug_assert!(num::le(achieved, t_opt));
    Some(Solution::new(mapping, achieved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::application::Application;
    use cpo_model::generator::section2_example;
    use cpo_model::platform::Processor;

    #[test]
    fn single_stage_single_fast_proc() {
        let apps = AppSet::single(Application::from_pairs(1.0, &[(4.0, 1.0)]));
        let pf = Platform::comm_homogeneous(
            vec![Processor::uni_modal(2.0).unwrap(), Processor::uni_modal(4.0).unwrap()],
            1.0,
        )
        .unwrap();
        let sol = min_period_one_to_one_comm_hom(&apps, &pf, CommModel::Overlap).unwrap();
        // Fastest proc: max(1, 4/4, 1) = 1.
        assert!((sol.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn needs_enough_processors() {
        let apps = AppSet::single(Application::from_pairs(0.0, &[(1.0, 0.0), (1.0, 0.0)]));
        let pf = Platform::comm_homogeneous(vec![Processor::uni_modal(1.0).unwrap()], 1.0).unwrap();
        assert!(min_period_one_to_one_comm_hom(&apps, &pf, CommModel::Overlap).is_none());
    }

    #[test]
    fn heterogeneous_links_rejected() {
        let apps = AppSet::single(Application::from_pairs(0.0, &[(1.0, 0.0)]));
        let pf = Platform::new(
            vec![Processor::uni_modal(1.0).unwrap(), Processor::uni_modal(1.0).unwrap()],
            cpo_model::platform::Links::Heterogeneous {
                inter: vec![vec![1.0, 2.0], vec![2.0, 1.0]],
                input: vec![vec![1.0, 1.0]],
                output: vec![vec![1.0, 1.0]],
            },
        )
        .unwrap();
        assert!(min_period_one_to_one_comm_hom(&apps, &pf, CommModel::Overlap).is_none());
    }

    #[test]
    fn both_models_work_and_overlap_wins() {
        let (apps, pf) = section2_example();
        // Section 2 has N = 7 stages but p = 3: enlarge the platform with
        // four more processors so a one-to-one mapping exists.
        let mut procs = pf.procs.clone();
        for _ in 0..4 {
            procs.push(Processor::new(vec![2.0, 5.0]).unwrap());
        }
        let pf = Platform::comm_homogeneous(procs, 1.0).unwrap();
        let ov = min_period_one_to_one_comm_hom(&apps, &pf, CommModel::Overlap).unwrap();
        let no = min_period_one_to_one_comm_hom(&apps, &pf, CommModel::NoOverlap).unwrap();
        assert!(ov.objective <= no.objective + 1e-9);
        ov.mapping.validate(&apps, &pf).unwrap();
        no.mapping.validate(&apps, &pf).unwrap();
        assert!(ov.mapping.is_one_to_one());
    }

    #[test]
    fn weights_change_the_winner() {
        // Two 1-stage apps, one slow and one fast processor. Unweighted: the
        // heavy app should take the fast proc.
        let heavy = Application::named("heavy", 0.0, vec![cpo_model::application::Stage::new(8.0, 0.0)], 1.0).unwrap();
        let light = Application::named("light", 0.0, vec![cpo_model::application::Stage::new(1.0, 0.0)], 1.0).unwrap();
        let apps = AppSet::new(vec![heavy, light]).unwrap();
        let pf = Platform::comm_homogeneous(
            vec![Processor::uni_modal(1.0).unwrap(), Processor::uni_modal(8.0).unwrap()],
            1.0,
        )
        .unwrap();
        let sol = min_period_one_to_one_comm_hom(&apps, &pf, CommModel::Overlap).unwrap();
        // heavy on fast (8/8 = 1), light on slow (1/1 = 1): period 1.
        assert!((sol.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_app_bandwidths_supported() {
        let apps = AppSet::new(vec![
            Application::from_pairs(2.0, &[(1.0, 2.0)]),
            Application::from_pairs(4.0, &[(1.0, 4.0)]),
        ])
        .unwrap();
        let pf = Platform::new(
            vec![Processor::uni_modal(1.0).unwrap(), Processor::uni_modal(1.0).unwrap()],
            cpo_model::platform::Links::PerApp(vec![1.0, 2.0]),
        )
        .unwrap();
        let sol = min_period_one_to_one_comm_hom(&apps, &pf, CommModel::Overlap).unwrap();
        // App0: max(2/1, 1/1, 2/1) = 2; App1: max(4/2, 1, 4/2) = 2.
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }
}
