//! Theorems 8 and 12 — latency minimization.
//!
//! * **One-to-one, fully homogeneous (Theorem 8):** all one-to-one mappings
//!   are equivalent (identical processors, identical links), so any
//!   canonical assignment is optimal.
//! * **Interval, communication homogeneous (Theorem 12):** with one
//!   application, mapping the whole chain onto the fastest processor is
//!   optimal (it removes all internal communications and maximizes speed);
//!   with several applications, keep the `A` fastest processors and assign
//!   applications to them with the Theorem 1-style greedy over the sorted
//!   candidate latency set `L = {W_a · (δ_a^0/b_a + Σw/s_u + δ_a^n/b_a)}`.
//!
//! Latency is identical under both communication models (Eq. 5).

use crate::solution::Solution;
use cpo_model::num;
use cpo_model::prelude::*;

/// Theorem 8: one-to-one latency minimization on a fully homogeneous
/// platform. All mappings are equivalent; returns the canonical one
/// (stages in order on processors `0, 1, …`). `None` if `p < N` or the
/// platform is not fully homogeneous.
pub fn min_latency_one_to_one_fully_hom(apps: &AppSet, platform: &Platform) -> Option<Solution> {
    if platform.class() != PlatformClass::FullyHomogeneous {
        return None;
    }
    if platform.p() < apps.total_stages() {
        return None;
    }
    let mut mapping = Mapping::new();
    let mut next = 0usize;
    for (a, app) in apps.apps.iter().enumerate() {
        for k in 0..app.n() {
            let top = platform.procs[next].modes() - 1;
            mapping.push(Interval::new(a, k, k), next, top);
            next += 1;
        }
    }
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let objective = Evaluator::new(apps, platform).latency(&mapping);
    Some(Solution::new(mapping, objective))
}

/// Weighted whole-chain latency of application `a` on a processor of speed
/// `s` (communication homogeneous platform).
fn whole_chain_latency(apps: &AppSet, platform: &Platform, a: usize, s: f64) -> Option<f64> {
    let app = &apps.apps[a];
    // A whole chain on one processor only crosses the `P_in` and `P_out`
    // front-end links; no inter-processor edge exists, so no multistage
    // traversal overhead applies.
    let comm = platform.uniform_comm(a)?;
    Some(
        app.weight
            * (comm.io_time(app.input) + app.total_work() / s + comm.io_time(app.result_size())),
    )
}

/// Theorem 12: interval latency minimization on a communication homogeneous
/// platform. Maps each application entirely onto one of the `A` fastest
/// processors, matched by binary search + greedy. `None` if `p < A` or
/// links are heterogeneous (NP-hard then, Theorem 13).
pub fn min_latency_interval_comm_hom(apps: &AppSet, platform: &Platform) -> Option<Solution> {
    if !super::links_are_homogeneous(platform) {
        return None;
    }
    let a_count = apps.a();
    if platform.p() < a_count {
        return None;
    }
    // The A fastest processors, ascending max speed.
    let by_speed = platform.procs_by_max_speed();
    let fastest: Vec<usize> = by_speed[by_speed.len() - a_count..].to_vec();

    // Candidate latencies.
    let mut candidates = Vec::with_capacity(a_count * fastest.len());
    for a in 0..a_count {
        for &u in &fastest {
            candidates.push(whole_chain_latency(apps, platform, a, platform.procs[u].max_speed())?);
        }
    }
    let candidates = num::sorted_candidates(candidates);

    // Greedy: processors from slowest to fastest pick any free feasible
    // app. The probe buffers are hoisted out of the binary search and
    // reused across every probe (flat-arena idiom, no per-probe allocs).
    let mut app_of_proc = vec![usize::MAX; a_count];
    let mut free = vec![true; a_count];
    let try_assign = |l: f64, app_of_proc: &mut [usize], free: &mut [bool]| -> bool {
        app_of_proc.fill(usize::MAX);
        free.fill(true);
        for (i, &u) in fastest.iter().enumerate() {
            let s = platform.procs[u].max_speed();
            let Some(pick) = (0..a_count).find(|&a| {
                free[a]
                    && whole_chain_latency(apps, platform, a, s)
                        .map(|la| num::le(la, l))
                        .unwrap_or(false)
            }) else {
                return false;
            };
            free[pick] = false;
            app_of_proc[i] = pick;
        }
        true
    };

    let mut lo = 0usize;
    let mut hi = candidates.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if try_assign(candidates[mid], &mut app_of_proc, &mut free) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if lo == candidates.len() {
        return None;
    }
    assert!(
        try_assign(candidates[lo], &mut app_of_proc, &mut free),
        "probe succeeded"
    );
    let assignment = app_of_proc;

    let mut mapping = Mapping::new();
    for (i, &u) in fastest.iter().enumerate() {
        let a = assignment[i];
        let top = platform.procs[u].modes() - 1;
        mapping.push(Interval::new(a, 0, apps.apps[a].n() - 1), u, top);
    }
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let achieved = Evaluator::new(apps, platform).latency(&mapping);
    Some(Solution::new(mapping, achieved))
}

/// Single-application one-to-one latency minimization on a communication
/// homogeneous platform — the polynomial case of reference [5] that
/// Theorem 9 contrasts against (it turns NP-hard only with *several*
/// concurrent applications).
///
/// On such platforms the communication part of Eq. (5) is a constant
/// (`δ^0/b + Σ_k δ^k/b`), so minimizing the latency is minimizing
/// `Σ_k w_k / s_{al(k)}` over injective stage→processor assignments; by the
/// rearrangement inequality the optimum pairs the heaviest stages with the
/// fastest processors. `O(N log N + p log p)`.
pub fn min_latency_one_to_one_single_app(
    apps: &AppSet,
    platform: &Platform,
) -> Option<Solution> {
    if apps.a() != 1 || !super::links_are_homogeneous(platform) {
        return None;
    }
    let app = &apps.apps[0];
    let n = app.n();
    if platform.p() < n {
        return None;
    }
    // Fastest n processors, fastest first.
    let mut by_speed = platform.procs_by_max_speed();
    by_speed.reverse();
    let fastest = &by_speed[..n];
    // Stages sorted by work, heaviest first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| {
        app.stages[y].work.partial_cmp(&app.stages[x].work).expect("finite work")
    });
    let mut mapping = Mapping::new();
    for (rank, &k) in order.iter().enumerate() {
        let u = fastest[rank];
        mapping.push(Interval::new(0, k, k), u, platform.procs[u].modes() - 1);
    }
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let objective = Evaluator::new(apps, platform).latency(&mapping);
    Some(Solution::new(mapping, objective))
}

/// Multi-application one-to-one latency **heuristic** for the NP-hard case
/// (Theorem 9): applications are processed in decreasing weighted-work
/// order; each application greedily takes, from the remaining processors,
/// the fastest ones for its heaviest stages. Polynomial; the exact solver
/// ([`crate::exact`]) serves as the reference on small instances.
pub fn latency_one_to_one_heuristic(apps: &AppSet, platform: &Platform) -> Option<Solution> {
    if !super::links_are_homogeneous(platform) {
        return None;
    }
    let n_total = apps.total_stages();
    if platform.p() < n_total {
        return None;
    }
    let mut remaining = platform.procs_by_max_speed(); // ascending
    let mut app_order: Vec<usize> = (0..apps.a()).collect();
    app_order.sort_by(|&x, &y| {
        (apps.apps[y].weight * apps.apps[y].total_work())
            .partial_cmp(&(apps.apps[x].weight * apps.apps[x].total_work()))
            .expect("finite work")
    });
    let mut mapping = Mapping::new();
    for &a in &app_order {
        let app = &apps.apps[a];
        let n = app.n();
        // Take the n fastest remaining processors.
        let take: Vec<usize> = remaining.split_off(remaining.len() - n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&x, &y| {
            app.stages[y].work.partial_cmp(&app.stages[x].work).expect("finite work")
        });
        // take is ascending; pair heaviest stage with its last element.
        for (rank, &k) in order.iter().enumerate() {
            let u = take[take.len() - 1 - rank];
            mapping.push(Interval::new(a, k, k), u, platform.procs[u].modes() - 1);
        }
    }
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let objective = Evaluator::new(apps, platform).latency(&mapping);
    Some(Solution::new(mapping, objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::application::Application;
    use cpo_model::generator::section2_example;
    use cpo_model::platform::Processor;

    #[test]
    fn section2_latency_is_2_75() {
        let (apps, pf) = section2_example();
        let sol = min_latency_interval_comm_hom(&apps, &pf).unwrap();
        // Eq. (2) of the paper: optimal global latency 2.75.
        assert!((sol.objective - 2.75).abs() < 1e-9);
        sol.mapping.validate(&apps, &pf).unwrap();
        // Each application occupies exactly one processor.
        assert_eq!(sol.mapping.enrolled(), 2);
    }

    #[test]
    fn one_to_one_fully_hom() {
        let apps = AppSet::new(vec![
            Application::from_pairs(1.0, &[(2.0, 1.0), (2.0, 1.0)]),
            Application::from_pairs(1.0, &[(3.0, 1.0)]),
        ])
        .unwrap();
        let pf = Platform::fully_homogeneous(3, vec![1.0, 2.0], 1.0).unwrap();
        let sol = min_latency_one_to_one_fully_hom(&apps, &pf).unwrap();
        sol.mapping.validate(&apps, &pf).unwrap();
        assert!(sol.mapping.is_one_to_one());
        // App0: 1/1 + 2/2 + 1/1 + 2/2 + 1/1 = 5; App1: 1 + 1.5 + 1 = 3.5.
        assert!((sol.objective - 5.0).abs() < 1e-9);
        // Too few processors.
        let small = Platform::fully_homogeneous(2, vec![1.0, 2.0], 1.0).unwrap();
        assert!(min_latency_one_to_one_fully_hom(&apps, &small).is_none());
        // Wrong platform class.
        let het = Platform::comm_homogeneous(
            vec![
                Processor::uni_modal(1.0).unwrap(),
                Processor::uni_modal(2.0).unwrap(),
                Processor::uni_modal(3.0).unwrap(),
            ],
            1.0,
        )
        .unwrap();
        assert!(min_latency_one_to_one_fully_hom(&apps, &het).is_none());
    }

    #[test]
    fn greedy_matches_hand_optimum() {
        // Two apps with very different work; two processors with very
        // different speeds. Heavy app must take the fast processor.
        let apps = AppSet::new(vec![
            Application::from_pairs(0.0, &[(100.0, 0.0)]),
            Application::from_pairs(0.0, &[(1.0, 0.0)]),
        ])
        .unwrap();
        let pf = Platform::comm_homogeneous(
            vec![Processor::uni_modal(1.0).unwrap(), Processor::uni_modal(100.0).unwrap()],
            1.0,
        )
        .unwrap();
        let sol = min_latency_interval_comm_hom(&apps, &pf).unwrap();
        // heavy/fast = 1, light/slow = 1 → global 1.
        assert!((sol.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn needs_a_processor_per_application() {
        let apps = AppSet::new(vec![
            Application::from_pairs(0.0, &[(1.0, 0.0)]),
            Application::from_pairs(0.0, &[(1.0, 0.0)]),
        ])
        .unwrap();
        let pf = Platform::comm_homogeneous(vec![Processor::uni_modal(1.0).unwrap()], 1.0).unwrap();
        assert!(min_latency_interval_comm_hom(&apps, &pf).is_none());
    }

    #[test]
    fn weights_flip_the_assignment() {
        // Same work but app1 is 100× more important: it must get the fast
        // processor.
        let apps = AppSet::new(vec![
            Application::named("a0", 0.0, vec![cpo_model::application::Stage::new(10.0, 0.0)], 1.0).unwrap(),
            Application::named("a1", 0.0, vec![cpo_model::application::Stage::new(10.0, 0.0)], 100.0).unwrap(),
        ])
        .unwrap();
        let pf = Platform::comm_homogeneous(
            vec![Processor::uni_modal(1.0).unwrap(), Processor::uni_modal(10.0).unwrap()],
            1.0,
        )
        .unwrap();
        let sol = min_latency_interval_comm_hom(&apps, &pf).unwrap();
        let chain1 = sol.mapping.app_chain(1);
        assert_eq!(chain1[0].proc, 1, "weighted app should use the fast processor");
        // Objective: max(10/1 · 1, 10/10 · 100) = 100.
        assert!((sol.objective - 100.0).abs() < 1e-9);
    }

    #[test]
    fn single_app_rearrangement_is_exact() {
        use crate::exact::{exact_optimize, ExactConfig, SpeedPolicy};
        use cpo_model::generator::{random_apps, random_comm_homogeneous, AppGenConfig, PlatformGenConfig};
        let cfg = AppGenConfig { apps: 1, stages: (2, 4), ..Default::default() };
        for seed in 0..60 {
            let apps = random_apps(&cfg, seed);
            let pf = random_comm_homogeneous(
                &PlatformGenConfig { procs: apps.total_stages() + 2, modes: (1, 3), ..Default::default() },
                seed + 100,
            );
            let fast = min_latency_one_to_one_single_app(&apps, &pf).unwrap();
            let brute = exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: crate::MappingKind::OneToOne,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::MaxOnly,
                },
                crate::Criterion::Latency,
                &Thresholds::none(),
            )
            .unwrap();
            assert!(
                (fast.objective - brute.objective).abs() < 1e-9,
                "seed {seed}: {} vs {}",
                fast.objective,
                brute.objective
            );
        }
    }

    #[test]
    fn multi_app_heuristic_is_valid_and_close() {
        use crate::exact::{exact_optimize, ExactConfig, SpeedPolicy};
        use cpo_model::generator::{random_apps, random_comm_homogeneous, AppGenConfig, PlatformGenConfig};
        let cfg = AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() };
        let mut ratio_sum = 0.0;
        let mut cases = 0;
        for seed in 0..40 {
            let apps = random_apps(&cfg, seed);
            let pf = random_comm_homogeneous(
                &PlatformGenConfig { procs: apps.total_stages(), modes: (1, 2), ..Default::default() },
                seed + 200,
            );
            let heur = latency_one_to_one_heuristic(&apps, &pf).unwrap();
            heur.mapping.validate(&apps, &pf).unwrap();
            assert!(heur.mapping.is_one_to_one());
            let brute = exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: crate::MappingKind::OneToOne,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::MaxOnly,
                },
                crate::Criterion::Latency,
                &Thresholds::none(),
            )
            .unwrap();
            assert!(heur.objective >= brute.objective - 1e-9, "seed {seed}");
            ratio_sum += heur.objective / brute.objective;
            cases += 1;
        }
        let mean = ratio_sum / cases as f64;
        assert!(mean < 1.3, "heuristic mean ratio {mean} too far from optimal");
    }

    #[test]
    fn single_app_requires_single_app_and_enough_procs() {
        let (apps, pf) = section2_example();
        assert!(min_latency_one_to_one_single_app(&apps, &pf).is_none()); // A = 2
        let solo = AppSet::single(apps.apps[0].clone());
        assert!(min_latency_one_to_one_single_app(&solo, &pf).is_some()); // 3 stages, 3 procs
    }

    #[test]
    fn latency_model_independent() {
        let (apps, pf) = section2_example();
        let sol = min_latency_interval_comm_hom(&apps, &pf).unwrap();
        let ev = Evaluator::new(&apps, &pf);
        // Same mapping, same latency whatever the communication model.
        assert_eq!(ev.latency(&sol.mapping), ev.latency(&sol.mapping));
    }
}
