//! Router equivalence: every problem reachable through
//! `ProblemSpec → router → SolveOutcome` returns **bitwise-identical**
//! results to the corresponding direct entry point, over random instances
//! under both communication models — including the infeasibility pattern
//! (direct `None` ⇔ routed `Infeasible`).

use cpo_core::prelude::*;
use cpo_core::router;
use cpo_model::generator::{
    random_apps, random_comm_homogeneous, random_fully_homogeneous, AppGenConfig,
    PlatformGenConfig,
};
use cpo_model::prelude::*;
// Explicit import: `proptest::prelude::Strategy` (the trait) would
// otherwise make the glob-imported spec `Strategy` ambiguous.
use cpo_model::spec::Strategy;
use proptest::prelude::*;

const MODELS: [CommModel; 2] = [CommModel::Overlap, CommModel::NoOverlap];

fn fully_hom_instance(seed: u64, modes: (usize, usize)) -> (AppSet, Platform) {
    let apps = random_apps(&AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() }, seed);
    let pf = random_fully_homogeneous(
        &PlatformGenConfig { procs: 4, modes, ..Default::default() },
        seed + 10_000,
    );
    (apps, pf)
}

fn comm_hom_instance(seed: u64) -> (AppSet, Platform) {
    let apps = random_apps(&AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() }, seed);
    let procs = apps.total_stages() + 1;
    let pf = random_comm_homogeneous(
        &PlatformGenConfig { procs, modes: (2, 3), ..Default::default() },
        seed + 20_000,
    );
    (apps, pf)
}

/// Period bounds that are tight for small `i`, loose for large `i`.
fn bounds_for(apps: &AppSet, i: u64) -> Vec<f64> {
    apps.apps.iter().map(|a| a.total_work() / (1.0 + i as f64) + 1.0).collect()
}

/// Bitwise comparison of a routed scalar outcome against the direct call.
fn assert_same_plain(routed: &SolveOutcome, direct: &Option<Solution>, what: &str) {
    match (routed, direct) {
        (SolveOutcome::Infeasible { .. }, None) => {}
        (SolveOutcome::Solution(s), Some(d)) => {
            assert_eq!(
                s.objective.to_bits(),
                d.objective.to_bits(),
                "{what}: objective {} vs {}",
                s.objective,
                d.objective
            );
            assert_eq!(s.mapping.as_plain(), Some(&d.mapping), "{what}: mapping differs");
        }
        other => panic!("{what}: routed/direct disagree on feasibility: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn period_interval_matches_thm3(seed in 0u64..100_000) {
        for model in MODELS {
            let (apps, pf) = fully_hom_instance(seed, (1, 3));
            let spec = ProblemSpec::new(Objective::Period, Strategy::Interval, model);
            prop_assert_eq!(router::plan(&apps, &pf, &spec).unwrap(), router::Plan::PeriodInterval);
            assert_same_plain(
                &router::route(&apps, &pf, &spec),
                &minimize_global_period(&apps, &pf, model),
                "thm3",
            );
        }
    }

    #[test]
    fn period_one_to_one_matches_thm1(seed in 0u64..100_000) {
        for model in MODELS {
            let (apps, pf) = comm_hom_instance(seed);
            let spec = ProblemSpec::new(Objective::Period, Strategy::OneToOne, model);
            assert_same_plain(
                &router::route(&apps, &pf, &spec),
                &min_period_one_to_one_comm_hom(&apps, &pf, model),
                "thm1",
            );
        }
    }

    #[test]
    fn period_replicated_matches_direct(seed in 0u64..100_000) {
        for model in MODELS {
            let (apps, pf) = fully_hom_instance(seed, (1, 3));
            let spec = ProblemSpec::new(Objective::Period, Strategy::Replicated, model);
            let routed = router::route(&apps, &pf, &spec);
            match (routed, minimize_global_period_replicated(&apps, &pf, model)) {
                (SolveOutcome::Infeasible { .. }, None) => {}
                (SolveOutcome::Solution(s), Some((m, t))) => {
                    prop_assert_eq!(s.objective.to_bits(), t.to_bits());
                    prop_assert_eq!(s.mapping, SolvedMapping::Replicated(m));
                }
                other => panic!("replicated feasibility mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn period_general_matches_exact_and_lpt(seed in 0u64..100_000) {
        // Tiny instances: the exact general search is exponential.
        let apps =
            random_apps(&AppGenConfig { apps: 2, stages: (1, 2), ..Default::default() }, seed);
        let pf = random_fully_homogeneous(
            &PlatformGenConfig { procs: 2, modes: (1, 1), ..Default::default() },
            seed + 30_000,
        );
        for model in MODELS {
            let mut spec = ProblemSpec::new(Objective::Period, Strategy::General, model);
            spec.hints.exact_fallback = true;
            let routed = router::route(&apps, &pf, &spec);
            match (routed, exact_min_period_general(&apps, &pf, model)) {
                (SolveOutcome::Infeasible { .. }, None) => {}
                (SolveOutcome::Solution(s), Some((m, t))) => {
                    prop_assert_eq!(s.objective.to_bits(), t.to_bits());
                    prop_assert_eq!(s.mapping, SolvedMapping::General(m));
                }
                other => panic!("general-exact feasibility mismatch: {other:?}"),
            }
            spec.hints.exact_fallback = false;
            spec.hints.heuristic_fallback = true;
            let routed = router::route(&apps, &pf, &spec);
            match (routed, lpt_general_period(&apps, &pf, model)) {
                (SolveOutcome::Infeasible { .. }, None) => {}
                (SolveOutcome::Solution(s), Some((m, t))) => {
                    prop_assert_eq!(s.objective.to_bits(), t.to_bits());
                    prop_assert_eq!(s.mapping, SolvedMapping::General(m));
                }
                other => panic!("general-lpt feasibility mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn latency_solvers_match_direct(seed in 0u64..100_000) {
        // Thm 12 on the comm-hom instance; Thm 8 needs fully hom + p >= N.
        let (apps, pf) = comm_hom_instance(seed);
        let spec = ProblemSpec::new(Objective::Latency, Strategy::Interval, CommModel::Overlap);
        assert_same_plain(
            &router::route(&apps, &pf, &spec),
            &min_latency_interval_comm_hom(&apps, &pf),
            "thm12",
        );
        // Heuristic fallback for multi-app one-to-one on comm-hom.
        let mut spec = ProblemSpec::new(Objective::Latency, Strategy::OneToOne, CommModel::Overlap);
        spec.hints.heuristic_fallback = true;
        assert_same_plain(
            &router::route(&apps, &pf, &spec),
            &latency_one_to_one_heuristic(&apps, &pf),
            "latency greedy",
        );
        // Thm 8 on a fully homogeneous platform with enough processors.
        let apps2 =
            random_apps(&AppGenConfig { apps: 2, stages: (1, 2), ..Default::default() }, seed);
        let pf2 = random_fully_homogeneous(
            &PlatformGenConfig { procs: apps2.total_stages() + 1, ..Default::default() },
            seed + 40_000,
        );
        let spec = ProblemSpec::new(Objective::Latency, Strategy::OneToOne, CommModel::Overlap);
        assert_same_plain(
            &router::route(&apps2, &pf2, &spec),
            &min_latency_one_to_one_fully_hom(&apps2, &pf2),
            "thm8",
        );
        // Single-application rearrangement on comm-hom.
        let solo = AppSet::single(apps.apps[0].clone());
        let spec = ProblemSpec::new(Objective::Latency, Strategy::OneToOne, CommModel::Overlap);
        assert_same_plain(
            &router::route(&solo, &pf, &spec),
            &min_latency_one_to_one_single_app(&solo, &pf),
            "single-app rearrangement",
        );
    }

    #[test]
    fn bi_criteria_interval_solvers_match_thm16(seed in 0u64..100_000, i in 0u64..4) {
        for model in MODELS {
            let (apps, pf) = fully_hom_instance(seed, (1, 3));
            let tb = bounds_for(&apps, i);
            let spec = ProblemSpec::new(Objective::Latency, Strategy::Interval, model)
                .with_period_bounds(tb.clone());
            assert_same_plain(
                &router::route(&apps, &pf, &spec),
                &min_latency_under_period_fully_hom(&apps, &pf, model, &tb),
                "thm16 latency-under-period",
            );
            let lb = bounds_for(&apps, 3 - i);
            let spec = ProblemSpec::new(Objective::Period, Strategy::Interval, model)
                .with_latency_bounds(lb.clone());
            assert_same_plain(
                &router::route(&apps, &pf, &spec),
                &min_period_under_latency_fully_hom(&apps, &pf, model, &lb),
                "thm16 period-under-latency",
            );
        }
    }

    #[test]
    fn energy_solvers_match_thm18_19_and_replication(seed in 0u64..100_000, i in 0u64..4) {
        for model in MODELS {
            let (apps, pf) = fully_hom_instance(seed, (2, 3));
            let tb = bounds_for(&apps, i);
            let spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, model)
                .with_period_bounds(tb.clone());
            assert_same_plain(
                &router::route(&apps, &pf, &spec),
                &min_energy_interval_fully_hom(&apps, &pf, model, &tb),
                "thm18/21",
            );
            let spec = ProblemSpec::new(Objective::Energy, Strategy::Replicated, model)
                .with_period_bounds(tb.clone());
            match (router::route(&apps, &pf, &spec),
                   min_energy_replicated_under_period(&apps, &pf, model, &tb)) {
                (SolveOutcome::Infeasible { .. }, None) => {}
                (SolveOutcome::Solution(s), Some((m, e))) => {
                    prop_assert_eq!(s.objective.to_bits(), e.to_bits());
                    prop_assert_eq!(s.mapping, SolvedMapping::Replicated(m));
                }
                other => panic!("replicated-energy feasibility mismatch: {other:?}"),
            }
            let (apps, pf) = comm_hom_instance(seed);
            let tb = bounds_for(&apps, i);
            let spec = ProblemSpec::new(Objective::Energy, Strategy::OneToOne, model)
                .with_period_bounds(tb.clone());
            assert_same_plain(
                &router::route(&apps, &pf, &spec),
                &min_energy_one_to_one_matching(&apps, &pf, model, &tb),
                "thm19",
            );
        }
    }

    #[test]
    fn tri_unimodal_matches_thm24(seed in 0u64..100_000, i in 0u64..4) {
        let (apps, pf) = fully_hom_instance(seed, (1, 1));
        let e_per = pf.procs[0].e_stat + EnergyModel::default().dynamic(pf.procs[0].max_speed());
        let budget = (2.0 + i as f64) * e_per + 1e-6;
        let tb = bounds_for(&apps, i);
        let lb = bounds_for(&apps, 0);
        for model in MODELS {
            let spec = ProblemSpec::new(Objective::Period, Strategy::Interval, model)
                .with_latency_bounds(lb.clone())
                .with_energy_budget(budget);
            assert_same_plain(
                &router::route(&apps, &pf, &spec),
                &min_period_tri_unimodal(&apps, &pf, model, &lb, budget),
                "thm24 period",
            );
            let spec = ProblemSpec::new(Objective::Latency, Strategy::Interval, model)
                .with_period_bounds(tb.clone())
                .with_energy_budget(budget);
            assert_same_plain(
                &router::route(&apps, &pf, &spec),
                &min_latency_tri_unimodal(&apps, &pf, model, &tb, budget),
                "thm24 latency",
            );
            let spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, model)
                .with_period_bounds(tb.clone())
                .with_latency_bounds(lb.clone());
            assert_same_plain(
                &router::route(&apps, &pf, &spec),
                &min_energy_tri_unimodal(&apps, &pf, model, &tb, &lb),
                "thm24 energy",
            );
        }
    }

    #[test]
    fn exact_fallbacks_match_direct(seed in 0u64..2_000) {
        // Tiny instances: these paths are exponential.
        let apps =
            random_apps(&AppGenConfig { apps: 2, stages: (1, 2), ..Default::default() }, seed);
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: 3, modes: (2, 2), ..Default::default() },
            seed + 50_000,
        );
        let tb = bounds_for(&apps, 1);
        let lb = bounds_for(&apps, 0);
        // Energy under period + latency bounds → branch-and-bound.
        let mut spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(tb.clone())
            .with_latency_bounds(lb.clone());
        spec.hints.exact_fallback = true;
        assert_same_plain(
            &router::route(&apps, &pf, &spec),
            &branch_and_bound_tri_counted(
                &apps, &pf, CommModel::Overlap, MappingKind::Interval, &tb, &lb,
            )
            .0,
            "bnb",
        );
        // Period with latency bounds on a non-fully-hom platform →
        // exhaustive enumeration.
        let mut spec = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap)
            .with_latency_bounds(lb.clone());
        spec.hints.exact_fallback = true;
        prop_assert_eq!(router::plan(&apps, &pf, &spec).unwrap(), router::Plan::ExactEnumeration);
        let cfg = ExactConfig {
            kind: MappingKind::Interval,
            model: CommModel::Overlap,
            speed: SpeedPolicy::MaxOnly,
        };
        assert_same_plain(
            &router::route(&apps, &pf, &spec),
            &exact_optimize(
                &apps,
                &pf,
                cfg,
                Criterion::Period,
                &Thresholds::none().with_latency(lb.clone()),
            ),
            "exact enumeration",
        );
    }

    #[test]
    fn local_search_fallback_matches_direct(seed in 0u64..2_000) {
        // Comm-hom multi-modal platform: no polynomial interval energy
        // solver, heuristic hint routes to local search with the hinted
        // iteration count and seed.
        let apps =
            random_apps(&AppGenConfig { apps: 2, stages: (1, 2), ..Default::default() }, seed);
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: 3, modes: (2, 2), ..Default::default() },
            seed + 60_000,
        );
        let tb = bounds_for(&apps, 1);
        let mut spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(tb.clone());
        spec.hints.heuristic_fallback = true;
        spec.hints.local_search_iterations = Some(200);
        spec.hints.seed = Some(7);
        prop_assert_eq!(
            router::plan(&apps, &pf, &spec).unwrap(),
            router::Plan::EnergyLocalSearch
        );
        let cfg = LocalSearchConfig { iterations: 200, seed: 7, ..Default::default() };
        let lb = vec![f64::INFINITY; apps.a()];
        assert_same_plain(
            &router::route(&apps, &pf, &spec),
            &local_search(&apps, &pf, CommModel::Overlap, &tb, &lb, &cfg),
            "local search",
        );
    }

    #[test]
    fn fronts_match_direct_sweeps(seed in 0u64..100_000) {
        for model in MODELS {
            let (apps, pf) = fully_hom_instance(seed, (2, 3));
            let sweep = Sweep::with_threads(2);
            let mut spec =
                ProblemSpec::new(Objective::PeriodEnergyFront, Strategy::Interval, model);
            spec.hints.sweep_threads = Some(2);
            let routed = router::route(&apps, &pf, &spec);
            let direct = period_energy_front(&apps, &pf, model, MappingKind::Interval, &sweep);
            assert_front_eq(&routed, direct.iter().map(|p| (p.achieved, p.objective, &p.solution)));

            let mut spec =
                ProblemSpec::new(Objective::PeriodLatencyFront, Strategy::Interval, model);
            spec.hints.sweep_threads = Some(2);
            let routed = router::route(&apps, &pf, &spec);
            let direct = period_latency_front(&apps, &pf, model, &sweep);
            assert_front_eq(&routed, direct.iter().map(|p| (p.achieved, p.objective, &p.solution)));

            let (apps, pf) = comm_hom_instance(seed);
            let mut spec =
                ProblemSpec::new(Objective::PeriodEnergyFront, Strategy::OneToOne, model);
            spec.hints.sweep_threads = Some(2);
            let routed = router::route(&apps, &pf, &spec);
            let direct = period_energy_front(&apps, &pf, model, MappingKind::OneToOne, &sweep);
            assert_front_eq(&routed, direct.iter().map(|p| (p.achieved, p.objective, &p.solution)));
        }
    }
}

/// `pf` with its uniform bandwidth spelled out as full `Heterogeneous`
/// matrices: the same platform, link for link.
fn spelled_out(pf: &Platform, apps: usize) -> Platform {
    let b = match pf.links {
        Links::Uniform(b) => b,
        ref other => panic!("expected uniform links, got {other:?}"),
    };
    let row = vec![b; pf.p()];
    let links = Links::Heterogeneous {
        inter: vec![row.clone(); pf.p()],
        input: vec![row.clone(); apps],
        output: vec![row; apps],
    };
    Platform::new(pf.procs.clone(), links).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A `Heterogeneous` matrix holding one bandwidth is the `Uniform`
    /// platform: both spellings plan the same polynomial solver and route
    /// to bitwise-identical outcomes (a class check that accepted the
    /// matrix while the solver rejected it answered `Infeasible`).
    #[test]
    fn uniform_link_spellings_route_identically(seed in 0u64..100_000) {
        for model in MODELS {
            let (apps, pf) = fully_hom_instance(seed, (2, 3));
            let tb = bounds_for(&apps, 1);
            let specs = [
                (ProblemSpec::new(Objective::Period, Strategy::Interval, model), "interval"),
                (ProblemSpec::new(Objective::Period, Strategy::Replicated, model), "replicated"),
                (
                    ProblemSpec::new(Objective::Energy, Strategy::Interval, model)
                        .with_period_bounds(tb.clone()),
                    "energy",
                ),
                (
                    ProblemSpec::new(Objective::Energy, Strategy::Replicated, model)
                        .with_period_bounds(tb.clone()),
                    "replicated energy",
                ),
                (ProblemSpec::new(Objective::PeriodEnergyFront, Strategy::Interval, model), "energy front"),
                (ProblemSpec::new(Objective::PeriodLatencyFront, Strategy::Interval, model), "latency front"),
            ];
            let (capps, cpf) = comm_hom_instance(seed);
            let one_to_one = [
                (ProblemSpec::new(Objective::Period, Strategy::OneToOne, model), "one-to-one"),
                (
                    ProblemSpec::new(Objective::Energy, Strategy::OneToOne, model)
                        .with_period_bounds(bounds_for(&capps, 1)),
                    "matching",
                ),
                (ProblemSpec::new(Objective::PeriodEnergyFront, Strategy::OneToOne, model), "matching front"),
            ];
            let cases = specs
                .iter()
                .map(|(spec, what)| (&apps, &pf, spec, what))
                .chain(one_to_one.iter().map(|(spec, what)| (&capps, &cpf, spec, what)));
            for (apps, pf, spec, what) in cases {
                let matrix = spelled_out(pf, apps.a());
                prop_assert_eq!(pf.class(), matrix.class());
                let planned = router::plan(apps, pf, spec);
                prop_assert!(planned.is_ok(), "{}: {:?}", what, planned);
                prop_assert_eq!(&planned, &router::plan(apps, &matrix, spec), "{}", what);
                let uniform = format!("{:?}", router::route(apps, pf, spec));
                let spelled = format!("{:?}", router::route(apps, &matrix, spec));
                prop_assert_eq!(uniform, spelled, "{}", what);
            }
        }
    }
}

/// Compare a routed front against the direct sweep's points, bitwise.
fn assert_front_eq<'a>(
    routed: &SolveOutcome,
    direct: impl ExactSizeIterator<Item = (f64, f64, &'a Solution)>,
) {
    match routed {
        SolveOutcome::Front(entries) => {
            assert_eq!(entries.len(), direct.len(), "front sizes differ");
            for (entry, (achieved, objective, sol)) in entries.iter().zip(direct) {
                assert_eq!(entry.achieved.to_bits(), achieved.to_bits());
                assert_eq!(entry.objective.to_bits(), objective.to_bits());
                assert_eq!(entry.mapping.as_plain(), Some(&sol.mapping));
            }
        }
        SolveOutcome::Infeasible { .. } => {
            assert_eq!(direct.len(), 0, "routed infeasible but the direct front has points");
        }
        other => panic!("expected a front, got {other:?}"),
    }
}

/// Batch reuse: one `RouterScratch` threaded through many different
/// routed problems must not change any result (the scratch only caches
/// allocations).
#[test]
fn scratch_reuse_is_stateless() {
    let mut scratch = router::RouterScratch::new();
    for seed in 0..30u64 {
        for model in MODELS {
            let (apps, pf) = fully_hom_instance(seed, (2, 3));
            let tb = bounds_for(&apps, seed % 4);
            let specs = [
                ProblemSpec::new(Objective::Energy, Strategy::Interval, model)
                    .with_period_bounds(tb.clone()),
                ProblemSpec::new(Objective::Latency, Strategy::Interval, model)
                    .with_period_bounds(tb.clone()),
                ProblemSpec::new(Objective::Period, Strategy::Interval, model),
            ];
            for spec in &specs {
                let fresh = router::route(&apps, &pf, spec);
                let reused = router::route_with(&apps, &pf, spec, &mut scratch);
                assert_eq!(fresh, reused, "seed {seed}: scratch reuse changed the outcome");
            }
        }
    }
}
