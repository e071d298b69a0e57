//! Router behavior across the `CommTopology` split:
//!
//! * `Dedicated` platforms are untouched by the refactor — the DP context
//!   built through the preserved pre-refactor constructor
//!   (`HomCtx::new`, bare `δ / b` divisions) must produce **bitwise**
//!   the same tables as the topology-aware `HomCtx::with_comm` path the
//!   solvers now use;
//! * a zero-hop-latency `Multistage` fabric solves every routed problem
//!   to the **bitwise** same objective and mapping as the uniform
//!   dedicated platform it shadows;
//! * multistage specs come back wrapped as `Plan::Benes` and their
//!   solutions always pass the routing certificate (valid plain mappings
//!   are partial permutations — rearrangeable in one round);
//! * replicated/general strategies on a fabric, and under-provisioned
//!   `PerApp` link vectors anywhere, degrade to **typed** `Unsupported`
//!   outcomes instead of panicking.

use cpo_core::dp::{period_dp, DpScratch, HomCtx, IntervalCostTable};
use cpo_core::router::{self, BenesBase, Plan};
use cpo_model::generator::{random_apps, random_fully_homogeneous, AppGenConfig, PlatformGenConfig};
use cpo_model::prelude::*;
// `proptest::prelude::Strategy` (the trait) would shadow the spec enum.
use cpo_model::spec::Strategy;
use proptest::prelude::*;

const MODELS: [CommModel; 2] = [CommModel::Overlap, CommModel::NoOverlap];

fn fabric_twin(dedicated: &Platform, hop_latency: f64) -> Platform {
    let b = match dedicated.links {
        Links::Uniform(b) => b,
        _ => unreachable!("twin construction needs uniform links"),
    };
    Platform::multistage(dedicated.procs.clone(), MultistageNetwork::new(b, hop_latency).unwrap())
        .unwrap()
}

/// Period bounds that are tight for small `i`, loose for large `i`.
fn bounds_for(apps: &AppSet, i: u64) -> Vec<f64> {
    apps.apps.iter().map(|a| a.total_work() / (1.0 + i as f64) + 1.0).collect()
}

// ---------------------------------------------------------------------------
// Satellite: PerApp under-provisioning is typed, not a panic
// ---------------------------------------------------------------------------

/// Two applications over a one-entry `PerApp` bandwidth vector: the
/// pre-fix code indexed `bs[1]` and panicked inside the router; now the
/// instance-assembly validation rejects it with a typed reason, for every
/// objective/strategy combination.
#[test]
fn per_app_bandwidth_mismatch_is_typed_unsupported() {
    let apps = random_apps(&AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() }, 7);
    let procs =
        vec![Processor::new(vec![1.0, 2.0]).unwrap(); apps.total_stages() + 2];
    let pf = Platform::new(procs, Links::PerApp(vec![1.0])).unwrap();

    match pf.validate_for_apps(apps.a()) {
        Err(ModelError::DimensionMismatch { what, expected, found }) => {
            assert_eq!(what, "per-app bandwidth entries");
            assert_eq!((expected, found), (2, 1));
        }
        other => panic!("expected a dimension mismatch, got {other:?}"),
    }

    let tb = bounds_for(&apps, 1);
    let specs = [
        ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap),
        ProblemSpec::new(Objective::Period, Strategy::OneToOne, CommModel::NoOverlap),
        ProblemSpec::new(Objective::Latency, Strategy::Interval, CommModel::Overlap),
        ProblemSpec::new(Objective::Energy, Strategy::OneToOne, CommModel::Overlap)
            .with_period_bounds(tb.clone()),
        ProblemSpec::new(Objective::Period, Strategy::Replicated, CommModel::Overlap),
        ProblemSpec::new(Objective::PeriodLatencyFront, Strategy::Interval, CommModel::Overlap),
    ];
    for spec in &specs {
        assert!(router::plan(&apps, &pf, spec).is_err(), "{spec:?} must not plan");
        match router::route(&apps, &pf, spec) {
            SolveOutcome::Unsupported { reason } => {
                assert!(
                    reason.contains("per-app bandwidth entries"),
                    "reason should name the short vector: {reason}"
                );
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    // A matching vector passes the same gate.
    let ok = Platform::new(
        vec![Processor::new(vec![1.0, 2.0]).unwrap(); apps.total_stages() + 2],
        Links::PerApp(vec![1.0, 2.0]),
    )
    .unwrap();
    assert!(ok.validate_for_apps(apps.a()).is_ok());
    // Period / one-to-one is polynomial on per-app (comm-homogeneous)
    // links: with a well-sized vector the planner accepts again.
    assert!(router::plan(&apps, &ok, &specs[1]).is_ok());
}

// ---------------------------------------------------------------------------
// Multistage planning and certification
// ---------------------------------------------------------------------------

#[test]
fn multistage_specs_wrap_their_base_plan() {
    let apps = random_apps(&AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() }, 11);
    let dedicated = random_fully_homogeneous(
        &PlatformGenConfig { procs: apps.total_stages() + 2, modes: (2, 3), ..Default::default() },
        12,
    );
    let fabric = fabric_twin(&dedicated, 0.05);

    let spec = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
    assert_eq!(router::plan(&apps, &dedicated, &spec).unwrap(), Plan::PeriodInterval);
    assert_eq!(
        router::plan(&apps, &fabric, &spec).unwrap(),
        Plan::Benes(BenesBase::PeriodInterval)
    );

    // Replicated / general mappings multiplex flows per processor: the
    // rearrangeability certificate does not apply and the planner says so.
    for strategy in [Strategy::Replicated, Strategy::General] {
        let mut spec = ProblemSpec::new(Objective::Period, strategy, CommModel::Overlap);
        // The general-mapping base plans only exist behind the exact /
        // heuristic hints; enable both so the rejection tested here is
        // the fabric wrap, not a missing base solver.
        spec.hints.exact_fallback = true;
        let err = router::plan(&apps, &fabric, &spec).unwrap_err();
        assert!(err.contains("partial permutation"), "hardness-aware reason: {err}");
        match router::route(&apps, &fabric, &spec) {
            SolveOutcome::Unsupported { reason } => {
                assert!(reason.contains("partial permutation"))
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The preserved pre-refactor DP constructor (`HomCtx::new`: bare
    /// divisions, no overhead field in play) and the topology-aware
    /// `with_comm` path build bitwise-identical period tables on
    /// dedicated uniform platforms.
    #[test]
    fn hom_ctx_old_and_new_constructors_agree_on_dedicated(seed in 0u64..100_000) {
        let apps = random_apps(
            &AppGenConfig { apps: 2, stages: (1, 5), data: (0.0, 4.0), ..Default::default() },
            seed,
        );
        let pf = random_fully_homogeneous(
            &PlatformGenConfig {
                procs: apps.total_stages() + 2,
                modes: (1, 3),
                ..Default::default()
            },
            seed + 1,
        );
        let b = match pf.links {
            Links::Uniform(b) => b,
            _ => unreachable!(),
        };
        let speeds: Vec<f64> =
            (0..pf.procs[0].modes()).map(|m| pf.procs[0].speed(m)).collect();
        for (a, app) in apps.apps.iter().enumerate() {
            let comm = pf.uniform_comm(a).expect("uniform platform");
            prop_assert_eq!(comm.bandwidth.to_bits(), b.to_bits());
            prop_assert_eq!(comm.inter_overhead.to_bits(), 0.0f64.to_bits());
            for model in MODELS {
                let old_ctx = HomCtx::new(app, &speeds, b, model);
                let new_ctx = HomCtx::with_comm(app, &speeds, comm, model);
                let mut old = DpScratch::new();
                period_dp(&IntervalCostTable::build(&old_ctx), app.n(), &mut old);
                let mut new = DpScratch::new();
                period_dp(&IntervalCostTable::build(&new_ctx), app.n(), &mut new);
                prop_assert_eq!(old.best_row().len(), new.best_row().len());
                for (o, n) in old.best_row().iter().zip(new.best_row()) {
                    prop_assert_eq!(o.to_bits(), n.to_bits());
                }
            }
        }
    }

    /// A fabric with zero hop latency is priced exactly like the uniform
    /// dedicated platform: routed objective, mapping and feasibility all
    /// bitwise-identical, for scalar solves and fronts.
    #[test]
    fn zero_latency_fabric_routes_equal_dedicated(seed in 0u64..100_000, i in 0u64..4) {
        let apps = random_apps(
            &AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() },
            seed,
        );
        let dedicated = random_fully_homogeneous(
            &PlatformGenConfig {
                procs: apps.total_stages() + 2,
                modes: (2, 3),
                ..Default::default()
            },
            seed + 1,
        );
        let fabric = fabric_twin(&dedicated, 0.0);
        let tb = bounds_for(&apps, i);
        let specs = [
            ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap),
            ProblemSpec::new(Objective::Period, Strategy::OneToOne, CommModel::NoOverlap),
            ProblemSpec::new(Objective::Latency, Strategy::Interval, CommModel::Overlap)
                .with_period_bounds(tb.clone()),
            ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
                .with_period_bounds(tb.clone()),
            ProblemSpec::new(Objective::PeriodEnergyFront, Strategy::Interval, CommModel::Overlap),
        ];
        for spec in &specs {
            let d = router::route(&apps, &dedicated, spec);
            let f = router::route(&apps, &fabric, spec);
            match (&d, &f) {
                (SolveOutcome::Solution(sd), SolveOutcome::Solution(sf)) => {
                    prop_assert_eq!(sd.objective.to_bits(), sf.objective.to_bits());
                    prop_assert_eq!(&sd.mapping, &sf.mapping);
                }
                (SolveOutcome::Front(ed), SolveOutcome::Front(ef)) => {
                    prop_assert_eq!(ed.len(), ef.len());
                    for (x, y) in ed.iter().zip(ef) {
                        prop_assert_eq!(x.achieved.to_bits(), y.achieved.to_bits());
                        prop_assert_eq!(x.objective.to_bits(), y.objective.to_bits());
                        prop_assert_eq!(&x.mapping, &y.mapping);
                    }
                }
                (SolveOutcome::Infeasible { .. }, SolveOutcome::Infeasible { .. }) => {}
                other => panic!("dedicated/fabric outcomes diverged: {other:?}"),
            }
        }
    }

    /// Every plain solution the routed solvers produce on a real fabric
    /// (positive hop latency) passes the Benes routing certificate: the
    /// outcome is never the certificate-failure `Unsupported`, and fabric
    /// objectives dominate their dedicated counterparts (the traversal
    /// overhead can only slow edges down).
    #[test]
    fn fabric_solutions_always_certify(seed in 0u64..100_000) {
        let apps = random_apps(
            &AppGenConfig { apps: 2, stages: (1, 4), ..Default::default() },
            seed,
        );
        let dedicated = random_fully_homogeneous(
            &PlatformGenConfig {
                procs: apps.total_stages() + 2,
                modes: (2, 3),
                ..Default::default()
            },
            seed + 1,
        );
        let fabric = fabric_twin(&dedicated, 0.125);
        for model in MODELS {
            for (objective, strategy) in [
                (Objective::Period, Strategy::Interval),
                (Objective::Period, Strategy::OneToOne),
                (Objective::Latency, Strategy::Interval),
            ] {
                let spec = ProblemSpec::new(objective, strategy, model);
                prop_assert!(matches!(
                    router::plan(&apps, &fabric, &spec),
                    Ok(Plan::Benes(_))
                ));
                let f = router::route(&apps, &fabric, &spec);
                match &f {
                    SolveOutcome::Solution(s) => {
                        prop_assert!(s.mapping.as_plain().is_some());
                        if let SolveOutcome::Solution(d) = router::route(&apps, &dedicated, &spec)
                        {
                            prop_assert!(
                                s.objective >= d.objective,
                                "hop latency removed cost: {} < {}",
                                s.objective,
                                d.objective
                            );
                        }
                    }
                    SolveOutcome::Infeasible { .. } => {}
                    SolveOutcome::Unsupported { reason } => {
                        prop_assert!(
                            !reason.contains("certificate failed"),
                            "plain mapping failed rearrangement: {reason}"
                        );
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
    }
}
