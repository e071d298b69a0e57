//! Property tests proving the pruned, parallel sweep engine reproduces the
//! naive full-candidate Pareto sweep **point for point** — same thresholds,
//! bitwise-identical periods/energies, identical mappings — on random
//! fully-homogeneous (interval DP) and comm-homogeneous (one-to-one
//! matching) instances.

use cpo_core::pareto::{period_energy_front, period_latency_front};
use cpo_core::solution::MappingKind;
use cpo_core::sweep::{FrontPoint, Sweep};
use cpo_model::generator::{
    random_apps, random_comm_homogeneous, random_fully_homogeneous, AppGenConfig,
    PlatformGenConfig,
};
use cpo_model::prelude::*;
use proptest::prelude::*;

fn assert_fronts_identical(naive: &[FrontPoint], fast: &[FrontPoint], what: &str) {
    assert_eq!(naive.len(), fast.len(), "{what}: point counts differ");
    for (i, (n, f)) in naive.iter().zip(fast).enumerate() {
        assert_eq!(n.achieved.to_bits(), f.achieved.to_bits(), "{what}: period of point {i}");
        assert_eq!(n.objective.to_bits(), f.objective.to_bits(), "{what}: energy of point {i}");
        assert_eq!(n.solution.mapping, f.solution.mapping, "{what}: mapping of point {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interval_front_matches_naive_sweep(seed in 0u64..100_000, threads in 1usize..5) {
        let apps = random_apps(
            &AppGenConfig { apps: 2, stages: (1, 5), ..Default::default() },
            seed,
        );
        let pf = random_fully_homogeneous(
            &PlatformGenConfig { procs: 4, modes: (2, 3), ..Default::default() },
            seed ^ 0x9e37,
        );
        for model in CommModel::ALL {
            let naive = period_energy_front(
                &apps, &pf, model, MappingKind::Interval, &Sweep::exhaustive(),
            );
            let fast = period_energy_front(
                &apps, &pf, model, MappingKind::Interval, &Sweep::with_threads(threads),
            );
            assert_fronts_identical(&naive, &fast, "interval");
            for pt in &fast {
                prop_assert!(pt.solution.mapping.validate(&apps, &pf).is_ok());
            }
        }
    }

    #[test]
    fn one_to_one_front_matches_naive_sweep(seed in 0u64..100_000, threads in 1usize..5) {
        // Keep N ≤ p so the matching applies: 2 apps × ≤ 3 stages, 7 procs.
        let apps = random_apps(
            &AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() },
            seed,
        );
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: 7, modes: (1, 3), ..Default::default() },
            seed ^ 0x51_7c,
        );
        for model in CommModel::ALL {
            let naive = period_energy_front(
                &apps, &pf, model, MappingKind::OneToOne, &Sweep::exhaustive(),
            );
            let fast = period_energy_front(
                &apps, &pf, model, MappingKind::OneToOne, &Sweep::with_threads(threads),
            );
            assert_fronts_identical(&naive, &fast, "one-to-one");
            for pt in &fast {
                prop_assert!(pt.solution.mapping.validate(&apps, &pf).is_ok());
                prop_assert!(pt.solution.mapping.is_one_to_one());
            }
        }
    }

    #[test]
    fn period_latency_front_matches_naive_sweep(seed in 0u64..100_000, threads in 1usize..5) {
        let apps = random_apps(
            &AppGenConfig { apps: 2, stages: (1, 5), ..Default::default() },
            seed,
        );
        let pf = random_fully_homogeneous(
            &PlatformGenConfig { procs: 5, modes: (1, 2), ..Default::default() },
            seed ^ 0xab_cd,
        );
        for model in CommModel::ALL {
            let naive = period_latency_front(&apps, &pf, model, &Sweep::exhaustive());
            let fast =
                period_latency_front(&apps, &pf, model, &Sweep::with_threads(threads));
            assert_eq!(naive.len(), fast.len(), "point counts differ");
            for (i, (n, f)) in naive.iter().zip(&fast).enumerate() {
                assert_eq!(n.achieved.to_bits(), f.achieved.to_bits(), "period of point {i}");
                assert_eq!(n.objective.to_bits(), f.objective.to_bits(), "latency of point {i}");
                assert_eq!(n.solution.mapping, f.solution.mapping, "mapping of point {i}");
                prop_assert!(n.solution.mapping.validate(&apps, &pf).is_ok());
            }
        }
    }

    #[test]
    fn weighted_apps_fronts_still_match(seed in 0u64..100_000) {
        // Non-unit weights exercise the t / W_a bound scaling.
        let mut apps = random_apps(
            &AppGenConfig { apps: 2, stages: (1, 4), ..Default::default() },
            seed,
        );
        apps.apps[0].weight = 3.0;
        apps.apps[1].weight = 0.5;
        let pf = random_fully_homogeneous(
            &PlatformGenConfig { procs: 4, modes: (2, 2), ..Default::default() },
            seed ^ 0x77,
        );
        let naive = period_energy_front(
            &apps, &pf, CommModel::Overlap, MappingKind::Interval, &Sweep::exhaustive(),
        );
        let fast = period_energy_front(
            &apps, &pf, CommModel::Overlap, MappingKind::Interval, &Sweep::with_threads(2),
        );
        assert_fronts_identical(&naive, &fast, "weighted interval");
    }
}
