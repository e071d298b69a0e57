//! Property-based tests (proptest) over the model's structural invariants
//! and the monotonicity laws the paper's algorithms rely on.

use concurrent_pipelines::model::generator::{
    random_apps, random_comm_homogeneous, random_fully_homogeneous, AppGenConfig,
    PlatformGenConfig,
};
use concurrent_pipelines::prelude::*;
use concurrent_pipelines::solvers::bi::period_energy::min_energy_interval_fully_hom;
use concurrent_pipelines::solvers::dp::{latency_under_period, period_table, HomCtx};
use concurrent_pipelines::solvers::mono::period_interval::minimize_global_period;
use concurrent_pipelines::solvers::mono::period_one_to_one::min_period_one_to_one_comm_hom;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng as _, SeedableRng as _};

fn random_interval_mapping(apps: &AppSet, platform: &Platform, seed: u64) -> Option<Mapping> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut procs: Vec<usize> = (0..platform.p()).collect();
    procs.shuffle(&mut rng);
    let mut mapping = Mapping::new();
    let mut next = 0usize;
    for (a, app) in apps.apps.iter().enumerate() {
        let mut first = 0usize;
        while first < app.n() {
            let last = rng.gen_range(first..app.n());
            if next >= procs.len() {
                return None;
            }
            let u = procs[next];
            next += 1;
            mapping.push(Interval::new(a, first, last), u, rng.gen_range(0..platform.procs[u].modes()));
            first = last + 1;
        }
    }
    Some(mapping)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. (3) ≤ Eq. (4): overlap never slower than no-overlap; latency is
    /// identical in both models.
    #[test]
    fn overlap_dominates_no_overlap(seed in 0u64..10_000) {
        let apps = random_apps(&AppGenConfig { apps: 2, stages: (1, 5), ..Default::default() }, seed);
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: 8, modes: (1, 3), ..Default::default() }, seed ^ 0xabc);
        if let Some(m) = random_interval_mapping(&apps, &pf, seed ^ 0xdef) {
            let ev = Evaluator::new(&apps, &pf);
            prop_assert!(ev.period(&m, CommModel::Overlap) <= ev.period(&m, CommModel::NoOverlap) + 1e-9);
            // Latency is defined independently of the model (Eq. 5).
            prop_assert_eq!(ev.latency(&m), ev.latency(&m));
        }
    }

    /// Latency is at least the period contribution of any single data set:
    /// L ≥ T under the overlap model for any single-application chain.
    #[test]
    fn latency_at_least_cycle_time(seed in 0u64..10_000) {
        let apps = random_apps(&AppGenConfig { apps: 1, stages: (1, 5), ..Default::default() }, seed);
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: 6, modes: (1, 2), ..Default::default() }, seed ^ 0x123);
        if let Some(m) = random_interval_mapping(&apps, &pf, seed ^ 0x456) {
            let ev = Evaluator::new(&apps, &pf);
            prop_assert!(ev.latency(&m) >= ev.period(&m, CommModel::Overlap) - 1e-9);
        }
    }

    /// Scaling all works and data sizes by c > 0 scales period and latency
    /// by c and leaves energy unchanged.
    #[test]
    fn objective_scaling_law(seed in 0u64..10_000, c in 1u32..50) {
        let c = c as f64 / 7.0;
        let apps = random_apps(&AppGenConfig { apps: 2, stages: (1, 4), ..Default::default() }, seed);
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: 7, modes: (1, 3), ..Default::default() }, seed ^ 0x99);
        let mut scaled = apps.clone();
        for app in &mut scaled.apps {
            let stages: Vec<_> = app.stages.iter()
                .map(|st| concurrent_pipelines::model::application::Stage::new(st.work * c, st.output * c))
                .collect();
            *app = concurrent_pipelines::model::application::Application::new(app.input * c, stages, app.weight).unwrap();
        }
        if let Some(m) = random_interval_mapping(&apps, &pf, seed ^ 0x55) {
            let ev = Evaluator::new(&apps, &pf);
            let evs = Evaluator::new(&scaled, &pf);
            for model in CommModel::ALL {
                let t = ev.period(&m, model);
                let ts = evs.period(&m, model);
                prop_assert!((ts - c * t).abs() < 1e-6 * (1.0 + ts));
            }
            prop_assert!((evs.latency(&m) - c * ev.latency(&m)).abs() < 1e-6);
            prop_assert_eq!(evs.energy(&m), ev.energy(&m));
        }
    }

    /// DP period table is non-increasing in the processor count and is a
    /// lower bound on any random mapping's period.
    #[test]
    fn period_table_bounds_random_mappings(seed in 0u64..10_000) {
        let apps = random_apps(&AppGenConfig { apps: 1, stages: (2, 5), ..Default::default() }, seed);
        let pf = random_fully_homogeneous(
            &PlatformGenConfig { procs: 5, modes: (1, 2), ..Default::default() }, seed ^ 0x31);
        let speeds = pf.procs[0].speeds().to_vec();
        let b = match &pf.links {
            concurrent_pipelines::model::platform::Links::Uniform(b) => *b,
            _ => unreachable!(),
        };
        let ctx = HomCtx::new(&apps.apps[0], &speeds, b, CommModel::Overlap);
        let table = period_table(&ctx, pf.p());
        for w in table.best_row().windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9);
        }
        if let Some(m) = random_interval_mapping(&apps, &pf, seed ^ 0x77) {
            // Any mapping at top speeds is no better than the DP optimum.
            let fast = m.at_max_speed(&pf);
            let ev = Evaluator::new(&apps, &pf);
            let best = table.best_row()[pf.p() - 1];
            prop_assert!(ev.period(&fast, CommModel::Overlap) >= best - 1e-9);
        }
    }

    /// Loosening the period bound never increases the DP's optimal latency.
    #[test]
    fn latency_monotone_in_period_bound(seed in 0u64..10_000) {
        let apps = random_apps(&AppGenConfig { apps: 1, stages: (2, 5), ..Default::default() }, seed);
        let pf = random_fully_homogeneous(
            &PlatformGenConfig { procs: 4, modes: (1, 1), ..Default::default() }, seed ^ 0x13);
        let speeds = pf.procs[0].speeds().to_vec();
        let ctx = HomCtx::new(&apps.apps[0], &speeds, 1.0, CommModel::Overlap);
        let mut last = f64::INFINITY;
        for tb in [2.0, 4.0, 8.0, 16.0, 1e9] {
            let l = latency_under_period(&ctx, tb, 4).best_row()[3];
            prop_assert!(l <= last + 1e-9, "bound {} gave latency {} after {}", tb, l, last);
            last = l;
        }
    }

    /// Adding processors to the platform never worsens the optimal period
    /// (Theorem 3 solver).
    #[test]
    fn more_processors_never_hurt_period(seed in 0u64..5_000) {
        let apps = random_apps(&AppGenConfig { apps: 2, stages: (1, 4), ..Default::default() }, seed);
        let pf_small = random_fully_homogeneous(
            &PlatformGenConfig { procs: 3, modes: (1, 2), ..Default::default() }, seed ^ 0x5);
        let mut procs = pf_small.procs.clone();
        procs.push(procs[0].clone());
        procs.push(procs[0].clone());
        let pf_big = Platform::new(procs, pf_small.links.clone()).unwrap();
        let small = minimize_global_period(&apps, &pf_small, CommModel::Overlap);
        let big = minimize_global_period(&apps, &pf_big, CommModel::Overlap);
        if let (Some(s), Some(b)) = (small, big) {
            prop_assert!(b.objective <= s.objective + 1e-9);
        }
    }

    /// Tightening the per-application period bounds never reduces the
    /// minimum energy (Theorem 18/21 DP).
    #[test]
    fn energy_monotone_in_period_bounds(seed in 0u64..5_000) {
        let apps = random_apps(&AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() }, seed);
        let pf = random_fully_homogeneous(
            &PlatformGenConfig { procs: 4, modes: (2, 3), ..Default::default() }, seed ^ 0x6);
        let mut last = 0.0f64;
        for tb in [1e9, 20.0, 10.0, 5.0, 2.0] {
            let bounds = vec![tb; apps.a()];
            match min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &bounds) {
                Some(sol) => {
                    prop_assert!(sol.objective >= last - 1e-9);
                    last = sol.objective;
                }
                None => last = f64::INFINITY,
            }
        }
    }

    /// The Theorem 1 one-to-one solver returns mappings whose claimed
    /// objective matches re-evaluation, and that are genuinely one-to-one.
    #[test]
    fn theorem1_output_wellformed(seed in 0u64..5_000) {
        let apps = random_apps(&AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() }, seed);
        let n = apps.total_stages();
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: n + 2, modes: (1, 3), ..Default::default() }, seed ^ 0x8);
        if let Some(sol) = min_period_one_to_one_comm_hom(&apps, &pf, CommModel::Overlap) {
            prop_assert!(sol.mapping.is_one_to_one());
            sol.mapping.validate(&apps, &pf).unwrap();
            let ev = Evaluator::new(&apps, &pf);
            prop_assert!((ev.period(&sol.mapping, CommModel::Overlap) - sol.objective).abs() < 1e-9);
        }
    }

    /// Random mappings validate; random *corruptions* of them fail
    /// validation.
    #[test]
    fn validation_catches_corruption(seed in 0u64..10_000) {
        let apps = random_apps(&AppGenConfig { apps: 2, stages: (2, 4), ..Default::default() }, seed);
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: 8, modes: (1, 2), ..Default::default() }, seed ^ 0x3);
        if let Some(m) = random_interval_mapping(&apps, &pf, seed ^ 0x9) {
            prop_assert!(m.validate(&apps, &pf).is_ok());
            // Corruption 1: duplicate a processor.
            if m.assignments.len() >= 2 {
                let mut bad = m.clone();
                bad.assignments[0].proc = bad.assignments[1].proc;
                prop_assert!(bad.validate(&apps, &pf).is_err());
            }
            // Corruption 2: drop an assignment.
            let mut bad = m.clone();
            bad.assignments.pop();
            prop_assert!(bad.validate(&apps, &pf).is_err());
        }
    }
}
