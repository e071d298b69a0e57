//! Property tests for the chain-partition dynamic programs, against an
//! independent brute-force enumeration of partitions (not the shared
//! `exact` module — a genuinely different oracle).

use cpo_core::dp::{
    energy_dp, energy_under_period, latency_dp, latency_under_period,
    min_period_under_latency_probe, period_table, DpScratch, HomCtx, IntervalCostTable,
};
use cpo_model::application::Application;
use cpo_model::energy::EnergyModel;
use cpo_model::eval::CommModel;
use cpo_model::generator::{random_apps, AppGenConfig};
use proptest::prelude::*;

/// Enumerate all partitions of `0..n` into at most `q` intervals, calling
/// `f(partition)`.
fn for_each_partition(n: usize, q: usize, f: &mut impl FnMut(&[(usize, usize)])) {
    fn rec(
        n: usize,
        q: usize,
        first: usize,
        acc: &mut Vec<(usize, usize)>,
        f: &mut impl FnMut(&[(usize, usize)]),
    ) {
        if first == n {
            f(acc);
            return;
        }
        if acc.len() == q {
            return;
        }
        for last in first..n {
            acc.push((first, last));
            rec(n, q, last + 1, acc, f);
            acc.pop();
        }
    }
    rec(n, q, 0, &mut Vec::new(), f);
}

fn brute_period(ctx: &HomCtx<'_>, q: usize) -> f64 {
    let s = ctx.max_speed();
    let mut best = f64::INFINITY;
    for_each_partition(ctx.app.n(), q, &mut |part| {
        let t = part
            .iter()
            .map(|&(lo, hi)| ctx.cycle(lo, hi, s))
            .fold(0.0f64, f64::max);
        best = best.min(t);
    });
    best
}

fn brute_latency_under_period(ctx: &HomCtx<'_>, t_bound: f64, q: usize) -> f64 {
    let s = ctx.max_speed();
    let mut best = f64::INFINITY;
    let input_edge = ctx.app.input_of(0) / ctx.bandwidth;
    for_each_partition(ctx.app.n(), q, &mut |part| {
        if part.iter().any(|&(lo, hi)| ctx.cycle(lo, hi, s) > t_bound + 1e-9) {
            return;
        }
        let l = input_edge
            + part.iter().map(|&(lo, hi)| ctx.latency_term(lo, hi, s)).sum::<f64>();
        best = best.min(l);
    });
    best
}

fn brute_energy_under_period(ctx: &HomCtx<'_>, t_bound: f64, q: usize) -> f64 {
    let mut best = f64::INFINITY;
    for_each_partition(ctx.app.n(), q, &mut |part| {
        let mut total = 0.0;
        for &(lo, hi) in part {
            match ctx.cheapest_feasible_mode(lo, hi, t_bound) {
                Some((_, e)) => total += e,
                None => return,
            }
        }
        best = best.min(total);
    });
    best
}

fn random_app(seed: u64) -> Application {
    random_apps(&AppGenConfig { apps: 1, stages: (1, 6), ..Default::default() }, seed)
        .apps
        .remove(0)
}

fn close_or_both_inf(a: f64, b: f64) -> bool {
    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn period_dp_equals_brute_force(seed in 0u64..100_000, qi in 1usize..5) {
        let app = random_app(seed);
        let speeds = [1.0, 4.0];
        for model in CommModel::ALL {
            let ctx = HomCtx::new(&app, &speeds, 2.0, model);
            let dp = period_table(&ctx, qi).best_row()[qi - 1];
            let brute = brute_period(&ctx, qi);
            prop_assert!(close_or_both_inf(dp, brute), "{dp} vs {brute}");
        }
    }

    #[test]
    fn latency_dp_equals_brute_force(seed in 0u64..100_000, qi in 1usize..5, tb in 1u32..30) {
        let app = random_app(seed);
        let speeds = [3.0];
        let t_bound = tb as f64;
        for model in CommModel::ALL {
            let ctx = HomCtx::new(&app, &speeds, 2.0, model);
            let dp = latency_under_period(&ctx, t_bound, qi).best_row()[qi - 1];
            let brute = brute_latency_under_period(&ctx, t_bound, qi);
            prop_assert!(close_or_both_inf(dp, brute), "{dp} vs {brute} (T={t_bound}, q={qi})");
        }
    }

    #[test]
    fn energy_dp_equals_brute_force(seed in 0u64..100_000, qi in 1usize..5, tb in 1u32..30) {
        let app = random_app(seed);
        let speeds = [1.0, 2.0, 5.0];
        let t_bound = tb as f64;
        for model in CommModel::ALL {
            let mut ctx = HomCtx::new(&app, &speeds, 2.0, model);
            ctx.e_stat = 1.5;
            let table = energy_under_period(&ctx, t_bound, qi);
            let dp = table.energy_exact_k().iter().take(qi).copied().fold(f64::INFINITY, f64::min);
            let brute = brute_energy_under_period(&ctx, t_bound, qi);
            prop_assert!(close_or_both_inf(dp, brute), "{dp} vs {brute} (T={t_bound}, q={qi})");
        }
    }

    #[test]
    fn duality_roundtrip(seed in 0u64..100_000, qi in 1usize..5) {
        // min_period_under_latency_probe(l*) where l* is the unconstrained optimal
        // latency must return the period achievable at that latency; and
        // latency_under_period at that period must give back l* or better.
        let app = random_app(seed);
        let speeds = [2.0];
        let ctx = HomCtx::new(&app, &speeds, 1.0, CommModel::Overlap);
        let l_star = latency_under_period(&ctx, f64::INFINITY, qi).best_row()[qi - 1];
        prop_assert!(l_star.is_finite());
        let table = IntervalCostTable::build(&ctx);
        let t = min_period_under_latency_probe(
            &table,
            &table.candidates(),
            l_star,
            qi,
            &mut DpScratch::new(),
        )
        .expect("l* is achievable");
        let l_back = latency_under_period(&ctx, t, qi).best_row()[qi - 1];
        prop_assert!(l_back <= l_star + 1e-9, "{l_back} vs {l_star}");
    }

    #[test]
    fn energy_monotone_in_modes(seed in 0u64..100_000, tb in 2u32..30) {
        // Adding a faster mode can only help (or not hurt) the energy DP.
        let app = random_app(seed);
        let t_bound = tb as f64;
        let few = [1.0, 2.0];
        let more = [1.0, 2.0, 8.0];
        let ctx_few = HomCtx::new(&app, &few, 2.0, CommModel::Overlap);
        let ctx_more = HomCtx::new(&app, &more, 2.0, CommModel::Overlap);
        let e_few = energy_under_period(&ctx_few, t_bound, 4).energy_best();
        let e_more = energy_under_period(&ctx_more, t_bound, 4).energy_best();
        prop_assert!(e_more <= e_few + 1e-9);
    }

    #[test]
    fn partitions_reconstruct_their_value(seed in 0u64..100_000, qi in 1usize..5) {
        let app = random_app(seed);
        let speeds = [1.0, 3.0];
        let ctx = HomCtx::new(&app, &speeds, 2.0, CommModel::Overlap);
        let table = period_table(&ctx, qi);
        let part = table.period_partition(qi, 1).expect("finite stage data");
        let s = ctx.max_speed();
        let t = part.intervals.iter().map(|&(lo, hi)| ctx.cycle(lo, hi, s)).fold(0.0f64, f64::max);
        prop_assert!((t - table.best_row()[qi - 1]).abs() < 1e-9);
        // Structural sanity.
        prop_assert_eq!(part.intervals[0].0, 0);
        prop_assert_eq!(part.intervals.last().unwrap().1, app.n() - 1);
    }

    #[test]
    fn wrappers_match_cores_on_prebuilt_tables(
        seed in 0u64..100_000,
        tb_tenths in 0u32..200,
        qi in 1usize..6,
    ) {
        // The cores on a prebuilt full table must agree with the HomCtx
        // wrappers on random instances — including *infeasible* period
        // bounds (tb can be 0) — under both communication models, down to
        // the reconstructed partitions.
        let app = random_app(seed);
        let speeds = [1.0, 2.5, 5.0];
        let t_bound = tb_tenths as f64 / 10.0;
        for model in CommModel::ALL {
            let mut ctx = HomCtx::new(&app, &speeds, 2.0, model);
            ctx.e_stat = 0.75;
            let table = IntervalCostTable::build(&ctx);
            let l_direct = latency_under_period(&ctx, t_bound, qi);
            let mut l_table = DpScratch::new();
            latency_dp(&table, t_bound, qi, &mut l_table);
            prop_assert_eq!(l_direct.best_row().len(), l_table.best_row().len());
            for (x, y) in l_direct.best_row().iter().zip(l_table.best_row()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "latency best (T={})", t_bound);
            }
            prop_assert_eq!(l_direct.latency_partition(qi, 2), l_table.latency_partition(qi, 2));
            let e_direct = energy_under_period(&ctx, t_bound, qi);
            let mut e_table = DpScratch::new();
            energy_dp(&table, t_bound, qi, &mut e_table);
            prop_assert_eq!(e_direct.energy_exact_k().len(), e_table.energy_exact_k().len());
            for (x, y) in e_direct.energy_exact_k().iter().zip(e_table.energy_exact_k()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "energy exact_k (T={})", t_bound);
            }
            prop_assert_eq!(e_direct.energy_best().to_bits(), e_table.energy_best().to_bits());
            prop_assert_eq!(e_direct.energy_partition_best(), e_table.energy_partition_best());
            for k in 1..=e_direct.energy_exact_k().len() {
                prop_assert_eq!(
                    e_direct.energy_partition_exact(k),
                    e_table.energy_partition_exact(k)
                );
            }
        }
    }

    #[test]
    fn energy_model_alpha_ordering(seed in 0u64..100_000) {
        // For speeds ≥ 1, a larger α can only increase dynamic energy.
        let app = random_app(seed);
        let speeds = [1.0, 2.0, 4.0];
        let mut low = HomCtx::new(&app, &speeds, 1.0, CommModel::Overlap);
        low.energy = EnergyModel::new(1.5);
        let mut high = HomCtx::new(&app, &speeds, 1.0, CommModel::Overlap);
        high.energy = EnergyModel::new(3.0);
        let t_bound = app.total_work(); // generous
        let e_low = energy_under_period(&low, t_bound, 3).energy_best();
        let e_high = energy_under_period(&high, t_bound, 3).energy_best();
        if e_low.is_finite() && e_high.is_finite() {
            prop_assert!(e_high >= e_low - 1e-9);
        }
    }
}
