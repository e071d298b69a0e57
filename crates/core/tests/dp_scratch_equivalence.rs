//! Bitwise equivalence of the windowed, flat-arena DP cores against the
//! pre-optimization reference implementations.
//!
//! The reference cores below are verbatim copies of the original textbook
//! `O(n²·q)` scans over nested `Vec<Vec<_>>` tables (ascending split scan,
//! strict-improvement argmin, per-solve allocation). The optimized cores in
//! `cpo_core::dp` — monotone work-window pruning, descending early-stop
//! scans, incremental mode frontiers, reused `DpScratch` arenas — must
//! reproduce them **bit for bit**: every `best` value, every `exact_k`
//! entry and every reconstructed partition, on random instances, both
//! communication models, feasible and infeasible thresholds, with one
//! scratch reused across wildly different instances.

// The reference cores are intentionally verbatim copies of the original
// textbook loops — do not "modernize" them.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

use cpo_core::dp::{
    energy_dp, latency_dp, min_period_under_latency_probe, period_dp, DpScratch, HomCtx,
    IntervalCostTable,
};
use cpo_model::eval::CommModel;
use cpo_model::generator::{random_apps, AppGenConfig};
use cpo_model::num;
use proptest::prelude::*;
use rand::prelude::*;

// ---------------------------------------------------------------------------
// Reference cores (the original implementations, kept as the oracle)
// ---------------------------------------------------------------------------

struct RefTable {
    best: Vec<f64>,
    exact: Vec<Vec<f64>>,
    parent: Vec<Vec<usize>>,
    mode_of: Vec<Vec<usize>>, // energy only
    exact_k: Vec<f64>,        // energy only
}

fn ref_period_table(ctx: &HomCtx<'_>, qmax: usize) -> RefTable {
    let n = ctx.app.n();
    let s = ctx.max_speed();
    let kcap = qmax.min(n).max(1);
    let inf = f64::INFINITY;
    let mut exact = vec![vec![inf; n + 1]; kcap + 1];
    let mut parent = vec![vec![usize::MAX; n + 1]; kcap + 1];
    for i in 1..=n {
        exact[1][i] = ctx.cycle(0, i - 1, s);
        parent[1][i] = 0;
    }
    for k in 2..=kcap {
        for i in k..=n {
            let mut best = inf;
            let mut arg = usize::MAX;
            for j in (k - 1)..i {
                let cand = num::fmax(exact[k - 1][j], ctx.cycle(j, i - 1, s));
                if cand < best {
                    best = cand;
                    arg = j;
                }
            }
            exact[k][i] = best;
            parent[k][i] = arg;
        }
    }
    let mut best = Vec::with_capacity(qmax);
    let mut acc = inf;
    for q in 1..=qmax {
        let k = q.min(kcap);
        acc = num::fmin(acc, exact[k][n]);
        best.push(acc);
    }
    RefTable { best, exact, parent, mode_of: vec![], exact_k: vec![] }
}

fn ref_latency_table(ctx: &HomCtx<'_>, t_bound: f64, qmax: usize) -> RefTable {
    let n = ctx.app.n();
    let s = ctx.max_speed();
    let input_edge = ctx.app.input_of(0) / ctx.bandwidth;
    let kcap = qmax.min(n).max(1);
    let inf = f64::INFINITY;
    let mut exact = vec![vec![inf; n + 1]; kcap + 1];
    let mut parent = vec![vec![usize::MAX; n + 1]; kcap + 1];
    for i in 1..=n {
        if num::le(ctx.cycle(0, i - 1, s), t_bound) {
            exact[1][i] = input_edge + ctx.latency_term(0, i - 1, s);
            parent[1][i] = 0;
        }
    }
    for k in 2..=kcap {
        for i in k..=n {
            let mut best = inf;
            let mut arg = usize::MAX;
            for j in (k - 1)..i {
                if exact[k - 1][j].is_finite() && num::le(ctx.cycle(j, i - 1, s), t_bound) {
                    let cand = exact[k - 1][j] + ctx.latency_term(j, i - 1, s);
                    if cand < best {
                        best = cand;
                        arg = j;
                    }
                }
            }
            exact[k][i] = best;
            parent[k][i] = arg;
        }
    }
    let mut best = Vec::with_capacity(qmax);
    let mut acc = inf;
    for q in 1..=qmax {
        let k = q.min(kcap);
        acc = num::fmin(acc, exact[k][n]);
        best.push(acc);
    }
    RefTable { best, exact, parent, mode_of: vec![], exact_k: vec![] }
}

fn ref_energy_table(ctx: &HomCtx<'_>, t_bound: f64, qmax: usize) -> RefTable {
    let n = ctx.app.n();
    let kcap = qmax.min(n).max(1);
    let inf = f64::INFINITY;
    // cost1[j][i-1]: cheapest single-processor energy for stages j..=i-1.
    let mut cost1 = vec![vec![inf; n]; n];
    let mut mode1 = vec![vec![usize::MAX; n]; n];
    for lo in 0..n {
        for hi in lo..n {
            if let Some((m, e)) = ctx.cheapest_feasible_mode(lo, hi, t_bound) {
                cost1[lo][hi] = e;
                mode1[lo][hi] = m;
            }
        }
    }
    let mut exact = vec![vec![inf; n + 1]; kcap + 1];
    let mut parent = vec![vec![usize::MAX; n + 1]; kcap + 1];
    let mut mode_of = vec![vec![usize::MAX; n + 1]; kcap + 1];
    for i in 1..=n {
        exact[1][i] = cost1[0][i - 1];
        parent[1][i] = 0;
        mode_of[1][i] = mode1[0][i - 1];
    }
    for k in 2..=kcap {
        for i in k..=n {
            let mut best = inf;
            let mut arg = usize::MAX;
            let mut bm = usize::MAX;
            for j in (k - 1)..i {
                if exact[k - 1][j].is_finite() && cost1[j][i - 1].is_finite() {
                    let cand = exact[k - 1][j] + cost1[j][i - 1];
                    if cand < best {
                        best = cand;
                        arg = j;
                        bm = mode1[j][i - 1];
                    }
                }
            }
            exact[k][i] = best;
            parent[k][i] = arg;
            mode_of[k][i] = bm;
        }
    }
    let exact_k: Vec<f64> = (1..=kcap).map(|k| exact[k][n]).collect();
    RefTable { best: vec![], exact, parent, mode_of, exact_k }
}

/// Reference reconstruction: smallest k attaining `target`, parent walk.
fn ref_partition(
    table: &RefTable,
    n: usize,
    q: usize,
    with_modes: bool,
    target: f64,
) -> Option<(Vec<(usize, usize)>, Vec<usize>)> {
    if !target.is_finite() {
        return None;
    }
    let kcap = table.exact.len() - 1;
    let k = (1..=q.min(kcap)).find(|&k| num::le(table.exact[k][n], target))?;
    ref_walk(table, n, k, with_modes)
}

fn ref_walk(
    table: &RefTable,
    n: usize,
    k: usize,
    with_modes: bool,
) -> Option<(Vec<(usize, usize)>, Vec<usize>)> {
    let mut intervals = Vec::new();
    let mut modes = Vec::new();
    let mut i = n;
    let mut kk = k;
    while kk > 0 {
        let j = table.parent[kk][i];
        intervals.push((j, i - 1));
        if with_modes {
            modes.push(table.mode_of[kk][i]);
        }
        i = j;
        kk -= 1;
    }
    intervals.reverse();
    modes.reverse();
    Some((intervals, modes))
}

// ---------------------------------------------------------------------------
// Instance generation
// ---------------------------------------------------------------------------

/// Random speed set; deliberately includes near-duplicate speeds so the
/// mode-energy steps are **non-convex** (the regime that breaks the
/// quadrangle inequality and would expose an unsound divide-and-conquer).
fn random_speeds(rng: &mut StdRng) -> Vec<f64> {
    let modes = rng.gen_range(1..=4);
    let mut speeds: Vec<f64> = (0..modes)
        .map(|_| (rng.gen_range(1..=40) as f64) / 4.0)
        .collect();
    if rng.gen_bool(0.4) {
        let base = speeds[rng.gen_range(0..speeds.len())];
        speeds.push(base + 0.05);
    }
    speeds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    speeds.dedup();
    speeds
}

fn thresholds_for(ctx: &HomCtx<'_>, rng: &mut StdRng) -> Vec<f64> {
    let w = ctx.app.total_work();
    let mut out = vec![
        0.0,                       // infeasible everywhere
        1e-6,                      // almost surely infeasible
        w / ctx.max_speed() * 2.0, // loose
        f64::INFINITY,             // unconstrained
    ];
    for _ in 0..4 {
        out.push(rng.gen_range(0.0..(w + 4.0)));
    }
    // A few exact candidate values (threshold boundaries are the spiciest).
    let cands = ctx.period_candidates();
    if !cands.is_empty() {
        out.push(cands[rng.gen_range(0..cands.len())]);
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// The equivalence properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn period_core_is_bitwise_identical(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let apps = random_apps(
            &AppGenConfig { apps: 1, stages: (1, 10), ..Default::default() },
            seed,
        );
        let app = &apps.apps[0];
        let speeds = random_speeds(&mut rng);
        let bw = (rng.gen_range(1..=8) as f64) / 2.0;
        let mut scratch = DpScratch::new();
        for model in CommModel::ALL {
            let ctx = HomCtx::new(app, &speeds, bw, model);
            let table = IntervalCostTable::build(&ctx);
            for q in 1..=(app.n() + 2) {
                let oracle = ref_period_table(&ctx, q);
                period_dp(&table, q, &mut scratch);
                prop_assert_eq!(bits(&oracle.best), bits(scratch.best_row()), "best, q={}", q);
                let o_part =
                    ref_partition(&oracle, app.n(), q, false, oracle.best[q - 1]).unwrap();
                let f_part = scratch.period_partition(q, speeds.len() - 1).unwrap();
                prop_assert_eq!(&o_part.0, &f_part.intervals, "partition, q={}", q);
            }
        }
    }

    #[test]
    fn latency_core_is_bitwise_identical(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let apps = random_apps(
            &AppGenConfig { apps: 1, stages: (1, 10), ..Default::default() },
            seed ^ 0x5a5a,
        );
        let app = &apps.apps[0];
        let speeds = random_speeds(&mut rng);
        let bw = (rng.gen_range(1..=8) as f64) / 2.0;
        let mut scratch = DpScratch::new();
        for model in CommModel::ALL {
            let ctx = HomCtx::new(app, &speeds, bw, model);
            let table = IntervalCostTable::build(&ctx);
            for tb in thresholds_for(&ctx, &mut rng) {
                for q in 1..=(app.n() + 1) {
                    let oracle = ref_latency_table(&ctx, tb, q);
                    latency_dp(&table, tb, q, &mut scratch);
                    prop_assert_eq!(
                        bits(&oracle.best), bits(scratch.best_row()),
                        "best, t={}, q={}", tb, q
                    );
                    let o_part = ref_partition(&oracle, app.n(), q, false, oracle.best[q - 1]);
                    let f_part = scratch.latency_partition(q, speeds.len() - 1);
                    match (o_part, f_part) {
                        (None, None) => {}
                        (Some(o), Some(f)) => {
                            prop_assert_eq!(&o.0, &f.intervals, "partition, t={}, q={}", tb, q)
                        }
                        other => prop_assert!(false, "feasibility mismatch: {:?}", other),
                    }
                    // The dual's probe at the single candidate `tb` accepts
                    // exactly the oracle's optimum and leaves its DP behind.
                    let l = oracle.best[q - 1];
                    let probe = min_period_under_latency_probe(&table, &[tb], l, q, &mut scratch);
                    prop_assert_eq!(
                        probe.is_some(), oracle.best[q - 1].is_finite(),
                        "probe, t={}, q={}", tb, q
                    );
                    prop_assert_eq!(
                        scratch.best_row()[q - 1].to_bits(), oracle.best[q - 1].to_bits(),
                        "probe, t={}, q={}", tb, q
                    );
                }
            }
        }
    }

    #[test]
    fn energy_core_is_bitwise_identical(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let apps = random_apps(
            &AppGenConfig { apps: 1, stages: (1, 10), ..Default::default() },
            seed ^ 0xc3c3,
        );
        let app = &apps.apps[0];
        let speeds = random_speeds(&mut rng);
        let bw = (rng.gen_range(1..=8) as f64) / 2.0;
        let e_stat = if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(0.0..5.0) };
        let mut scratch = DpScratch::new();
        for model in CommModel::ALL {
            let mut ctx = HomCtx::new(app, &speeds, bw, model);
            ctx.e_stat = e_stat;
            let table = IntervalCostTable::build(&ctx);
            for tb in thresholds_for(&ctx, &mut rng) {
                for q in 1..=(app.n() + 1) {
                    let oracle = ref_energy_table(&ctx, tb, q);
                    // Reuse one scratch across every (model, tb, q): the
                    // frontier cache must never change a result.
                    energy_dp(&table, tb, q, &mut scratch);
                    prop_assert_eq!(
                        bits(&oracle.exact_k), bits(scratch.energy_exact_k()),
                        "exact_k, t={}, q={}", tb, q
                    );
                    let kcap = oracle.exact_k.len();
                    for k in 1..=kcap {
                        let o_part = if oracle.exact_k[k - 1].is_finite() {
                            ref_walk(&oracle, app.n(), k, true)
                        } else {
                            None
                        };
                        let f_part = scratch.energy_partition_exact(k);
                        match (o_part, f_part) {
                            (None, None) => {}
                            (Some(o), Some(f)) => {
                                prop_assert_eq!(&o.0, &f.intervals, "intervals k={}", k);
                                prop_assert_eq!(&o.1, &f.modes, "modes k={}", k);
                            }
                            other => prop_assert!(false, "mismatch k={}: {:?}", k, other),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_scratch_survives_interleaved_instances(seed in 0u64..1_000_000) {
        // Stale-state check: one DpScratch solving an interleaved stream of
        // different applications, sizes, models and thresholds must match
        // fresh-scratch solves (no leakage through arenas or frontiers).
        let mut rng = StdRng::seed_from_u64(seed);
        let apps = random_apps(
            &AppGenConfig { apps: 3, stages: (1, 9), ..Default::default() },
            seed ^ 0x7777,
        );
        let speeds: Vec<Vec<f64>> =
            (0..3).map(|_| random_speeds(&mut rng)).collect();
        let mut shared = DpScratch::new();
        for round in 0..6 {
            let a: usize = rng.gen_range(0..3);
            let model = if rng.gen_bool(0.5) { CommModel::Overlap } else { CommModel::NoOverlap };
            let ctx = HomCtx::new(&apps.apps[a], &speeds[a], 2.0, model);
            let table = IntervalCostTable::build(&ctx);
            let tb = rng.gen_range(0.0..(apps.apps[a].total_work() + 2.0));
            let q = rng.gen_range(1..=5);
            match round % 3 {
                0 => {
                    energy_dp(&table, tb, q, &mut shared);
                    let mut fresh = DpScratch::new();
                    energy_dp(&table, tb, q, &mut fresh);
                    prop_assert_eq!(bits(shared.energy_exact_k()), bits(fresh.energy_exact_k()));
                    prop_assert_eq!(shared.energy_partition_best(), fresh.energy_partition_best());
                }
                1 => {
                    latency_dp(&table, tb, q, &mut shared);
                    let mut fresh = DpScratch::new();
                    latency_dp(&table, tb, q, &mut fresh);
                    prop_assert_eq!(bits(shared.best_row()), bits(fresh.best_row()));
                    prop_assert_eq!(shared.latency_partition(q, 0), fresh.latency_partition(q, 0));
                }
                _ => {
                    period_dp(&table, q, &mut shared);
                    let mut fresh = DpScratch::new();
                    period_dp(&table, q, &mut fresh);
                    prop_assert_eq!(bits(shared.best_row()), bits(fresh.best_row()));
                }
            }
        }
    }
}
