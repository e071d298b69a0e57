//! Solvers for **replicated** interval mappings (Section 6 extension,
//! following reference [4] of the paper).
//!
//! * [`replicated_period_table`] — single-application dynamic program over
//!   (prefix, processor budget): each interval chooses a replication
//!   factor `r`, dividing its cycle-time by `r` at the price of `r`
//!   processors. `O(n²·p²)`.
//! * [`minimize_global_period_replicated`] — multi-application version via
//!   the paper's Algorithm 2 (the per-application optimum is still
//!   non-increasing in the processor count).
//! * [`min_energy_replicated_under_period`] — the energy-aware variant:
//!   a DP over (prefix, processor budget) choosing each interval's split
//!   and replication factor jointly, with the cheapest feasible mode per
//!   `(interval, r)` (replication as an alternative to DVFS: `r` slow
//!   processors vs one fast processor — the ablation the benches quantify).

#![allow(clippy::needless_range_loop)]
use crate::alloc::allocate_processors;
use crate::bi::cost_tables;
use crate::bi::period_energy::convolve_energies;
use crate::dp::HomCtx;
use cpo_model::num;
use cpo_model::prelude::*;
use cpo_model::replication::{ReplicatedEvaluator, ReplicatedMapping};

/// A chain partition with replication factors and modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatedPartition {
    /// Intervals `(first, last)` in chain order.
    pub intervals: Vec<(usize, usize)>,
    /// Replication factor per interval.
    pub factors: Vec<usize>,
    /// Mode per interval (all replicas share it).
    pub modes: Vec<usize>,
}

/// Result of the replicated period DP.
#[derive(Debug, Clone)]
pub struct ReplicatedPeriodTable {
    /// `best[q-1]` = minimum period using at most `q` processors.
    pub best: Vec<f64>,
    n: usize,
    stride: usize,
    /// `exact[k·stride + i]` = min period, exactly `k` processors, first
    /// `i` stages (flat arena).
    exact: Vec<f64>,
    /// Split point `j` realizing `exact` (`u32::MAX` = none).
    parent_j: Vec<u32>,
    /// Replication factor `r` realizing `exact`.
    parent_r: Vec<u32>,
}

/// Single-application replicated period DP at the top speed, in flat
/// arenas. Worst case `O(n²·qmax²)`, but the inner scan walks splits
/// descending and stops once even maximal replication of the last interval
/// (`W(j, i-1)/(s·k)`, a bitwise lower bound of every candidate and
/// monotone in the split) exceeds the incumbent — exact and typically
/// near-linear.
pub fn replicated_period_table(ctx: &HomCtx<'_>, qmax: usize) -> ReplicatedPeriodTable {
    let n = ctx.app.n();
    let s = ctx.max_speed();
    let inf = f64::INFINITY;
    let kcap = qmax.max(1);
    let stride = n + 1;
    let mut exact = vec![inf; (kcap + 1) * stride];
    let mut parent_j = vec![u32::MAX; (kcap + 1) * stride];
    let mut parent_r = vec![0u32; (kcap + 1) * stride];
    exact[0] = 0.0;
    for k in 1..=kcap {
        exact[k * stride] = 0.0;
        for i in 1..=n {
            let mut best = inf;
            let mut arg = (u32::MAX, 0u32);
            // Descending split scan with `≤` keeps the smallest (j, then r)
            // attaining the minimum — the same pair as the reference
            // ascending strict scan — while allowing the monotone early
            // stop on the compute lower bound.
            for j in (0..i).rev() {
                let w = ctx.app.interval_work(j, i - 1) / s;
                if w / k as f64 > best {
                    break;
                }
                // Last interval is stages j..=i-1, replicated r times.
                let cycle = ctx.cycle(j, i - 1, s);
                let mut best_j = inf;
                let mut arg_r = 0u32;
                for r in 1..=k {
                    // `cand ≥ cycle/r ≥ w/r`: r cannot improve this split.
                    if w / r as f64 > best_j {
                        continue;
                    }
                    if exact[(k - r) * stride + j].is_finite() {
                        let cand = num::fmax(exact[(k - r) * stride + j], cycle / r as f64);
                        if cand < best_j {
                            best_j = cand;
                            arg_r = r as u32;
                        }
                    }
                }
                if best_j <= best {
                    best = best_j;
                    arg = (j as u32, arg_r);
                }
            }
            exact[k * stride + i] = best;
            parent_j[k * stride + i] = arg.0;
            parent_r[k * stride + i] = arg.1;
        }
    }
    let mut bestv = Vec::with_capacity(qmax);
    let mut acc = inf;
    for q in 1..=qmax {
        acc = num::fmin(acc, exact[q * stride + n]);
        bestv.push(acc);
    }
    ReplicatedPeriodTable { best: bestv, n, stride, exact, parent_j, parent_r }
}

impl ReplicatedPeriodTable {
    /// Reconstruct a partition achieving `best[q-1]`.
    pub fn partition(&self, q: usize, top_mode: usize) -> ReplicatedPartition {
        let target = self.best[q - 1];
        let k = (1..=q)
            .find(|&k| num::le(self.exact[k * self.stride + self.n], target))
            .expect("replicated period table is consistent");
        let mut intervals = Vec::new();
        let mut factors = Vec::new();
        let mut i = self.n;
        let mut kk = k;
        while i > 0 {
            let j = self.parent_j[kk * self.stride + i] as usize;
            let r = self.parent_r[kk * self.stride + i] as usize;
            intervals.push((j, i - 1));
            factors.push(r);
            kk -= r;
            i = j;
        }
        intervals.reverse();
        factors.reverse();
        let modes = vec![top_mode; intervals.len()];
        ReplicatedPartition { intervals, factors, modes }
    }
}

/// Assemble a global replicated mapping from per-application partitions.
fn mapping_from_replicated(partitions: &[ReplicatedPartition]) -> ReplicatedMapping {
    let mut mapping = ReplicatedMapping::new();
    let mut next = 0usize;
    for (a, part) in partitions.iter().enumerate() {
        for (iv, &(first, last)) in part.intervals.iter().enumerate() {
            let r = part.factors[iv];
            let procs: Vec<usize> = (next..next + r).collect();
            next += r;
            mapping.push(Interval::new(a, first, last), procs, vec![part.modes[iv]; r]);
        }
    }
    mapping
}

/// Minimize the global weighted period with replication on a fully
/// homogeneous platform (Algorithm 2 over the replicated DP).
pub fn minimize_global_period_replicated(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
) -> Option<(ReplicatedMapping, f64)> {
    // Replication multiplexes one logical edge over several physical
    // routes; on a shared multistage fabric that breaks the
    // partial-permutation property the Benes routing certificate relies
    // on, so the replicated solvers stay dedicated-links only.
    if platform.is_multistage() {
        return None;
    }
    let p = platform.p();
    let a_count = apps.a();
    let qmax = (p + 1).saturating_sub(a_count);
    let tables =
        cost_tables(apps, platform, model, |_, ctx| replicated_period_table(ctx, qmax))?;
    let weights: Vec<f64> = apps.apps.iter().map(|a| a.weight).collect();
    let alloc = allocate_processors(a_count, p, &weights, |a, q| tables[a].best[q - 1])?;
    let top = platform.procs[0].modes() - 1;
    let partitions: Vec<_> =
        (0..a_count).map(|a| tables[a].partition(alloc.procs[a], top)).collect();
    let mapping = mapping_from_replicated(&partitions);
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let achieved = ReplicatedEvaluator::new(apps, platform).period(&mapping, model);
    Some((mapping, achieved))
}

/// Cheapest mode for an interval replicated exactly `r` times under a
/// period bound: the slowest feasible speed (dynamic energy is increasing
/// in speed since `α > 1`). Returns `(mode, total energy of the r replicas)`.
fn cheapest_mode_for_factor(
    ctx: &HomCtx<'_>,
    lo: usize,
    hi: usize,
    t_bound: f64,
    r: usize,
) -> Option<(usize, f64)> {
    for (m, &s) in ctx.speeds.iter().enumerate() {
        if num::le(ctx.cycle(lo, hi, s) / r as f64, t_bound) {
            return Some((m, r as f64 * (ctx.e_stat + ctx.energy.dynamic(s))));
        }
    }
    None
}

/// One application's replicated energy DP: `exact_k[k-1]` = minimum energy
/// on exactly `k` processors, with the split, factor and mode realizing
/// every `(k, i)` cell (flat arenas).
struct ReplicatedEnergyTable {
    n: usize,
    stride: usize,
    exact_k: Vec<f64>,
    parent_j: Vec<u32>,
    parent_r: Vec<u32>,
    parent_m: Vec<u32>,
}

/// `e[k][i]` = min energy, exactly `k` processors, first `i` stages, every
/// interval's cycle-time over its `r` replicas ≤ `t_bound`; each interval
/// contributes its cheapest `(r, mode)`. Every `(j, r)` pair whose compute
/// lower bound `W/(s_top·r)` already misses the bound is skipped exactly
/// (the cycle-time at every mode dominates that bound bitwise, so the
/// reference scan would have found no feasible mode either).
fn replicated_energy_table(ctx: &HomCtx<'_>, t_bound: f64, qmax: usize) -> ReplicatedEnergyTable {
    let inf = f64::INFINITY;
    let s_top = ctx.max_speed();
    let n = ctx.app.n();
    let stride = n + 1;
    let cells = (qmax + 1) * stride;
    let mut exact = vec![inf; cells];
    let mut parent_j = vec![u32::MAX; cells];
    let mut parent_r = vec![0u32; cells];
    let mut parent_m = vec![0u32; cells];
    exact[0] = 0.0;
    for k in 1..=qmax {
        exact[k * stride] = 0.0;
        for i in 1..=n {
            let mut best = inf;
            let mut arg = (u32::MAX, 0u32, 0u32);
            for j in 0..i {
                let w_top = ctx.app.interval_work(j, i - 1) / s_top;
                // Even maximal replication misses the bound: no r fits.
                if !num::le(w_top / k as f64, t_bound) {
                    continue;
                }
                // The replication factor must be chosen jointly with the
                // split: the globally cheapest (r, mode) can starve the
                // prefix of processors while a costlier smaller r fits.
                for r in 1..=k {
                    if !exact[(k - r) * stride + j].is_finite() {
                        continue;
                    }
                    if !num::le(w_top / r as f64, t_bound) {
                        continue;
                    }
                    if let Some((m, e)) = cheapest_mode_for_factor(ctx, j, i - 1, t_bound, r) {
                        let prev = exact[(k - r) * stride + j];
                        if prev + e < best {
                            best = prev + e;
                            arg = (j as u32, r as u32, m as u32);
                        }
                    }
                }
            }
            exact[k * stride + i] = best;
            parent_j[k * stride + i] = arg.0;
            parent_r[k * stride + i] = arg.1;
            parent_m[k * stride + i] = arg.2;
        }
    }
    let exact_k: Vec<f64> = (1..=qmax).map(|k| exact[k * stride + n]).collect();
    ReplicatedEnergyTable { n, stride, exact_k, parent_j, parent_r, parent_m }
}

impl ReplicatedEnergyTable {
    /// The partition realizing `exact_k[k-1]`.
    fn partition(&self, k: usize) -> ReplicatedPartition {
        let mut kk = k;
        let mut intervals = Vec::new();
        let mut factors = Vec::new();
        let mut modes = Vec::new();
        let mut i = self.n;
        while i > 0 {
            let cell = kk * self.stride + i;
            let j = self.parent_j[cell] as usize;
            let r = self.parent_r[cell] as usize;
            intervals.push((j, i - 1));
            factors.push(r);
            modes.push(self.parent_m[cell] as usize);
            kk -= r;
            i = j;
        }
        intervals.reverse();
        factors.reverse();
        modes.reverse();
        ReplicatedPartition { intervals, factors, modes }
    }
}

/// Minimum-energy replicated mapping under per-application period bounds
/// (fully homogeneous platform): per application, a DP over (prefix,
/// processors used) choosing each interval's split and replication factor
/// `r` jointly (each candidate `r` takes its cheapest feasible mode), then
/// the Theorem 21 convolution across applications. Returns
/// `(mapping, energy)`.
pub fn min_energy_replicated_under_period(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    period_bounds: &[f64],
) -> Option<(ReplicatedMapping, f64)> {
    assert_eq!(period_bounds.len(), apps.a());
    // Same dedicated-links-only gate as `minimize_global_period_replicated`.
    if platform.is_multistage() {
        return None;
    }
    let p = platform.p();
    let a_count = apps.a();
    let qmax = (p + 1).saturating_sub(a_count);
    let tables = cost_tables(apps, platform, model, |a, ctx| {
        replicated_energy_table(ctx, period_bounds[a], qmax)
    })?;
    let (e_best, counts) = convolve_energies(
        a_count,
        p,
        |a| tables[a].exact_k.as_slice(),
        &mut Vec::new(),
        &mut Vec::new(),
    )?;
    let partitions: Vec<_> = tables.iter().zip(counts).map(|(t, k)| t.partition(k)).collect();
    let mapping = mapping_from_replicated(&partitions);
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let achieved = ReplicatedEvaluator::new(apps, platform).energy(&mapping);
    debug_assert!(num::approx_eq(achieved, e_best));
    Some((mapping, achieved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::application::Application;
    use cpo_model::generator::{random_apps, AppGenConfig};

    fn ctx_for<'a>(app: &'a Application, speeds: &'a [f64]) -> HomCtx<'a> {
        HomCtx::new(app, speeds, 1.0, CommModel::Overlap)
    }

    /// Exhaustive replicated-period baseline (single application, identical
    /// processors): enumerate all partitions and factor vectors. Exponential;
    /// certification only.
    fn exact_min_period_replicated(ctx: &HomCtx<'_>, p: usize) -> f64 {
        fn rec(ctx: &HomCtx<'_>, first: usize, procs_left: usize, current_max: f64, best: &mut f64) {
            let n = ctx.app.n();
            if first == n {
                *best = num::fmin(*best, current_max);
                return;
            }
            if procs_left == 0 {
                return;
            }
            let s = ctx.max_speed();
            for last in first..n {
                let cycle = ctx.cycle(first, last, s);
                for r in 1..=procs_left {
                    let m = num::fmax(current_max, cycle / r as f64);
                    if m < *best {
                        rec(ctx, last + 1, procs_left - r, m, best);
                    }
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(ctx, 0, p, 0.0, &mut best);
        best
    }

    #[test]
    fn replication_beats_plain_on_monolithic_stage() {
        // One heavy stage: splitting is impossible, replication is the only
        // way to improve the period.
        let app = Application::from_pairs(0.0, &[(8.0, 0.0)]);
        let speeds = [2.0];
        let ctx = ctx_for(&app, &speeds);
        let plain = crate::dp::period_table(&ctx, 4).best_row()[3];
        let repl = replicated_period_table(&ctx, 4).best[3];
        assert!((plain - 4.0).abs() < 1e-12);
        assert!((repl - 1.0).abs() < 1e-12); // 8/2/4
    }

    #[test]
    fn replicated_table_matches_exhaustive() {
        let cfg = AppGenConfig { apps: 1, stages: (1, 4), ..Default::default() };
        for seed in 0..80 {
            let apps = random_apps(&cfg, seed);
            let speeds = [2.0];
            let ctx = ctx_for(&apps.apps[0], &speeds);
            for p in 1..=5 {
                let dp = replicated_period_table(&ctx, p).best[p - 1];
                let brute = exact_min_period_replicated(&ctx, p);
                assert!(
                    (dp - brute).abs() < 1e-9,
                    "seed {seed} p {p}: dp {dp} vs brute {brute}"
                );
            }
        }
    }

    #[test]
    fn replication_never_hurts() {
        let cfg = AppGenConfig { apps: 1, stages: (2, 5), ..Default::default() };
        for seed in 0..40 {
            let apps = random_apps(&cfg, seed);
            let speeds = [1.0, 3.0];
            let ctx = ctx_for(&apps.apps[0], &speeds);
            for p in 1..=5 {
                let plain = crate::dp::period_table(&ctx, p).best_row()[p - 1];
                let repl = replicated_period_table(&ctx, p).best[p - 1];
                assert!(repl <= plain + 1e-9, "seed {seed} p {p}");
            }
        }
    }

    #[test]
    fn global_replicated_solver_builds_valid_mappings() {
        let apps = AppSet::new(vec![
            Application::from_pairs(0.0, &[(8.0, 0.0)]),
            Application::from_pairs(0.0, &[(4.0, 0.0), (4.0, 0.0)]),
        ])
        .unwrap();
        let pf = Platform::fully_homogeneous(5, vec![2.0], 1.0).unwrap();
        let (mapping, period) =
            minimize_global_period_replicated(&apps, &pf, CommModel::Overlap).unwrap();
        mapping.validate(&apps, &pf).unwrap();
        // 5 procs: app0 gets 3 replicas (8/2/3 = 4/3), app1 two procs
        // ([4][4] → 2 each)… or app0 2 replicas (2) and app1 3 procs.
        // Either way the greedy balances: best achievable max is 4/3 vs 2.
        let plain =
            crate::mono::period_interval::minimize_global_period(&apps, &pf, CommModel::Overlap)
                .unwrap();
        assert!(period <= plain.objective + 1e-9);
        assert!(period < plain.objective, "replication should strictly help here");
    }

    #[test]
    fn energy_aware_replication_prefers_slow_replicas_when_alpha_makes_it_cheap() {
        // Work 8, period bound 1. Options: 1 proc at speed 8 (energy 64);
        // 2 replicas at speed 4 (2×16 = 32); 4 replicas at speed 2
        // (4×4 = 16); 8 replicas at speed 1 (8×1 = 8) — with α = 2,
        // maximal replication of slowest modes wins (no static cost).
        let apps = AppSet::single(Application::from_pairs(0.0, &[(8.0, 0.0)]));
        let pf = Platform::fully_homogeneous(8, vec![1.0, 2.0, 4.0, 8.0], 1.0).unwrap();
        let (mapping, energy) =
            min_energy_replicated_under_period(&apps, &pf, CommModel::Overlap, &[1.0]).unwrap();
        mapping.validate(&apps, &pf).unwrap();
        assert!((energy - 8.0).abs() < 1e-9, "got {energy}");
        assert_eq!(mapping.assignments[0].r(), 8);
    }

    #[test]
    fn static_energy_reverses_the_replication_choice() {
        // Same instance but a big static cost per enrolled processor makes
        // one fast processor cheaper than eight slow ones.
        let apps = AppSet::single(Application::from_pairs(0.0, &[(8.0, 0.0)]));
        let proto = cpo_model::platform::Processor::new(vec![1.0, 2.0, 4.0, 8.0])
            .unwrap()
            .with_static_energy(50.0);
        let pf = Platform::new(vec![proto; 8], cpo_model::platform::Links::Uniform(1.0)).unwrap();
        let (mapping, energy) =
            min_energy_replicated_under_period(&apps, &pf, CommModel::Overlap, &[1.0]).unwrap();
        assert_eq!(mapping.assignments[0].r(), 1);
        assert!((energy - (50.0 + 64.0)).abs() < 1e-9);
    }

    #[test]
    fn infeasible_period_bound_returns_none() {
        let apps = AppSet::single(Application::from_pairs(1.0, &[(8.0, 1.0)]));
        let pf = Platform::fully_homogeneous(2, vec![1.0], 1.0).unwrap();
        // Input edge alone costs 1; bound 0.1 unreachable even replicated?
        // cycle/r with r = 2: max(1, 8, 1)/2 = 4 > 0.1 → infeasible.
        assert!(
            min_energy_replicated_under_period(&apps, &pf, CommModel::Overlap, &[0.1]).is_none()
        );
    }

    #[test]
    fn energy_matches_unreplicated_dp_when_replication_is_useless() {
        // Static energy so high that r > 1 never pays; the replicated DP
        // must coincide with the plain Theorem 18/21 DP.
        let cfg = AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() };
        for seed in 0..30 {
            let apps = random_apps(&cfg, seed);
            let proto = cpo_model::platform::Processor::new(vec![1.0, 2.0, 4.0, 8.0, 16.0])
                .unwrap()
                .with_static_energy(1000.0);
            let pf =
                Platform::new(vec![proto; 4], cpo_model::platform::Links::Uniform(1.0)).unwrap();
            let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() / 2.0 + 2.0).collect();
            let plain = crate::bi::period_energy::min_energy_interval_fully_hom(
                &apps,
                &pf,
                CommModel::Overlap,
                &tb,
            );
            let repl =
                min_energy_replicated_under_period(&apps, &pf, CommModel::Overlap, &tb);
            match (plain, repl) {
                (None, None) => {}
                // Replication may rescue feasibility the plain DP lacks
                // (r slow processors meet a bound one processor cannot).
                (None, Some(_)) => {}
                (Some(p), Some((_, e))) => {
                    assert!(e <= p.objective + 1e-9, "seed {seed}");
                    // With prohibitive static energy they should agree.
                    assert!((e - p.objective).abs() < 1e-9, "seed {seed}: {e} vs {}", p.objective);
                }
                (Some(_), None) => {
                    panic!("seed {seed}: replication lost feasibility the plain DP had")
                }
            }
        }
    }
}
