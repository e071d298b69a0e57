//! Polynomial-time heuristics for the NP-hard tri-criteria problem.
//!
//! Section 6 of the paper: *"we plan to design some polynomial-time
//! heuristics to solve the tri-criteria optimization problem in a general
//! framework, in order to offer practical solutions to a difficult
//! problem."* This module provides two such heuristics and the benches
//! compare them against the exact branch-and-bound on small instances:
//!
//! * [`greedy_energy_downscale`] — start from any threshold-feasible
//!   mapping at high speeds and repeatedly apply the single mode-decrease
//!   that saves the most energy while keeping all thresholds satisfied
//!   (a classic DVFS "race-to-idle inversion" strategy);
//! * [`local_search`] — randomized local search / simulated annealing over
//!   mappings (mode changes, boundary shifts, splits, merges, relocations
//!   and processor swaps).

use crate::solution::Solution;
use cpo_model::num;
use cpo_model::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

fn feasible(
    ev: &Evaluator<'_>,
    mapping: &Mapping,
    model: CommModel,
    period_bounds: &[f64],
    latency_bounds: &[f64],
) -> bool {
    let e = ev.evaluate(mapping, model);
    e.periods.iter().zip(period_bounds).all(|(t, b)| num::le(*t, *b))
        && e.latencies.iter().zip(latency_bounds).all(|(l, b)| num::le(*l, *b))
}

/// Greedy DVFS downscaling: repeatedly lower one processor's mode (the move
/// saving the most energy) while the mapping keeps satisfying all period
/// and latency bounds. Returns `None` when the starting mapping itself
/// violates a bound. `O(moves × assignments × eval)`, polynomial.
pub fn greedy_energy_downscale(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    period_bounds: &[f64],
    latency_bounds: &[f64],
    start: &Mapping,
) -> Option<Solution> {
    assert_eq!(period_bounds.len(), apps.a());
    assert_eq!(latency_bounds.len(), apps.a());
    let ev = Evaluator::new(apps, platform);
    if !feasible(&ev, start, model, period_bounds, latency_bounds) {
        return None;
    }
    let energy = EnergyModel::default();
    let mut current = start.clone();
    loop {
        let mut best_gain = 0.0;
        let mut best_idx = usize::MAX;
        for i in 0..current.assignments.len() {
            let asg = current.assignments[i];
            if asg.mode == 0 {
                continue;
            }
            let gain = energy.proc_energy(platform, asg.proc, asg.mode)
                - energy.proc_energy(platform, asg.proc, asg.mode - 1);
            if gain <= best_gain {
                continue;
            }
            let mut candidate = current.clone();
            candidate.assignments[i].mode -= 1;
            if feasible(&ev, &candidate, model, period_bounds, latency_bounds) {
                best_gain = gain;
                best_idx = i;
            }
        }
        if best_idx == usize::MAX {
            break;
        }
        current.assignments[best_idx].mode -= 1;
    }
    let objective = ev.energy(&current);
    Some(Solution::new(current, objective))
}

/// Configuration for [`local_search`].
#[derive(Debug, Clone)]
pub struct LocalSearchConfig {
    /// Number of move proposals.
    pub iterations: usize,
    /// RNG seed (deterministic runs).
    pub seed: u64,
    /// Initial simulated-annealing temperature (0 = pure hill climbing).
    pub temperature: f64,
    /// Number of restart attempts to find an initial feasible mapping.
    pub restarts: usize,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig { iterations: 4000, seed: 1, temperature: 2.0, restarts: 16 }
    }
}

/// Build an initial mapping: each application entirely on one processor
/// (fastest processors first, heaviest applications first), top modes; when
/// infeasible, split the most loaded chains greedily while processors
/// remain.
fn initial_mapping(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    period_bounds: &[f64],
    latency_bounds: &[f64],
    rng: &mut StdRng,
    randomize: bool,
) -> Option<Mapping> {
    let ev = Evaluator::new(apps, platform);
    let mut order = platform.procs_by_max_speed();
    order.reverse(); // fastest first
    if randomize {
        order.shuffle(rng);
    }
    // Heaviest applications take the fastest processors.
    let mut app_order: Vec<usize> = (0..apps.a()).collect();
    app_order.sort_by(|&x, &y| {
        (apps.apps[y].weight * apps.apps[y].total_work())
            .partial_cmp(&(apps.apps[x].weight * apps.apps[x].total_work()))
            .expect("finite work")
    });
    if apps.a() > platform.p() {
        return None;
    }
    let mut mapping = Mapping::new();
    for (i, &a) in app_order.iter().enumerate() {
        let u = order[i];
        let top = platform.procs[u].modes() - 1;
        mapping.push(Interval::new(a, 0, apps.apps[a].n() - 1), u, top);
    }
    // Greedy repair: while some application misses a bound, split its widest
    // interval onto a free processor.
    let mut free: Vec<usize> = order[apps.a()..].to_vec();
    for _ in 0..platform.p() {
        let e = ev.evaluate(&mapping, model);
        let viol = (0..apps.a()).find(|&a| {
            !num::le(e.periods[a], period_bounds[a]) || !num::le(e.latencies[a], latency_bounds[a])
        });
        let Some(a) = viol else { return Some(mapping) };
        let new_proc = free.pop()?;
        // Split the longest interval of app a in half.
        let (idx, asg) = mapping
            .assignments
            .iter()
            .enumerate()
            .filter(|(_, x)| x.interval.app == a && x.interval.len() >= 2)
            .max_by_key(|(_, x)| x.interval.len())
            .map(|(i, x)| (i, *x))?;
        let mid = (asg.interval.first + asg.interval.last) / 2;
        mapping.assignments[idx].interval = Interval::new(a, asg.interval.first, mid);
        let top = platform.procs[new_proc].modes() - 1;
        mapping.push(Interval::new(a, mid + 1, asg.interval.last), new_proc, top);
    }
    let e = ev.evaluate(&mapping, model);
    if (0..apps.a())
        .all(|a| num::le(e.periods[a], period_bounds[a]) && num::le(e.latencies[a], latency_bounds[a]))
    {
        Some(mapping)
    } else {
        None
    }
}

/// Randomized local search minimizing total energy under per-application
/// period and latency bounds. Works on any platform class and both mapping
/// kinds implicitly (moves preserve interval validity). Returns the best
/// feasible mapping found, or `None` when no feasible start was discovered.
pub fn local_search(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    period_bounds: &[f64],
    latency_bounds: &[f64],
    cfg: &LocalSearchConfig,
) -> Option<Solution> {
    assert_eq!(period_bounds.len(), apps.a());
    assert_eq!(latency_bounds.len(), apps.a());
    let ev = Evaluator::new(apps, platform);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let runs = cfg.restarts.max(1);
    let iters_per_run = (cfg.iterations / runs).max(1);

    let mut best: Option<(Mapping, f64)> = None;
    for r in 0..runs {
        let Some(init) =
            initial_mapping(apps, platform, model, period_bounds, latency_bounds, &mut rng, r > 0)
        else {
            continue;
        };
        // Greedy downscale gives a strong start.
        let mut current = greedy_energy_downscale(
            apps,
            platform,
            model,
            period_bounds,
            latency_bounds,
            &init,
        )
        .map(|s| s.mapping)
        .unwrap_or(init);
        let mut current_energy = ev.energy(&current);
        if best.as_ref().is_none_or(|(_, e)| current_energy < *e) {
            best = Some((current.clone(), current_energy));
        }
        let mut temperature = cfg.temperature;
        for _ in 0..iters_per_run {
            temperature *= 0.999;
            let Some(raw) = propose(&current, apps, platform, &mut rng) else { continue };
            if raw.validate(apps, platform).is_err() {
                continue;
            }
            if !feasible(&ev, &raw, model, period_bounds, latency_bounds) {
                continue;
            }
            // Structural moves land at arbitrary modes; re-optimize speeds
            // greedily before judging the move, so that e.g. a split that
            // unlocks two slow modes is seen at its true value.
            let candidate = greedy_energy_downscale(
                apps,
                platform,
                model,
                period_bounds,
                latency_bounds,
                &raw,
            )
            .map(|s| s.mapping)
            .unwrap_or(raw);
            let e = ev.energy(&candidate);
            let accept = e < current_energy
                || (temperature > 1e-9
                    && rng.gen_bool(((current_energy - e) / temperature).exp().clamp(0.0, 1.0)));
            if accept {
                current = candidate;
                current_energy = e;
                if best.as_ref().is_none_or(|(_, be)| e < *be) {
                    best = Some((current.clone(), e));
                }
            }
        }
    }
    best.map(|(mapping, energy)| Solution::new(mapping, energy))
}

/// Propose one random neighbour of `mapping`.
fn propose(
    mapping: &Mapping,
    apps: &AppSet,
    platform: &Platform,
    rng: &mut StdRng,
) -> Option<Mapping> {
    let mut m = mapping.clone();
    let n_asg = m.assignments.len();
    if n_asg == 0 {
        return None;
    }
    match rng.gen_range(0..6u8) {
        // Mode down.
        0 => {
            let i = rng.gen_range(0..n_asg);
            if m.assignments[i].mode == 0 {
                return None;
            }
            m.assignments[i].mode -= 1;
        }
        // Mode up.
        1 => {
            let i = rng.gen_range(0..n_asg);
            let a = m.assignments[i];
            if a.mode + 1 >= platform.procs[a.proc].modes() {
                return None;
            }
            m.assignments[i].mode += 1;
        }
        // Shift the boundary between two adjacent intervals of one app.
        2 => {
            let a = rng.gen_range(0..apps.a());
            let chain = m.app_chain(a);
            if chain.len() < 2 {
                return None;
            }
            let j = rng.gen_range(0..chain.len() - 1);
            let left = chain[j];
            let right = chain[j + 1];
            let grow_left = rng.gen_bool(0.5);
            let (new_left_last, new_right_first) = if grow_left {
                if right.interval.len() < 2 {
                    return None;
                }
                (left.interval.last + 1, right.interval.first + 1)
            } else {
                if left.interval.len() < 2 {
                    return None;
                }
                (left.interval.last - 1, right.interval.first - 1)
            };
            for asg in &mut m.assignments {
                if asg.proc == left.proc {
                    asg.interval = Interval::new(a, left.interval.first, new_left_last);
                } else if asg.proc == right.proc {
                    asg.interval = Interval::new(a, new_right_first, right.interval.last);
                }
            }
        }
        // Split an interval onto a free processor.
        3 => {
            let used: std::collections::HashSet<usize> =
                m.assignments.iter().map(|x| x.proc).collect();
            let free: Vec<usize> = (0..platform.p()).filter(|u| !used.contains(u)).collect();
            if free.is_empty() {
                return None;
            }
            let candidates: Vec<usize> = (0..n_asg)
                .filter(|&i| m.assignments[i].interval.len() >= 2)
                .collect();
            let &i = candidates.choose(rng)?;
            let asg = m.assignments[i];
            let cut = rng.gen_range(asg.interval.first..asg.interval.last);
            let &new_proc = free.choose(rng)?;
            let top = platform.procs[new_proc].modes() - 1;
            m.assignments[i].interval = Interval::new(asg.interval.app, asg.interval.first, cut);
            m.push(Interval::new(asg.interval.app, cut + 1, asg.interval.last), new_proc, top);
        }
        // Merge two adjacent intervals (frees one processor).
        4 => {
            let a = rng.gen_range(0..apps.a());
            let chain = m.app_chain(a);
            if chain.len() < 2 {
                return None;
            }
            let j = rng.gen_range(0..chain.len() - 1);
            let left = chain[j];
            let right = chain[j + 1];
            m.assignments.retain(|x| x.proc != right.proc);
            for asg in &mut m.assignments {
                if asg.proc == left.proc {
                    asg.interval = Interval::new(a, left.interval.first, right.interval.last);
                }
            }
        }
        // Relocate one interval to a free processor.
        _ => {
            let used: std::collections::HashSet<usize> =
                m.assignments.iter().map(|x| x.proc).collect();
            let free: Vec<usize> = (0..platform.p()).filter(|u| !used.contains(u)).collect();
            if free.is_empty() {
                return None;
            }
            let i = rng.gen_range(0..n_asg);
            let &new_proc = free.choose(rng)?;
            m.assignments[i].proc = new_proc;
            m.assignments[i].mode =
                m.assignments[i].mode.min(platform.procs[new_proc].modes() - 1);
        }
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tri::multimodal::branch_and_bound_tri_counted;
    use crate::MappingKind;
    use cpo_model::generator::section2_example;

    #[test]
    fn downscale_reaches_section2_compromise_from_fast_start() {
        let (apps, pf) = section2_example();
        // Start: the threshold-feasible all-fast mapping of Section 2
        // (period 2 requires only first modes, start higher).
        let start = Mapping::new()
            .with(Interval::new(0, 0, 2), 0, 1)
            .with(Interval::new(1, 0, 2), 1, 1)
            .with(Interval::new(1, 3, 3), 2, 1);
        let sol = greedy_energy_downscale(
            &apps,
            &pf,
            CommModel::Overlap,
            &[2.0, 2.0],
            &[1e9, 1e9],
            &start,
        )
        .unwrap();
        // Greedy lowers every processor to its first mode: 9 + 36 + 1 = 46.
        assert!((sol.objective - 46.0).abs() < 1e-9);
    }

    #[test]
    fn downscale_rejects_infeasible_start() {
        let (apps, pf) = section2_example();
        let start = Mapping::new()
            .with(Interval::new(0, 0, 2), 0, 0)
            .with(Interval::new(1, 0, 3), 2, 0);
        // Period 14 > bound 2.
        assert!(greedy_energy_downscale(
            &apps,
            &pf,
            CommModel::Overlap,
            &[2.0, 2.0],
            &[1e9, 1e9],
            &start
        )
        .is_none());
    }

    #[test]
    fn local_search_finds_near_optimal_energy() {
        let (apps, pf) = section2_example();
        let exact = branch_and_bound_tri_counted(
            &apps,
            &pf,
            CommModel::Overlap,
            MappingKind::Interval,
            &[2.0, 2.0],
            &[1e9, 1e9],
        )
        .0
        .unwrap();
        let heur = local_search(
            &apps,
            &pf,
            CommModel::Overlap,
            &[2.0, 2.0],
            &[1e9, 1e9],
            &LocalSearchConfig::default(),
        )
        .unwrap();
        assert!(heur.objective >= exact.objective - 1e-9, "heuristic cannot beat exact");
        assert!(
            heur.objective <= exact.objective * 1.5 + 1e-9,
            "heuristic too far from optimal: {} vs {}",
            heur.objective,
            exact.objective
        );
        heur.mapping.validate(&apps, &pf).unwrap();
    }

    #[test]
    fn local_search_none_when_infeasible() {
        let (apps, pf) = section2_example();
        assert!(local_search(
            &apps,
            &pf,
            CommModel::Overlap,
            &[0.01, 0.01],
            &[1e9, 1e9],
            &LocalSearchConfig::default()
        )
        .is_none());
    }

    #[test]
    fn local_search_deterministic_per_seed() {
        let (apps, pf) = section2_example();
        let cfg = LocalSearchConfig { iterations: 500, seed: 7, ..Default::default() };
        let a = local_search(&apps, &pf, CommModel::Overlap, &[2.0, 2.0], &[1e9, 1e9], &cfg)
            .unwrap();
        let b = local_search(&apps, &pf, CommModel::Overlap, &[2.0, 2.0], &[1e9, 1e9], &cfg)
            .unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.objective, b.objective);
    }
}
