//! Algorithm 2 of the paper: incremental processor allocation across
//! concurrent applications on fully homogeneous platforms.
//!
//! The algorithm assigns one processor to each application, then hands the
//! remaining `p − A` processors one by one to the application whose weighted
//! objective `W_a · f_a(q_a)` is currently largest. The paper proves (proof
//! of Theorem 3) that this greedy is optimal whenever each per-application
//! objective `f_a(q)` is non-increasing in the number of processors `q` —
//! which holds for the period (Theorem 3), the latency under period bounds
//! (Theorem 16) and the period under latency bounds (Theorem 24).
//!
//! The allocator is generic over the per-application oracle so every
//! multi-application solver in this crate reuses it.

use cpo_model::num;

/// Result of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// `procs[a]` = number of processors granted to application `a` (≥ 1).
    pub procs: Vec<usize>,
    /// The achieved objective `max_a W_a · f_a(procs[a])`.
    pub objective: f64,
}

/// Run Algorithm 2.
///
/// * `a_count` — number of applications `A`;
/// * `p` — number of available processors (must satisfy `p ≥ A`);
/// * `weights` — the `W_a` of Eq. (6);
/// * `f(a, q)` — the per-application objective with `q` processors
///   (`+∞` allowed for infeasible; must be non-increasing in `q`).
///
/// Returns `None` when `p < a_count` (some application could not receive a
/// processor). An allocation whose objective is `+∞` (some application
/// infeasible even with all spare processors) is still returned so callers
/// can distinguish "no processors" from "infeasible thresholds".
pub fn allocate_processors(
    a_count: usize,
    p: usize,
    weights: &[f64],
    mut f: impl FnMut(usize, usize) -> f64,
) -> Option<Allocation> {
    assert_eq!(weights.len(), a_count, "one weight per application");
    if a_count == 0 || p < a_count {
        return None;
    }
    let mut procs = vec![1_usize; a_count];
    let mut value: Vec<f64> = (0..a_count).map(|a| weights[a] * f(a, 1)).collect();
    for _ in 0..(p - a_count) {
        // Application with the largest weighted objective.
        let amax = (0..a_count)
            .max_by(|&x, &y| value[x].partial_cmp(&value[y]).expect("no NaN objectives"))
            .expect("a_count > 0");
        if value[amax] == 0.0 {
            break; // nothing can improve further
        }
        procs[amax] += 1;
        value[amax] = weights[amax] * f(amax, procs[amax]);
    }
    let objective = value.iter().copied().fold(0.0, num::fmax);
    Some(Allocation { procs, objective })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive baseline over all processor distributions (compositions of at
    /// most `p` into `a_count` positive parts); used by tests to certify
    /// Algorithm 2's optimality.
    fn allocate_exhaustive(
        a_count: usize,
        p: usize,
        weights: &[f64],
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Option<Allocation> {
        if a_count == 0 || p < a_count {
            return None;
        }
        // Memoize f since compositions revisit the same (a, q).
        let mut cache = vec![vec![f64::NAN; p + 1]; a_count];
        let mut eval = move |a: usize, q: usize, cache: &mut Vec<Vec<f64>>| -> f64 {
            if cache[a][q].is_nan() {
                cache[a][q] = f(a, q);
            }
            cache[a][q]
        };
        let mut best: Option<Allocation> = None;
        let mut current = vec![1_usize; a_count];
        loop {
            let used: usize = current.iter().sum();
            if used <= p {
                let objective = (0..a_count)
                    .map(|a| weights[a] * eval(a, current[a], &mut cache))
                    .fold(0.0, num::fmax);
                if best.as_ref().is_none_or(|b| objective < b.objective) {
                    best = Some(Allocation { procs: current.clone(), objective });
                }
            }
            // Next composition with parts in [1, p].
            let mut i = 0;
            loop {
                if i == a_count {
                    return best;
                }
                current[i] += 1;
                if current.iter().sum::<usize>() <= p {
                    break;
                }
                current[i] = 1;
                i += 1;
            }
        }
    }

    /// A family of non-increasing step functions for testing.
    fn step(a: usize, q: usize) -> f64 {
        // app a needs about (a+1) procs to become cheap.
        let need = a + 1;
        if q >= need {
            1.0 / (q as f64)
        } else {
            10.0 * (need - q) as f64
        }
    }

    #[test]
    fn requires_one_proc_per_app() {
        assert!(allocate_processors(3, 2, &[1.0; 3], step).is_none());
        assert!(allocate_processors(0, 2, &[], step).is_none());
    }

    #[test]
    fn single_app_gets_everything_useful() {
        let alloc = allocate_processors(1, 5, &[1.0], |_, q| 10.0 / q as f64).unwrap();
        assert_eq!(alloc.procs, vec![5]);
        assert!((alloc.objective - 2.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_matches_exhaustive_on_step_functions() {
        for p in 2..=8 {
            let g = allocate_processors(2, p, &[1.0, 1.0], step).unwrap();
            let e = allocate_exhaustive(2, p, &[1.0, 1.0], step).unwrap();
            assert!(
                (g.objective - e.objective).abs() < 1e-12,
                "p={p}: greedy {} vs exhaustive {}",
                g.objective,
                e.objective
            );
        }
    }

    #[test]
    fn greedy_matches_exhaustive_on_random_monotone_functions() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..300 {
            let a_count = rng.gen_range(1..=4);
            let p = rng.gen_range(a_count..=9);
            // Random non-increasing tables per app.
            let tables: Vec<Vec<f64>> = (0..a_count)
                .map(|_| {
                    let mut v: Vec<f64> = (0..=p).map(|_| rng.gen_range(0.0..100.0)).collect();
                    v.sort_by(|x, y| y.partial_cmp(x).unwrap());
                    v
                })
                .collect();
            let weights: Vec<f64> = (0..a_count).map(|_| rng.gen_range(0.5..2.0)).collect();
            let f = |a: usize, q: usize| tables[a][q.min(p)];
            let g = allocate_processors(a_count, p, &weights, f).unwrap();
            let e = allocate_exhaustive(a_count, p, &weights, f).unwrap();
            assert!(
                (g.objective - e.objective).abs() < 1e-9,
                "trial {trial}: greedy {} vs exhaustive {}",
                g.objective,
                e.objective
            );
            assert!(g.procs.iter().sum::<usize>() <= p);
            assert!(g.procs.iter().all(|&q| q >= 1));
        }
    }

    #[test]
    fn infinite_objectives_survive() {
        // App 1 stays infeasible whatever happens.
        let f = |a: usize, q: usize| if a == 1 { f64::INFINITY } else { 1.0 / q as f64 };
        let alloc = allocate_processors(2, 5, &[1.0, 1.0], f).unwrap();
        assert!(alloc.objective.is_infinite());
        // Greedy keeps feeding the infeasible app — harmless for the max.
        assert_eq!(alloc.procs.iter().sum::<usize>(), 5);
    }

    #[test]
    fn weights_steer_the_allocation() {
        // Identical apps, but app 0 has weight 10: it should receive more
        // processors.
        let f = |_: usize, q: usize| 1.0 / q as f64;
        let alloc = allocate_processors(2, 6, &[10.0, 1.0], f).unwrap();
        assert!(alloc.procs[0] > alloc.procs[1]);
    }
}
