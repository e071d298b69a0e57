//! Exhaustive baselines.
//!
//! Every polynomial algorithm in this crate is *certified* against the
//! enumerators below on thousands of small random instances (the cell
//! table in `cpo_experiments::tables`, run by `cpo-experiments
//! table1|table2` and `tests/certification.rs` through the router's
//! `Plan::ExactEnumeration` arm), and the NP-hard cells of Tables 1 and 2 are
//! demonstrated by running them on reduction gadgets. The enumeration walks
//! all valid one-to-one or interval mappings (optionally all mode
//! selections) with symmetry breaking across interchangeable processors.

use crate::solution::{Criterion, MappingKind, Solution};
use cpo_model::num;
use cpo_model::prelude::*;

/// Which modes the enumeration explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedPolicy {
    /// Highest mode only — correct for performance-only problems
    /// (Section 4: without energy, processors run as fast as possible).
    MaxOnly,
    /// All modes — required whenever energy is involved.
    All,
}

/// Enumeration configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExactConfig {
    /// Mapping rule to enumerate.
    pub kind: MappingKind,
    /// Communication model used for evaluation.
    pub model: CommModel,
    /// Mode exploration policy.
    pub speed: SpeedPolicy,
}

struct Dfs<'a, F: FnMut(&Mapping)> {
    apps: &'a AppSet,
    platform: &'a Platform,
    cfg: ExactConfig,
    symmetry: bool,
    mapping: Mapping,
    used: Vec<bool>,
    visit: F,
}

impl<'a, F: FnMut(&Mapping)> Dfs<'a, F> {
    fn run(&mut self) {
        self.rec_app(0);
    }

    fn rec_app(&mut self, a: usize) {
        if a == self.apps.a() {
            (self.visit)(&self.mapping);
            return;
        }
        self.rec_stage(a, 0);
    }

    /// Processors equivalent to `u` for mapping purposes (identical speed
    /// set and static energy; only meaningful with homogeneous links).
    fn same_class(&self, u: usize, v: usize) -> bool {
        self.platform.procs[u] == self.platform.procs[v]
    }

    fn rec_stage(&mut self, a: usize, first: usize) {
        let n = self.apps.apps[a].n();
        if first == n {
            self.rec_app(a + 1);
            return;
        }
        let last_hi = match self.cfg.kind {
            MappingKind::OneToOne => first,
            MappingKind::Interval => n - 1,
        };
        for last in first..=last_hi {
            let mut reps: Vec<usize> = Vec::new();
            for u in 0..self.platform.p() {
                if self.used[u] {
                    continue;
                }
                if self.symmetry && reps.iter().any(|&r| self.same_class(r, u)) {
                    continue;
                }
                reps.push(u);
                let modes = match self.cfg.speed {
                    SpeedPolicy::MaxOnly => {
                        (self.platform.procs[u].modes() - 1)..self.platform.procs[u].modes()
                    }
                    SpeedPolicy::All => 0..self.platform.procs[u].modes(),
                };
                for mode in modes {
                    self.used[u] = true;
                    self.mapping.push(Interval::new(a, first, last), u, mode);
                    self.rec_stage(a, last + 1);
                    self.mapping.assignments.pop();
                    self.used[u] = false;
                }
            }
        }
    }
}

/// Enumerate every valid mapping under `cfg`, invoking `visit` on each.
///
/// Symmetry breaking (skipping interchangeable processors) is applied
/// automatically when the platform has homogeneous links, which reduces the
/// enumeration exponentially on fully homogeneous platforms without losing
/// any objective value.
fn for_each_mapping(
    apps: &AppSet,
    platform: &Platform,
    cfg: ExactConfig,
    visit: impl FnMut(&Mapping),
) {
    let symmetry = platform.has_homogeneous_links();
    let mut dfs = Dfs {
        apps,
        platform,
        cfg,
        symmetry,
        mapping: Mapping::new(),
        used: vec![false; platform.p()],
        visit,
    };
    dfs.run();
}

/// Exhaustively optimize `objective` subject to `thresholds`, returning the
/// best feasible mapping. Exponential — certification of small instances
/// only. Returns `None` when no valid mapping satisfies the thresholds.
pub fn exact_optimize(
    apps: &AppSet,
    platform: &Platform,
    cfg: ExactConfig,
    objective: Criterion,
    thresholds: &Thresholds,
) -> Option<Solution> {
    let ev = Evaluator::new(apps, platform);
    let mut best: Option<Solution> = None;
    for_each_mapping(apps, platform, cfg, |mapping| {
        let e = ev.evaluate(mapping, cfg.model);
        if !thresholds.satisfied_by(&e.periods, &e.latencies, e.energy) {
            return;
        }
        let value = match objective {
            Criterion::Period => e.period,
            Criterion::Latency => e.latency,
            Criterion::Energy => e.energy,
        };
        if best.as_ref().is_none_or(|b| num::lt(value, b.objective)) {
            best = Some(Solution::new(mapping.clone(), value));
        }
    });
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Count the mappings `for_each_mapping` would visit (diagnostics).
    fn count_mappings(apps: &AppSet, platform: &Platform, cfg: ExactConfig) -> u64 {
        let mut count = 0u64;
        for_each_mapping(apps, platform, cfg, |_| count += 1);
        count
    }
    use cpo_model::application::Application;
    use cpo_model::generator::section2_example;

    #[test]
    fn counts_are_sane_for_tiny_instances() {
        // One app, 2 stages, 2 identical uni-modal procs, uniform links.
        let apps = AppSet::single(Application::from_pairs(0.0, &[(1.0, 0.0), (1.0, 0.0)]));
        let pf = Platform::fully_homogeneous(2, vec![1.0], 1.0).unwrap();
        let cfg = ExactConfig {
            kind: MappingKind::Interval,
            model: CommModel::Overlap,
            speed: SpeedPolicy::MaxOnly,
        };
        // Partitions: [0,1] on one proc (1 class) or [0][1] on two procs
        // (1 symmetric choice) → 2.
        assert_eq!(count_mappings(&apps, &pf, cfg), 2);
        let cfg11 = ExactConfig { kind: MappingKind::OneToOne, ..cfg };
        assert_eq!(count_mappings(&apps, &pf, cfg11), 1);
    }

    #[test]
    fn symmetry_breaking_preserves_optimum() {
        let apps = AppSet::single(Application::from_pairs(1.0, &[(4.0, 2.0), (4.0, 1.0)]));
        // Two *distinct* processors: no symmetry.
        let pf_het = Platform::comm_homogeneous(
            vec![
                cpo_model::platform::Processor::uni_modal(2.0).unwrap(),
                cpo_model::platform::Processor::uni_modal(4.0).unwrap(),
            ],
            1.0,
        )
        .unwrap();
        let cfg = ExactConfig {
            kind: MappingKind::Interval,
            model: CommModel::Overlap,
            speed: SpeedPolicy::MaxOnly,
        };
        let het = exact_optimize(&apps, &pf_het, cfg, Criterion::Period, &Thresholds::none())
            .unwrap();
        // Identical twin platform (both speed 4): symmetric enumeration must
        // still find the same optimum as manual reasoning: single interval
        // on speed-4 proc → max(1/1, 8/4, 1/1) = 2.
        let pf_hom = Platform::fully_homogeneous(2, vec![4.0], 1.0).unwrap();
        let hom = exact_optimize(&apps, &pf_hom, cfg, Criterion::Period, &Thresholds::none())
            .unwrap();
        assert!((hom.objective - 2.0).abs() < 1e-9);
        assert!(het.objective <= 2.0 + 1e-9);
    }

    #[test]
    fn section2_period_1_found_exhaustively() {
        let (apps, pf) = section2_example();
        let cfg = ExactConfig {
            kind: MappingKind::Interval,
            model: CommModel::Overlap,
            speed: SpeedPolicy::MaxOnly,
        };
        let sol = exact_optimize(&apps, &pf, cfg, Criterion::Period, &Thresholds::none()).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn section2_min_energy_10() {
        let (apps, pf) = section2_example();
        let cfg = ExactConfig {
            kind: MappingKind::Interval,
            model: CommModel::Overlap,
            speed: SpeedPolicy::All,
        };
        let sol = exact_optimize(&apps, &pf, cfg, Criterion::Energy, &Thresholds::none()).unwrap();
        // Section 2: minimum energy 3² + 1² = 10.
        assert!((sol.objective - 10.0).abs() < 1e-9);
    }

    #[test]
    fn section2_energy_under_period_2_is_46() {
        let (apps, pf) = section2_example();
        let cfg = ExactConfig {
            kind: MappingKind::Interval,
            model: CommModel::Overlap,
            speed: SpeedPolicy::All,
        };
        let th = Thresholds::uniform_period(2.0, 2);
        let sol = exact_optimize(&apps, &pf, cfg, Criterion::Energy, &th).unwrap();
        assert!((sol.objective - 46.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_thresholds_give_none() {
        let (apps, pf) = section2_example();
        let cfg = ExactConfig {
            kind: MappingKind::Interval,
            model: CommModel::Overlap,
            speed: SpeedPolicy::All,
        };
        let th = Thresholds::uniform_period(0.01, 2);
        assert!(exact_optimize(&apps, &pf, cfg, Criterion::Energy, &th).is_none());
    }

    #[test]
    fn one_to_one_requires_enough_processors() {
        // 3 stages, 2 procs: no valid one-to-one mapping exists.
        let apps = AppSet::single(Application::from_pairs(0.0, &[(1.0, 0.0); 3]));
        let pf = Platform::fully_homogeneous(2, vec![1.0], 1.0).unwrap();
        let cfg = ExactConfig {
            kind: MappingKind::OneToOne,
            model: CommModel::Overlap,
            speed: SpeedPolicy::MaxOnly,
        };
        assert_eq!(count_mappings(&apps, &pf, cfg), 0);
        assert!(exact_optimize(&apps, &pf, cfg, Criterion::Period, &Thresholds::none()).is_none());
    }
}
