//! Theorems 26 and 27 — tri-criteria optimization with **multi-modal**
//! processors.
//!
//! The paper proves the problem NP-hard even for a single application on a
//! fully homogeneous platform without communications, via a 2-PARTITION
//! gadget. This module provides the exact reference solver: a
//! branch-and-bound that minimizes total energy under per-application
//! period and latency bounds, exploring interval (or one-to-one) mappings
//! and all mode selections, with
//!
//! * energy-based pruning (partial energy + one cheapest processor per
//!   unfinished application ≥ incumbent),
//! * threshold-based pruning (partial latency already above the bound, or
//!   an interval cycle-time above the period bound),
//! * symmetry breaking across interchangeable processors.
//!
//! On gadget instances its runtime grows exponentially with the number of
//! items — which is exactly the empirical signature of Theorem 26 that the
//! benches record.

use crate::solution::{MappingKind, Solution};
use cpo_model::num;
use cpo_model::prelude::*;

struct Bnb<'a> {
    apps: &'a AppSet,
    platform: &'a Platform,
    model: CommModel,
    kind: MappingKind,
    period_bounds: &'a [f64],
    latency_bounds: &'a [f64],
    energy: EnergyModel,
    symmetry: bool,
    cheapest_proc: f64,
    used: Vec<bool>,
    mapping: Mapping,
    /// Latency accumulated for the application under construction.
    partial_latency: f64,
    partial_energy: f64,
    best: Option<Solution>,
    /// Search-tree nodes visited (exported for the scaling experiments).
    nodes: u64,
}

impl<'a> Bnb<'a> {
    fn incumbent(&self) -> f64 {
        self.best.as_ref().map_or(f64::INFINITY, |s| s.objective)
    }

    /// Optimistic outgoing bandwidth from `u` for application `a` (the
    /// next interval's processor is not chosen yet).
    fn optimistic_out_bw(&self, a: usize, u: usize) -> f64 {
        match &self.platform.links {
            cpo_model::platform::Links::Uniform(b) => *b,
            cpo_model::platform::Links::PerApp(bs) => bs[a],
            cpo_model::platform::Links::Heterogeneous { inter, output, .. } => inter[u]
                .iter()
                .copied()
                .chain(std::iter::once(output[a][u]))
                .fold(0.0, num::fmax),
        }
    }

    fn rec_app(&mut self, a: usize) {
        if a == self.apps.a() {
            // Complete mapping: exact evaluation.
            let ev = Evaluator::new(self.apps, self.platform);
            let e = ev.evaluate(&self.mapping, self.model);
            let ok = e
                .periods
                .iter()
                .zip(self.period_bounds)
                .all(|(t, b)| num::le(*t, *b))
                && e.latencies
                    .iter()
                    .zip(self.latency_bounds)
                    .all(|(l, b)| num::le(*l, *b));
            if ok && num::lt(e.energy, self.incumbent()) {
                self.best = Some(Solution::new(self.mapping.clone(), e.energy));
            }
            return;
        }
        self.partial_latency = 0.0;
        self.rec_stage(a, 0);
    }

    fn rec_stage(&mut self, a: usize, first: usize) {
        self.nodes += 1;
        let app = &self.apps.apps[a];
        let n = app.n();
        if first == n {
            let saved = self.partial_latency;
            self.rec_app(a + 1);
            self.partial_latency = saved;
            return;
        }
        // Energy bound: every app from a+1 on still needs ≥ 1 processor,
        // and the current app needs ≥ 1 more (this interval).
        let remaining = (self.apps.a() - a) as f64;
        if num::ge(self.partial_energy + remaining * self.cheapest_proc, self.incumbent()) {
            return;
        }
        let last_hi = match self.kind {
            MappingKind::OneToOne => first,
            MappingKind::Interval => n - 1,
        };
        for last in first..=last_hi {
            let work = app.interval_work(first, last);
            let mut reps: Vec<usize> = Vec::new();
            for u in 0..self.platform.p() {
                if self.used[u] {
                    continue;
                }
                if self.symmetry
                    && reps.iter().any(|&r| self.platform.procs[r] == self.platform.procs[u])
                {
                    continue;
                }
                reps.push(u);
                // Topology-aware edge times; on `Dedicated` platforms these
                // are exactly the historical `δ / bw` divisions, bit for
                // bit. On `Multistage` the interior edges carry the fabric
                // traversal overhead — consecutive intervals always sit on
                // distinct processors, so the overhead applies exactly and
                // the prune stays admissible (never an overestimate).
                let incoming = if first == 0 {
                    self.platform.transfer_time_input(a, u, app.input_of(first))
                } else {
                    let prev = self
                        .mapping
                        .assignments
                        .last()
                        .expect("previous interval exists")
                        .proc;
                    self.platform.transfer_time_inter(a, prev, u, app.input_of(first))
                };
                let out_opt = if self.platform.is_multistage() {
                    if last + 1 == n {
                        self.platform.transfer_time_output(a, u, app.output_of(last))
                    } else {
                        // The successor processor is not chosen yet, but on
                        // a multistage fabric every inter-processor edge
                        // costs the same regardless of the endpoints.
                        self.platform.transfer_time_inter(a, u, u, app.output_of(last))
                    }
                } else {
                    app.output_of(last) / self.optimistic_out_bw(a, u)
                };
                let proc = &self.platform.procs[u];
                for mode in 0..proc.modes() {
                    let speed = proc.speed(mode);
                    let compute = work / speed;
                    // Period prune (optimistic on the outgoing edge).
                    let cycle = self.model.combine(incoming, compute, out_opt);
                    if !num::le(cycle, self.period_bounds[a]) {
                        continue;
                    }
                    // Latency prune (optimistic: remaining stages free).
                    let lat_add =
                        if first == 0 { incoming } else { 0.0 } + compute + out_opt;
                    if !num::le(self.partial_latency + lat_add, self.latency_bounds[a]) {
                        continue;
                    }
                    // Energy prune.
                    let e_add = self.energy.proc_energy(self.platform, u, mode);
                    let rem_after = (self.apps.a() - a - 1) as f64;
                    if num::ge(
                        self.partial_energy + e_add + rem_after * self.cheapest_proc,
                        self.incumbent(),
                    ) {
                        continue;
                    }
                    self.used[u] = true;
                    self.mapping.push(Interval::new(a, first, last), u, mode);
                    self.partial_energy += e_add;
                    let saved_lat = self.partial_latency;
                    self.partial_latency += lat_add;
                    self.rec_stage(a, last + 1);
                    self.partial_latency = saved_lat;
                    self.partial_energy -= e_add;
                    self.mapping.assignments.pop();
                    self.used[u] = false;
                }
            }
        }
    }
}

/// Exact tri-criteria solver: minimize the total energy subject to
/// per-application period and latency bounds. Exponential in the worst
/// case (the problem is NP-hard, Theorems 26/27); practical for small
/// instances thanks to pruning and symmetry breaking.
///
/// Returns `(solution, visited nodes)`; the node count is the empirical
/// hardness signal used by the gadget experiments.
pub fn branch_and_bound_tri_counted(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    kind: MappingKind,
    period_bounds: &[f64],
    latency_bounds: &[f64],
) -> (Option<Solution>, u64) {
    assert_eq!(period_bounds.len(), apps.a());
    assert_eq!(latency_bounds.len(), apps.a());
    let energy = EnergyModel::default();
    let cheapest_proc = (0..platform.p())
        .map(|u| platform.procs[u].e_stat + energy.dynamic(platform.procs[u].min_speed()))
        .fold(f64::INFINITY, num::fmin);
    let mut bnb = Bnb {
        apps,
        platform,
        model,
        kind,
        period_bounds,
        latency_bounds,
        energy,
        symmetry: platform.has_homogeneous_links(),
        cheapest_proc,
        used: vec![false; platform.p()],
        mapping: Mapping::new(),
        partial_latency: 0.0,
        partial_energy: 0.0,
        best: None,
        nodes: 0,
    };
    bnb.rec_app(0);
    (bnb.best, bnb.nodes)
}

/// Tri-criteria feasibility: does a mapping with period, latency and energy
/// all within bounds exist?
pub fn tri_feasible(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    kind: MappingKind,
    period_bounds: &[f64],
    latency_bounds: &[f64],
    energy_budget: f64,
) -> bool {
    branch_and_bound_tri_counted(apps, platform, model, kind, period_bounds, latency_bounds).0
        .map(|s| num::le(s.objective, energy_budget))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_optimize, ExactConfig, SpeedPolicy};
    use cpo_model::application::Application;
    use cpo_model::generator::section2_example;

    #[test]
    fn matches_exhaustive_on_section2() {
        let (apps, pf) = section2_example();
        for (tb, lb) in [(2.0, 1e9), (14.0, 1e9), (2.0, 6.0), (1.0, 4.0)] {
            let bnb = branch_and_bound_tri_counted(
                &apps,
                &pf,
                CommModel::Overlap,
                MappingKind::Interval,
                &[tb, tb],
                &[lb, lb],
            )
            .0;
            let cfg = ExactConfig {
                kind: MappingKind::Interval,
                model: CommModel::Overlap,
                speed: SpeedPolicy::All,
            };
            let th = Thresholds::none()
                .with_period(vec![tb, tb])
                .with_latency(vec![lb, lb]);
            let brute = exact_optimize(&apps, &pf, cfg, crate::Criterion::Energy, &th);
            match (bnb, brute) {
                (None, None) => {}
                (Some(x), Some(y)) => assert!(
                    (x.objective - y.objective).abs() < 1e-9,
                    "tb={tb} lb={lb}: {} vs {}",
                    x.objective,
                    y.objective
                ),
                other => panic!("feasibility mismatch at tb={tb} lb={lb}: {other:?}"),
            }
        }
    }

    #[test]
    fn section2_compromise_found() {
        let (apps, pf) = section2_example();
        let sol = branch_and_bound_tri_counted(
            &apps,
            &pf,
            CommModel::Overlap,
            MappingKind::Interval,
            &[2.0, 2.0],
            &[1e9, 1e9],
        )
        .0
        .unwrap();
        assert!((sol.objective - 46.0).abs() < 1e-9);
    }

    #[test]
    fn one_to_one_mode() {
        let apps = AppSet::single(Application::from_pairs(0.0, &[(4.0, 0.0), (2.0, 0.0)]));
        let pf = Platform::fully_homogeneous(2, vec![1.0, 2.0, 4.0], 1.0).unwrap();
        let sol = branch_and_bound_tri_counted(
            &apps,
            &pf,
            CommModel::Overlap,
            MappingKind::OneToOne,
            &[2.0],
            &[1e9],
        )
        .0
        .unwrap();
        assert!(sol.mapping.is_one_to_one());
        // Stage 4 needs speed 2 (energy 4), stage 2 needs speed 1 (1) → 5.
        assert!((sol.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_bounds() {
        let apps = AppSet::single(Application::from_pairs(0.0, &[(4.0, 0.0)]));
        let pf = Platform::fully_homogeneous(1, vec![1.0, 2.0], 1.0).unwrap();
        assert!(branch_and_bound_tri_counted(
            &apps,
            &pf,
            CommModel::Overlap,
            MappingKind::Interval,
            &[1.0],
            &[1e9]
        )
        .0
        .is_none());
        assert!(!tri_feasible(
            &apps,
            &pf,
            CommModel::Overlap,
            MappingKind::Interval,
            &[2.0],
            &[1e9],
            0.5
        ));
        assert!(tri_feasible(
            &apps,
            &pf,
            CommModel::Overlap,
            MappingKind::Interval,
            &[2.0],
            &[1e9],
            4.0
        ));
    }

    #[test]
    fn node_count_grows_with_items() {
        // Crude scaling sanity: a 3-stage gadget explores more nodes than a
        // 2-stage one.
        use cpo_model::gadgets::{theorem26_encode, TwoPartition};
        let g2 = theorem26_encode(&TwoPartition::yes_instance(2, 1));
        let g3 = theorem26_encode(&TwoPartition::yes_instance(3, 1));
        let (_, n2) = branch_and_bound_tri_counted(
            &g2.apps,
            &g2.platform,
            CommModel::Overlap,
            MappingKind::OneToOne,
            &[g2.target_period],
            &[g2.target_latency],
        );
        let (_, n3) = branch_and_bound_tri_counted(
            &g3.apps,
            &g3.platform,
            CommModel::Overlap,
            MappingKind::OneToOne,
            &[g3.target_period],
            &[g3.target_latency],
        );
        assert!(n3 > n2);
    }
}
