//! Theorems 18, 19 and 21 — bi-criteria period/energy.
//!
//! * **Theorem 19** (one-to-one, communication homogeneous, multi-modal):
//!   build the bipartite graph stages × processors where the edge weight is
//!   the energy of the *slowest* mode meeting the stage's period bound
//!   (`∞` if none), then compute a minimum-weight matching — here with the
//!   from-scratch Hungarian algorithm of `cpo-matching`.
//! * **Theorem 18** (interval, fully homogeneous, single application):
//!   dynamic program `E(i, j, k)` with per-interval cheapest feasible mode
//!   ([`crate::dp::energy_dp`]).
//! * **Theorem 21** (interval, fully homogeneous, many applications):
//!   convolution `E(a, k) = min_q (E_a^q + E(a−1, k−q))` over the
//!   per-application tables.
//!
//! Each solver has one core taking prebuilt cost tables
//! ([`StageCostTable`], [`crate::dp::IntervalCostTable`]) plus reusable
//! workspaces, which the Pareto sweep engine calls once per candidate
//! period without re-deriving any per-instance constant, and one one-shot
//! entry point that builds the tables ([`min_energy_one_to_one_matching`],
//! [`min_energy_interval_fully_hom`]).

use crate::dp::{energy_dp, DpWorkspace, IntervalCostTable};
use crate::mono::period_interval::mapping_from_partitions;
use crate::solution::Solution;
use cpo_matching::{CostMatrix, HungarianWorkspace};
use cpo_model::num;
use cpo_model::prelude::*;

// ---------------------------------------------------------------------------
// Theorem 19 — one-to-one matching
// ---------------------------------------------------------------------------

/// Precomputed stage × processor cost table for the Theorem 19 matching:
/// every `cycle(stage, proc, mode)` and per-(proc, mode) energy, so that a
/// sweep re-solving the matching under many period bounds only binary
/// searches precomputed rows instead of recomputing `O(N·p·modes)`
/// cycle-times per candidate.
#[derive(Debug, Clone)]
pub struct StageCostTable {
    p: usize,
    /// Global stage index → `(application, stage)`.
    stage_ids: Vec<(usize, usize)>,
    /// Application weights `W_a` (for global-period candidate scaling).
    weights: Vec<f64>,
    /// `proc_off[u] .. proc_off[u + 1]` = mode slots of processor `u`.
    proc_off: Vec<usize>,
    /// `cycle[row * total_modes + proc_off[u] + m]`.
    cycle: Vec<f64>,
    /// `mode_energy[proc_off[u] + m]` = `E_stat(u) + s_{u,m}^α`.
    mode_energy: Vec<f64>,
    total_modes: usize,
}

impl StageCostTable {
    /// Build the table. Returns `None` when the links are heterogeneous
    /// (NP-hard then, Theorem 20) or `p < N` (no one-to-one mapping
    /// exists).
    pub fn build(apps: &AppSet, platform: &Platform, model: CommModel) -> Option<Self> {
        let n_total = apps.total_stages();
        let p = platform.p();
        if p < n_total {
            return None;
        }
        let energy = EnergyModel::default();
        let mut proc_off = Vec::with_capacity(p + 1);
        let mut mode_energy = Vec::new();
        let mut off = 0usize;
        for u in 0..p {
            proc_off.push(off);
            let proc = &platform.procs[u];
            for m in 0..proc.modes() {
                mode_energy.push(energy.proc_energy(platform, u, m));
            }
            off += proc.modes();
        }
        proc_off.push(off);
        let total_modes = off;

        let mut stage_ids = Vec::with_capacity(n_total);
        let mut cycle = Vec::with_capacity(n_total * total_modes);
        for (a, app) in apps.apps.iter().enumerate() {
            let comm = platform.uniform_comm(a)?;
            let n = app.n();
            for k in 0..n {
                let incoming = if k == 0 {
                    comm.io_time(app.input_of(k))
                } else {
                    comm.inter_time(app.input_of(k))
                };
                let outgoing = if k + 1 == n {
                    comm.io_time(app.output_of(k))
                } else {
                    comm.inter_time(app.output_of(k))
                };
                for u in 0..p {
                    let proc = &platform.procs[u];
                    for m in 0..proc.modes() {
                        cycle.push(model.combine(
                            incoming,
                            app.stages[k].work / proc.speed(m),
                            outgoing,
                        ));
                    }
                }
                stage_ids.push((a, k));
            }
        }
        let weights = apps.apps.iter().map(|a| a.weight).collect();
        Some(StageCostTable { p, stage_ids, weights, proc_off, cycle, mode_energy, total_modes })
    }

    /// Number of rows (total stages `N`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.stage_ids.len()
    }

    /// `(application, stage)` of a row.
    #[inline]
    pub fn stage_id(&self, row: usize) -> (usize, usize) {
        self.stage_ids[row]
    }

    /// Slowest (= cheapest, since `α > 1`) mode of processor `u` meeting
    /// `bound` for `row`'s stage, by partition-point binary search over the
    /// descending precomputed cycle-times.
    pub fn feasible_mode(&self, row: usize, u: usize, bound: f64) -> Option<usize> {
        let base = row * self.total_modes;
        let slot = &self.cycle[base + self.proc_off[u]..base + self.proc_off[u + 1]];
        let m = slot.partition_point(|&c| !num::le(c, bound));
        (m < slot.len()).then_some(m)
    }

    /// Fill the stages × processors energy matrix for the given
    /// per-application period bounds into a flat [`CostMatrix`] arena
    /// (no per-row allocation; the buffer is reused across candidates).
    pub fn fill_matrix(&self, period_bounds: &[f64], matrix: &mut CostMatrix) {
        matrix.reset(self.rows(), self.p);
        for row in 0..self.rows() {
            let (a, _) = self.stage_ids[row];
            let bound = period_bounds[a];
            let out = matrix.row_mut(row);
            for (u, slot) in out.iter_mut().enumerate() {
                *slot = self
                    .feasible_mode(row, u, bound)
                    .map(|m| self.mode_energy[self.proc_off[u] + m])
                    .unwrap_or(f64::INFINITY);
            }
        }
    }

    /// All candidate *global weighted* period values: `W_a ×` every
    /// stage × processor × mode cycle-time, sorted and deduplicated.
    pub fn candidates(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows() * self.total_modes);
        for (row, &(a, _)) in self.stage_ids.iter().enumerate() {
            let w = self.weights[a];
            let base = row * self.total_modes;
            out.extend(self.cycle[base..base + self.total_modes].iter().map(|&c| w * c));
        }
        num::sorted_candidates(out)
    }
}

/// Theorem 19: minimize total energy with a one-to-one mapping on a
/// communication homogeneous platform, subject to per-application period
/// bounds. Polynomial (Hungarian algorithm, `O(N²·p)`).
///
/// Returns `None` when `p < N`, links are heterogeneous (NP-hard then,
/// Theorem 20) or no feasible matching exists.
pub fn min_energy_one_to_one_matching(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    period_bounds: &[f64],
) -> Option<Solution> {
    let table = StageCostTable::build(apps, platform, model)?;
    let mut workspace = HungarianWorkspace::new();
    let mut matrix = CostMatrix::new();
    min_energy_one_to_one_with_table(apps, platform, &table, period_bounds, &mut workspace, &mut matrix)
}

/// [`min_energy_one_to_one_matching`] on a prebuilt [`StageCostTable`] with
/// reusable Hungarian workspace and flat cost-matrix arena — the
/// per-candidate form of a Pareto sweep (no allocations beyond the returned
/// mapping).
pub(crate) fn min_energy_one_to_one_with_table(
    apps: &AppSet,
    platform: &Platform,
    table: &StageCostTable,
    period_bounds: &[f64],
    workspace: &mut HungarianWorkspace,
    matrix: &mut CostMatrix,
) -> Option<Solution> {
    assert_eq!(period_bounds.len(), apps.a(), "one period bound per application");
    table.fill_matrix(period_bounds, matrix);
    let result = workspace.solve_flat(matrix)?;
    let mut mapping = Mapping::new();
    for row in 0..table.rows() {
        let (a, k) = table.stage_id(row);
        let u = result.row_to_col[row];
        // Recover the selected mode: the cheapest feasible one.
        let mode = table.feasible_mode(row, u, period_bounds[a]).expect("matched edge is feasible");
        mapping.push(Interval::new(a, k, k), u, mode);
    }
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let achieved = Evaluator::new(apps, platform).energy(&mapping);
    debug_assert!(num::approx_eq(achieved, result.cost));
    Some(Solution::new(mapping, achieved))
}

// ---------------------------------------------------------------------------
// Theorems 18 + 21 — interval DP + convolution
// ---------------------------------------------------------------------------

/// Theorems 18 + 21: minimize total energy with an interval mapping on a
/// fully homogeneous multi-modal platform, subject to per-application
/// period bounds. `O(A·n³·p²)` as in the paper.
pub fn min_energy_interval_fully_hom(
    apps: &AppSet,
    platform: &Platform,
    model: CommModel,
    period_bounds: &[f64],
) -> Option<Solution> {
    let tables = crate::bi::energy_cost_tables(apps, platform, model)?;
    min_energy_interval_scratch(apps, platform, &tables, period_bounds, &mut DpWorkspace::new())
}

/// [`min_energy_interval_fully_hom`] on prebuilt per-application
/// [`IntervalCostTable`]s and a reusable [`DpWorkspace`] — the
/// per-candidate form of a Pareto sweep: the Theorem 18 DPs, the Theorem 21
/// convolution and the single-interval cost rows all live in flat arenas
/// reused across candidates (zero allocation besides the returned mapping).
pub(crate) fn min_energy_interval_scratch(
    apps: &AppSet,
    platform: &Platform,
    tables: &[IntervalCostTable],
    period_bounds: &[f64],
    workspace: &mut DpWorkspace,
) -> Option<Solution> {
    assert_eq!(period_bounds.len(), apps.a(), "one period bound per application");
    let p = platform.p();
    let a_count = apps.a();
    if p < a_count {
        return None;
    }
    let qmax = p - a_count + 1;

    // Per-application tables E_a^q (exactly q processors), each in its own
    // persistent scratch (mode frontiers survive across candidates).
    for (a, (table, &tb)) in tables.iter().zip(period_bounds).enumerate() {
        energy_dp(table, tb, qmax, workspace.app_scratch(a));
    }
    let DpWorkspace { per_app, conv_e, conv_choice, .. } = workspace;
    let per_app = &*per_app;
    let (e_best, counts) =
        convolve_energies(a_count, p, |a| per_app[a].energy_exact_k(), conv_e, conv_choice)?;
    let partitions: Vec<_> = (0..a_count)
        .map(|a| per_app[a].energy_partition_exact(counts[a]).expect("finite energy"))
        .collect();
    let mapping = mapping_from_partitions(&partitions);
    debug_assert!(mapping.validate(apps, platform).is_ok());
    let achieved = Evaluator::new(apps, platform).energy(&mapping);
    debug_assert!(num::approx_eq(achieved, e_best));
    Some(Solution::new(mapping, achieved))
}

/// Theorem 21 convolution `E(a, k) = min_q (E_a^q + E(a−1, k−q))` over
/// `exact_k(a)[q-1]`, the energy of application `a` on exactly `q`
/// processors, for `p` processors in all; `e` and `choice` are reusable
/// flat buffers. Returns the minimum total energy and the processor count
/// of each application realizing it, `None` when no combination is finite.
pub(crate) fn convolve_energies<'t>(
    a_count: usize,
    p: usize,
    exact_k: impl Fn(usize) -> &'t [f64],
    e: &mut Vec<f64>,
    choice: &mut Vec<u32>,
) -> Option<(f64, Vec<usize>)> {
    let inf = f64::INFINITY;
    let stride = p + 1;
    e.clear();
    e.resize((a_count + 1) * stride, inf);
    choice.clear();
    choice.resize((a_count + 1) * stride, u32::MAX);
    e[0] = 0.0;
    for a in 1..=a_count {
        let exact_k = exact_k(a - 1);
        for k in a..=p {
            let mut best = inf;
            let mut arg = u32::MAX;
            let qcap = exact_k.len().min(k - (a - 1));
            for q in 1..=qcap {
                let prev = e[(a - 1) * stride + k - q];
                let cur = exact_k[q - 1];
                if prev.is_finite() && cur.is_finite() && prev + cur < best {
                    best = prev + cur;
                    arg = q as u32;
                }
            }
            e[a * stride + k] = best;
            choice[a * stride + k] = arg;
        }
    }
    let (k_best, &e_best) = e[a_count * stride..(a_count + 1) * stride]
        .iter()
        .enumerate()
        .min_by(|(_, x), (_, y)| x.partial_cmp(y).expect("no NaN"))?;
    if !e_best.is_finite() {
        return None;
    }
    let mut counts = vec![0usize; a_count];
    let mut k = k_best;
    for a in (1..=a_count).rev() {
        let q = choice[a * stride + k] as usize;
        counts[a - 1] = q;
        k -= q;
    }
    Some((e_best, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::application::Application;
    use cpo_model::generator::section2_example;

    #[test]
    fn section2_energy_under_period_2() {
        // The Section 2 compromise: period ≤ 2 per application costs
        // energy 46 (3² + 6² + 1²) with an interval mapping. The platform
        // there is *not* fully homogeneous, so exercise the matching-based
        // one-to-one on the real platform via exact later; here check the
        // DP on the homogenized version.
        let (apps, _) = section2_example();
        let pf = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
        let sol =
            min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &[2.0, 2.0]).unwrap();
        let ev = Evaluator::new(&apps, &pf);
        assert!(ev.app_period(&sol.mapping, 0, CommModel::Overlap) <= 2.0 + 1e-9);
        assert!(ev.app_period(&sol.mapping, 1, CommModel::Overlap) <= 2.0 + 1e-9);
        // App1 (work 6) on one proc at speed 3 → 9; app2 (work 14) needs a
        // split: [2+6]@6, [4+2]@3 → 36 + 9 = 45, or [2+6+4]@6, [2]@1 → 37.
        // Best total: 9 + 37 = 46.
        assert!((sol.objective - 46.0).abs() < 1e-9);
    }

    #[test]
    fn matching_handles_multi_modal_choice() {
        // One 2-stage app; two processors; bound forces fast mode on the
        // heavy stage only.
        let apps = AppSet::single(Application::from_pairs(0.0, &[(8.0, 0.0), (2.0, 0.0)]));
        let pf = Platform::comm_homogeneous(
            vec![
                cpo_model::platform::Processor::new(vec![1.0, 4.0]).unwrap(),
                cpo_model::platform::Processor::new(vec![1.0, 4.0]).unwrap(),
            ],
            1.0,
        )
        .unwrap();
        let sol =
            min_energy_one_to_one_matching(&apps, &pf, CommModel::Overlap, &[2.0]).unwrap();
        // Stage 8 needs speed 4 (16); stage 2 runs at 1 (1). Total 17.
        assert!((sol.objective - 17.0).abs() < 1e-9);
        assert!(sol.mapping.is_one_to_one());
    }

    #[test]
    fn matching_infeasible_bound() {
        let apps = AppSet::single(Application::from_pairs(0.0, &[(8.0, 0.0)]));
        let pf = Platform::comm_homogeneous(
            vec![cpo_model::platform::Processor::new(vec![1.0]).unwrap()],
            1.0,
        )
        .unwrap();
        assert!(min_energy_one_to_one_matching(&apps, &pf, CommModel::Overlap, &[1.0]).is_none());
    }

    #[test]
    fn stage_cost_table_reuse_matches_one_shot() {
        // Sweep form (shared table + workspace) must reproduce the one-shot
        // solver bound-for-bound, including infeasible bounds.
        let (apps, pf) = section2_example();
        let mut procs = pf.procs.clone();
        for _ in 0..4 {
            procs.push(cpo_model::platform::Processor::new(vec![2.0, 5.0]).unwrap());
        }
        let pf = Platform::comm_homogeneous(procs, 1.0).unwrap();
        let table = StageCostTable::build(&apps, &pf, CommModel::Overlap).unwrap();
        let mut ws = HungarianWorkspace::new();
        let mut matrix = CostMatrix::new();
        for tb in [0.2, 0.5, 1.0, 2.0, 3.0, 7.0, 14.0] {
            let bounds = [tb, tb];
            let one_shot =
                min_energy_one_to_one_matching(&apps, &pf, CommModel::Overlap, &bounds);
            let swept = min_energy_one_to_one_with_table(
                &apps, &pf, &table, &bounds, &mut ws, &mut matrix,
            );
            match (one_shot, swept) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.objective, b.objective, "bound {tb}");
                    assert_eq!(a.mapping, b.mapping, "bound {tb}");
                }
                other => panic!("feasibility mismatch at {tb}: {other:?}"),
            }
        }
    }

    #[test]
    fn stage_cost_table_candidates_are_weighted_cycles() {
        let (mut apps, pf) = section2_example();
        apps.apps[0].weight = 3.0;
        // Section 2 has 7 stages and 3 processors: extend to 7 procs.
        let mut procs = pf.procs.clone();
        for _ in 0..4 {
            procs.push(cpo_model::platform::Processor::new(vec![2.0, 5.0]).unwrap());
        }
        let pf = Platform::comm_homogeneous(procs, 1.0).unwrap();
        let table = StageCostTable::build(&apps, &pf, CommModel::Overlap).unwrap();
        let cands = table.candidates();
        assert!(!cands.is_empty());
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
        // Spot-check: stage (0, 0) on proc 0 mode 0 — weighted cycle present.
        let c = 3.0
            * CommModel::Overlap.combine(1.0 / 1.0, 3.0 / 3.0, 3.0 / 1.0);
        assert!(cands.iter().any(|&x| (x - c).abs() < 1e-12));
    }

    #[test]
    fn interval_dp_spends_energy_only_when_needed() {
        let apps = AppSet::new(vec![
            Application::from_pairs(0.0, &[(4.0, 0.0), (4.0, 0.0)]),
            Application::from_pairs(0.0, &[(2.0, 0.0)]),
        ])
        .unwrap();
        let pf = Platform::fully_homogeneous(4, vec![1.0, 2.0, 4.0], 1.0).unwrap();
        // Loose bound: everything at the slowest speed on one proc each.
        let loose =
            min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &[100.0, 100.0])
                .unwrap();
        assert!((loose.objective - 2.0).abs() < 1e-9); // 1² + 1²
        // Tight bound 2: app0 splits [4][4] at speed 2 (4+4) or single at 4
        // (16); app1 at speed 1 (1). Best 9.
        let tight =
            min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &[2.0, 2.0]).unwrap();
        assert!((tight.objective - 9.0).abs() < 1e-9);
        assert!(tight.objective >= loose.objective);
    }

    #[test]
    fn interval_dp_infeasible_returns_none() {
        let apps = AppSet::single(Application::from_pairs(0.0, &[(4.0, 0.0)]));
        let pf = Platform::fully_homogeneous(2, vec![1.0], 1.0).unwrap();
        assert!(
            min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &[0.5]).is_none()
        );
    }

    #[test]
    fn static_energy_counted_in_matching() {
        let apps = AppSet::single(Application::from_pairs(0.0, &[(1.0, 0.0)]));
        let pf = Platform::comm_homogeneous(
            vec![
                cpo_model::platform::Processor::new(vec![1.0]).unwrap().with_static_energy(10.0),
                cpo_model::platform::Processor::new(vec![2.0]).unwrap().with_static_energy(0.0),
            ],
            1.0,
        )
        .unwrap();
        let sol = min_energy_one_to_one_matching(&apps, &pf, CommModel::Overlap, &[10.0]).unwrap();
        // P0 costs 10 + 1 = 11; P1 costs 0 + 4 = 4 → pick P1.
        assert!((sol.objective - 4.0).abs() < 1e-9);
        assert_eq!(sol.mapping.assignments[0].proc, 1);
    }

    #[test]
    fn tighter_bounds_cost_more_energy() {
        let (apps, _) = section2_example();
        let pf = Platform::fully_homogeneous(3, vec![1.0, 2.0, 4.0, 8.0], 1.0).unwrap();
        let mut last = 0.0;
        for tb in [16.0, 8.0, 4.0, 2.0] {
            if let Some(sol) =
                min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &[tb, tb])
            {
                assert!(sol.objective >= last - 1e-9, "bound {tb}");
                last = sol.objective;
            }
        }
    }

    #[test]
    fn no_overlap_needs_more_energy_than_overlap() {
        let (apps, _) = section2_example();
        let pf = Platform::fully_homogeneous(3, vec![1.0, 2.0, 4.0, 8.0], 1.0).unwrap();
        let ov = min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &[3.0, 3.0]);
        let no = min_energy_interval_fully_hom(&apps, &pf, CommModel::NoOverlap, &[3.0, 3.0]);
        match (ov, no) {
            (Some(o), Some(n)) => assert!(n.objective >= o.objective - 1e-9),
            (Some(_), None) => {} // no-overlap may be infeasible
            other => panic!("unexpected feasibility pattern {other:?}"),
        }
    }
}
