//! Optimality certification: every polynomial algorithm of the paper is
//! checked against exhaustive search on seeded random instances.
//!
//! These tests are the empirical backing of the "polynomial" cells of
//! Tables 1 and 2. Each cell is defined once in `cpo_experiments::tables`
//! (the same cells `cpo-experiments table1|table2` prints): every spec
//! must plan to the cell's algorithm, and the router's answer must equal
//! the optimum its exhaustive enumeration finds.

use concurrent_pipelines::model::generator::{
    random_apps, random_fully_homogeneous, AppGenConfig, PlatformGenConfig,
};
use concurrent_pipelines::prelude::*;
use concurrent_pipelines::solvers::bi::period_energy::min_energy_interval_fully_hom;
use concurrent_pipelines::solvers::mono::period_interval::minimize_global_period;
use cpo_experiments::tables::{self, assert_certified};

const SEEDS: u64 = 60;

/// Table 1 row 1 (period, one-to-one, comm-hom): Theorem 1.
#[test]
fn t1_period_one_to_one_comm_hom() {
    assert_certified(&[tables::THM1]);
}

/// Table 1 row 2 (period, interval, fully hom): Theorem 3 / Algorithm 2.
#[test]
fn t1_period_interval_fully_hom() {
    assert_certified(&[tables::THM3]);
}

/// Table 1 row 4 (latency, interval, comm-hom): Theorem 12 greedy.
#[test]
fn t1_latency_interval_comm_hom() {
    assert_certified(&[tables::THM12]);
}

/// Table 2 row 1 (period/latency, fully hom): Theorem 15/16 DP, both
/// directions.
#[test]
fn t2_period_latency_fully_hom() {
    assert_certified(&[tables::THM16_LATENCY, tables::THM16_PERIOD]);
}

/// Table 2 row 2 (period/energy, one-to-one, comm-hom): Theorem 19
/// matching.
#[test]
fn t2_energy_matching_comm_hom() {
    assert_certified(&[tables::THM19]);
}

/// Table 2 row 3 (period/energy, interval, fully hom): Theorem 18/21 DP.
#[test]
fn t2_energy_interval_fully_hom() {
    assert_certified(&[tables::THM18_21]);
}

/// Table 2 row 4, uni-modal column (Theorem 24): latency and period
/// variants under an energy budget.
#[test]
fn t2_tri_unimodal() {
    assert_certified(&[tables::THM24_LATENCY, tables::THM24_PERIOD]);
}

/// Solver outputs are always structurally valid mappings honoring their
/// claimed objective values.
#[test]
fn solver_outputs_are_valid_and_consistent() {
    let app_cfg = AppGenConfig { apps: 2, stages: (2, 4), ..Default::default() };
    for seed in 0..SEEDS {
        let apps = random_apps(&app_cfg, seed);
        let pf_cfg = PlatformGenConfig { procs: 5, modes: (2, 3), ..Default::default() };
        let pf = random_fully_homogeneous(&pf_cfg, seed + 8000);
        let ev = Evaluator::new(&apps, &pf);
        if let Some(sol) = minimize_global_period(&apps, &pf, CommModel::Overlap) {
            sol.mapping.validate(&apps, &pf).expect("valid mapping");
            assert!(
                (ev.period(&sol.mapping, CommModel::Overlap) - sol.objective).abs() < 1e-9
            );
        }
        let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work()).collect();
        if let Some(sol) = min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &tb) {
            sol.mapping.validate(&apps, &pf).expect("valid mapping");
            assert!((ev.energy(&sol.mapping) - sol.objective).abs() < 1e-9);
        }
    }
}
