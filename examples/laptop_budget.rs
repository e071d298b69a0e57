//! The "laptop problem": what is the best schedule achievable using a
//! particular energy budget, before battery becomes critically low?
//!
//! Two applications share a battery-powered fully homogeneous platform.
//! For a sweep of energy budgets the example computes the best global
//! period: it walks the period/energy Pareto front (Theorem 18/21 DP) and
//! returns the fastest point whose energy fits the budget. It also shows
//! the Theorem 24 uni-modal variant where the budget simply caps the
//! number of processors.
//!
//! Run with: `cargo run --example laptop_budget`

use concurrent_pipelines::model::generator::{dsp_radio_app, video_encoding_app};
use concurrent_pipelines::prelude::*;
use concurrent_pipelines::solvers::pareto::period_energy_front;
use concurrent_pipelines::solvers::sweep::Sweep;
use concurrent_pipelines::solvers::tri::unimodal::min_period_tri_unimodal;
use concurrent_pipelines::solvers::MappingKind;

fn main() {
    let apps =
        AppSet::new(vec![video_encoding_app(1.0), dsp_radio_app(1.0)]).expect("two applications");
    let platform =
        Platform::fully_homogeneous(8, vec![0.5, 1.0, 2.0, 4.0], 4.0).expect("valid platform");

    // Precompute the full trade-off curve once.
    let front = period_energy_front(&apps, &platform, CommModel::Overlap, MappingKind::Interval, &Sweep::default());
    println!("multi-modal platform: {} Pareto points\n", front.len());
    println!("{:>10} | {:>10} | {:>10} | {:>6}", "budget E≤", "period", "energy", "procs");
    for budget in [200.0, 100.0, 50.0, 25.0, 12.0, 6.0, 3.0, 1.0] {
        // The fastest front point within budget.
        let best = front
            .iter()
            .filter(|pt| pt.objective <= budget + 1e-9)
            .min_by(|a, b| a.achieved.partial_cmp(&b.achieved).expect("finite"));
        match best {
            Some(pt) => println!(
                "{:>10} | {:>10.3} | {:>10.2} | {:>6}",
                budget,
                pt.achieved,
                pt.objective,
                pt.solution.mapping.enrolled()
            ),
            None => println!("{budget:>10} | battery too low for any mapping"),
        }
    }

    // Budget monotonicity: more energy can only improve the best period.
    let mut last = f64::INFINITY;
    for budget in [1.0, 3.0, 6.0, 12.0, 25.0, 50.0, 100.0, 200.0] {
        if let Some(pt) = front
            .iter()
            .filter(|pt| pt.objective <= budget + 1e-9)
            .min_by(|a, b| a.achieved.partial_cmp(&b.achieved).expect("finite"))
        {
            assert!(pt.achieved <= last + 1e-9);
            last = pt.achieved;
        }
    }

    // Uni-modal variant (Theorem 24): processors have a single speed, so a
    // budget is just a cap on how many can be powered.
    let uni = Platform::fully_homogeneous(8, vec![2.0], 4.0).expect("valid platform");
    println!("\nuni-modal platform (speed 2, energy 4/processor), Theorem 24:");
    println!("{:>10} | {:>10} | {:>6}", "budget E≤", "period", "procs");
    for budget in [32.0, 24.0, 16.0, 12.0, 8.0] {
        match min_period_tri_unimodal(
            &apps,
            &uni,
            CommModel::Overlap,
            &[f64::INFINITY, f64::INFINITY],
            budget,
        ) {
            Some(sol) => println!(
                "{:>10} | {:>10.3} | {:>6}",
                budget,
                sol.objective,
                sol.mapping.enrolled()
            ),
            None => println!("{budget:>10} | infeasible (needs ≥ 1 processor per application)"),
        }
    }
}
