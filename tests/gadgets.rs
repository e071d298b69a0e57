//! NP-hardness reduction gadgets, exercised end to end.
//!
//! For every NP-complete cell of Tables 1 and 2 the paper gives a
//! reduction; these tests *run* the reductions both ways on small
//! instances:
//!
//! * YES source instance  → the intended mapping exists, is valid, and
//!   meets the target (and exhaustive search confirms feasibility);
//! * NO source instance   → exhaustive search proves no mapping meets the
//!   target.
//!
//! For the exhaustive direction the 3-PARTITION instances are downscaled
//! (small `B`) so that brute force over mappings stays tractable; the
//! reduction structure is unchanged.

use concurrent_pipelines::model::gadgets::*;
use concurrent_pipelines::prelude::*;
use concurrent_pipelines::solvers::exact::{exact_optimize, ExactConfig, SpeedPolicy};
use concurrent_pipelines::solvers::tri::multimodal::{branch_and_bound_tri_counted, tri_feasible};
use concurrent_pipelines::solvers::{Criterion, MappingKind};

/// A small YES 3-PARTITION instance (`B = 12`, all items 4).
fn small_yes_3p() -> ThreePartition {
    let inst = ThreePartition { b: 12, items: vec![4, 4, 4, 4, 4, 4] };
    assert!(inst.is_well_formed() && inst.solve().is_some());
    inst
}

/// A small NO 3-PARTITION instance: `B = 16`, items `{5,5,5,5,5,7}`
/// (well-formed since `4 < a_i < 8` and `Σ = 32 = 2B`; any triple holding
/// the 7 sums to at least 17 > 16, so no partition exists).
fn small_no_3p() -> ThreePartition {
    let inst = ThreePartition { b: 16, items: vec![5, 5, 5, 5, 5, 7] };
    assert!(inst.is_well_formed() && inst.solve().is_none());
    inst
}

/// Theorem 5: period / interval / heterogeneous uni-modal processors,
/// homogeneous pipelines, no communication. YES instances reach period 1
/// via the intended mapping.
#[test]
fn theorem5_yes_instances_reach_period_1() {
    for seed in 0..4 {
        let inst = ThreePartition::yes_instance(2, seed);
        let gadget = theorem5_encode(&inst);
        let triples = inst.solve().expect("yes instance");
        let mapping = theorem5_mapping(&inst, &triples);
        mapping.validate(&gadget.apps, &gadget.platform).expect("valid");
        let ev = Evaluator::new(&gadget.apps, &gadget.platform);
        for model in CommModel::ALL {
            // No communication: both models agree; every processor is
            // perfectly packed, period exactly 1.
            let t = ev.period(&mapping, model);
            assert!((t - gadget.target_period).abs() < 1e-9, "seed {seed}: period {t} ≠ 1");
        }
    }
}

/// Theorem 5, both directions, certified exhaustively on downscaled twins.
#[test]
fn theorem5_reduction_fidelity_exhaustive() {
    let cfg = ExactConfig {
        kind: MappingKind::Interval,
        model: CommModel::Overlap,
        speed: SpeedPolicy::MaxOnly,
    };
    // YES twin reaches exactly period 1.
    let g_yes = theorem5_encode(&small_yes_3p());
    let best_yes = exact_optimize(
        &g_yes.apps,
        &g_yes.platform,
        cfg,
        Criterion::Period,
        &Thresholds::none(),
    )
    .expect("some mapping exists");
    assert!((best_yes.objective - 1.0).abs() < 1e-9);

    // NO twin provably cannot reach period 1.
    let g_no = theorem5_encode(&small_no_3p());
    let best_no = exact_optimize(
        &g_no.apps,
        &g_no.platform,
        cfg,
        Criterion::Period,
        &Thresholds::none(),
    )
    .expect("some mapping exists");
    assert!(
        best_no.objective > 1.0 + 1e-9,
        "NO instance must not reach period 1 (got {})",
        best_no.objective
    );
}

/// Theorem 9: latency / one-to-one / heterogeneous uni-modal processors.
#[test]
fn theorem9_yes_instance_reaches_latency_b() {
    let inst = ThreePartition::yes_instance(2, 3);
    let gadget = theorem9_encode(&inst);
    let triples = inst.solve().expect("yes");
    let mapping = theorem9_mapping(&triples);
    mapping.validate(&gadget.apps, &gadget.platform).expect("valid");
    let ev = Evaluator::new(&gadget.apps, &gadget.platform);
    let l = ev.latency(&mapping);
    assert!((l - gadget.target_latency).abs() < 1e-9, "latency {l} ≠ B");
}

/// Theorem 9, both directions, certified exhaustively on downscaled twins.
#[test]
fn theorem9_reduction_fidelity_exhaustive() {
    let cfg = ExactConfig {
        kind: MappingKind::OneToOne,
        model: CommModel::Overlap,
        speed: SpeedPolicy::MaxOnly,
    };
    let g_yes = theorem9_encode(&small_yes_3p());
    let best = exact_optimize(
        &g_yes.apps,
        &g_yes.platform,
        cfg,
        Criterion::Latency,
        &Thresholds::none(),
    )
    .expect("mapping exists");
    assert!((best.objective - 12.0).abs() < 1e-9);

    let g_no = theorem9_encode(&small_no_3p());
    let best_no = exact_optimize(
        &g_no.apps,
        &g_no.platform,
        cfg,
        Criterion::Latency,
        &Thresholds::none(),
    )
    .expect("mapping exists");
    assert!(
        best_no.objective > 16.0 + 1e-9,
        "NO instance must not reach latency B (got {})",
        best_no.objective
    );
}

/// Theorem 26: tri-criteria / one-to-one / multi-modal / fully homogeneous.
/// YES instances meet all three bounds via the intended mapping.
#[test]
fn theorem26_yes_instance_meets_all_three_bounds() {
    for seed in [1, 5, 9] {
        let inst = TwoPartition::yes_instance(3, seed);
        let gadget = theorem26_encode(&inst);
        let side = inst.solve().expect("yes instance");
        let mapping = theorem26_mapping(&side);
        mapping.validate(&gadget.apps, &gadget.platform).expect("valid");
        let ev = Evaluator::new(&gadget.apps, &gadget.platform);
        let e = ev.energy(&mapping);
        let l = ev.latency(&mapping);
        let t = ev.period(&mapping, CommModel::Overlap);
        assert!(
            e <= gadget.target_energy + 1e-6,
            "seed {seed}: energy {e} > {}",
            gadget.target_energy
        );
        assert!(
            l <= gadget.target_latency + 1e-6,
            "seed {seed}: latency {l} > {}",
            gadget.target_latency
        );
        assert!(
            t <= gadget.target_period + 1e-6,
            "seed {seed}: period {t} > {}",
            gadget.target_period
        );
    }
}

/// Theorem 26: NO instances cannot meet the three bounds simultaneously.
#[test]
fn theorem26_no_instance_is_infeasible() {
    for seed in [2, 4] {
        let inst = TwoPartition::no_instance(3, seed);
        assert!(inst.solve().is_none());
        let gadget = theorem26_encode(&inst);
        let sol = branch_and_bound_tri_counted(
            &gadget.apps,
            &gadget.platform,
            CommModel::Overlap,
            MappingKind::OneToOne,
            &[gadget.target_period],
            &[gadget.target_latency],
        )
        .0;
        match sol {
            None => {} // no mapping meets period+latency at all
            Some(s) => assert!(
                s.objective > gadget.target_energy + 1e-9,
                "seed {seed}: NO instance met the energy bound ({} ≤ {})",
                s.objective,
                gadget.target_energy
            ),
        }
    }
}

/// Reduction fidelity: tri-criteria feasibility of the gadget must equal
/// the independent 2-PARTITION solver's answer on mixed instances.
#[test]
fn theorem26_branch_and_bound_agrees_with_two_partition_solver() {
    for seed in 0..6 {
        let inst = if seed % 2 == 0 {
            TwoPartition::yes_instance(3, seed)
        } else {
            TwoPartition::no_instance(3, seed)
        };
        let expected = inst.solve().is_some();
        let gadget = theorem26_encode(&inst);
        let got = tri_feasible(
            &gadget.apps,
            &gadget.platform,
            CommModel::Overlap,
            MappingKind::OneToOne,
            &[gadget.target_period],
            &[gadget.target_latency],
            gadget.target_energy,
        );
        assert_eq!(got, expected, "seed {seed}: reduction fidelity");
    }
}

/// Theorem 27 (interval variant): the gadget with big separator stages
/// forces interval mappings back into the one-to-one shape, so interval
/// feasibility equals the 2-PARTITION answer.
#[test]
fn theorem27_interval_search_matches_two_partition() {
    for seed in [0u64, 1, 2, 3] {
        let inst = if seed % 2 == 0 {
            TwoPartition::yes_instance(2, seed + 7)
        } else {
            TwoPartition::no_instance(2, seed + 7)
        };
        let expected = inst.solve().is_some();
        let gadget = theorem27_encode(&inst);
        // YES side: the intended mapping must itself be feasible.
        if let Some(side) = inst.solve() {
            let mapping = theorem27_mapping(&side);
            mapping.validate(&gadget.apps, &gadget.platform).expect("valid");
            let ev = Evaluator::new(&gadget.apps, &gadget.platform);
            assert!(ev.energy(&mapping) <= gadget.target_energy + 1e-6);
            assert!(ev.latency(&mapping) <= gadget.target_latency + 1e-6 * gadget.target_latency);
            assert!(
                ev.period(&mapping, CommModel::Overlap)
                    <= gadget.target_period * (1.0 + 1e-9)
            );
        }
        let got = tri_feasible(
            &gadget.apps,
            &gadget.platform,
            CommModel::Overlap,
            MappingKind::Interval,
            &[gadget.target_period],
            &[gadget.target_latency],
            gadget.target_energy,
        );
        assert_eq!(got, expected, "seed {seed}: interval reduction fidelity");
    }
}
