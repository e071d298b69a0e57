//! `cpo-experiments` — regenerate every table and figure of the paper.
//!
//! Subcommands:
//!
//! * `fig1`    — the Section 2 / Figure 1 motivating example numbers;
//! * `table1`  — empirical certification of the mono-criterion complexity
//!   table: one row per polynomial cell of `cpo_experiments::tables`, its
//!   specs routed and compared with the router's exhaustive enumeration;
//! * `table2`  — same for the multi-criteria table;
//! * `gadgets` — NP-hardness reduction fidelity + exact-solver blow-up;
//! * `scaling` — runtime scaling of every polynomial algorithm;
//! * `pareto`  — period/energy trade-off staircases;
//! * `all`     — everything above, in order (default).
//!
//! Plus the typed front door over the problem IR:
//!
//! * `solve <spec.json> [--check] [--threads N] [--datasets N]` — solve
//!   one `SolveRequest` (instance + `ProblemSpec`) through the router and
//!   print the `SolveOutcome` as JSON;
//! * `batch <specs.jsonl> [--check] [--threads N] [--datasets N]` — run a
//!   JSONL batch through the `cpo_engine` work-stealing pool; one outcome
//!   line per input line, in input order, never aborting on per-item
//!   failures;
//! * `spec-example [batch|large|benes]` — print the runnable example
//!   request (or the mixed feasible/infeasible batch, the large-scale
//!   wavefront soak, or the Benes multistage-fabric instance) committed
//!   under `examples/specs/`.
//!
//! And the trust subsystem (see the `trust` module of this crate):
//!
//! * `replay <bundle.json>` — re-execute a repro bundle bit-for-bit and
//!   report whether the recorded observations reproduce (exit 0) or not
//!   (exit 1);
//! * `fuzz [--seconds N] [--seed S] [--threads N]` — time-boxed,
//!   deterministically seeded differential fuzz over the full scenario
//!   cross-product; any divergence is frozen into a bundle under
//!   `repro-bundles/` (override with `CPO_BUNDLE_DIR`) and exits 1.
//!
//! `--check` closes the loop end-to-end: every routed solution is
//! re-evaluated analytically *and* executed in the simulator (the
//! wavefront core) over `--datasets` data sets (default 64; CI soaks the
//! committed large-scale spec at one million), and the measured
//! period/latency/energy must agree with the reported objective.
//!
//! Every experiment is seeded and prints markdown rows. `fig1`, `table1`,
//! `table2`, `gadgets` and `all` exit 1 when any row reads `MISMATCH`.

use cpo_core::exact::{exact_optimize, ExactConfig, SpeedPolicy};
use cpo_core::heuristics::{local_search, LocalSearchConfig};
use cpo_core::sweep::Sweep;
use cpo_core::tri::multimodal::{branch_and_bound_tri_counted, tri_feasible};
use cpo_core::{plan, route, Criterion, MappingKind, Plan};
use cpo_experiments::serve_cli;
use cpo_experiments::tables::{self, Cell, Family, Procs};
use cpo_experiments::trust::{self, check_outcome, close, maybe_corrupt};
use cpo_model::gadgets::*;
use cpo_model::generator::*;
use cpo_model::prelude::*;
use cpo_simulator::simulate;
use std::str::FromStr;
use std::time::Instant;

/// The status column; a `MISMATCH` also clears `all_ok`.
fn status(ok: bool, all_ok: &mut bool) -> &'static str {
    *all_ok &= ok;
    if ok {
        "ok"
    } else {
        "MISMATCH"
    }
}

/// Exit 1 unless every status row of the section(s) reads `ok`.
fn exit_unless(ok: bool) {
    if !ok {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// fig1
// ---------------------------------------------------------------------------

fn fig1() -> bool {
    let mut ok = true;
    println!("\n## FIG1 — Section 2 motivating example\n");
    println!("| quantity | paper | measured | simulated | status |");
    println!("|---|---|---|---|---|");
    let (apps, pf) = section2_example();
    let ev = Evaluator::new(&apps, &pf);
    let cfg_max = ExactConfig {
        kind: MappingKind::Interval,
        model: CommModel::Overlap,
        speed: SpeedPolicy::MaxOnly,
    };
    let cfg_all = ExactConfig { speed: SpeedPolicy::All, ..cfg_max };

    let t = exact_optimize(&apps, &pf, cfg_max, Criterion::Period, &Thresholds::none()).unwrap();
    let sim_t = simulate(&apps, &pf, &t.mapping, CommModel::Overlap, 64).period;
    println!(
        "| minimum period (Eq. 1) | 1 | {:.3} | {:.3} | {} |",
        t.objective,
        sim_t,
        status(close(t.objective, 1.0) && close(sim_t, 1.0), &mut ok)
    );

    let l = cpo_core::mono::latency::min_latency_interval_comm_hom(&apps, &pf).unwrap();
    let sim_l = simulate(&apps, &pf, &l.mapping, CommModel::Overlap, 8).latency;
    println!(
        "| minimum latency (Eq. 2) | 2.75 | {:.3} | {:.3} | {} |",
        l.objective,
        sim_l,
        status(close(l.objective, 2.75) && close(sim_l, 2.75), &mut ok)
    );

    let e = exact_optimize(&apps, &pf, cfg_all, Criterion::Energy, &Thresholds::none()).unwrap();
    let period_at_e = ev.period(&e.mapping, CommModel::Overlap);
    println!(
        "| minimum energy | 10 | {:.1} | — | {} |",
        e.objective,
        status(close(e.objective, 10.0), &mut ok)
    );
    println!(
        "| period at minimum energy | 14 | {:.3} | — | {} |",
        period_at_e,
        status(close(period_at_e, 14.0), &mut ok)
    );

    let th = Thresholds::uniform_period(2.0, 2);
    let comp = exact_optimize(&apps, &pf, cfg_all, Criterion::Energy, &th).unwrap();
    println!(
        "| energy under period ≤ 2 | 46 | {:.1} | — | {} |",
        comp.objective,
        status(close(comp.objective, 46.0), &mut ok)
    );
    let energy_fast = ev.energy(&t.mapping);
    println!(
        "| energy of the period-optimal mapping | 136 | {:.1} | — | {} |",
        energy_fast,
        status(close(energy_fast, 136.0), &mut ok)
    );
    ok
}

// ---------------------------------------------------------------------------
// table1 / table2: the certified cells of `cpo_experiments::tables`
// ---------------------------------------------------------------------------

/// One row per cell; true when every row reads `ok`.
fn cell_rows(cells: &[Cell]) -> bool {
    let mut ok = true;
    for cell in cells {
        let c = cell.certify();
        println!(
            "| {} | {} | {}/{} optimal (on {} feasible) | {} |",
            cell.label,
            cell.plan.describe(),
            c.cases - c.mismatches.len(),
            c.cases,
            c.feasible,
            status(c.ok(), &mut ok)
        );
    }
    ok
}

fn table1() -> bool {
    println!("\n## TABLE 1 — mono-criterion complexity, empirical certification\n");
    println!("| cell | algorithm | result | status |");
    println!("|---|---|---|---|");
    let ok = cell_rows(&[tables::THM1, tables::THM3]);
    println!("| Period / interval / special-app | NP-complete (Thm 5) | see `gadgets` | ok |");
    println!("| Latency / one-to-one / special-app | NP-complete (Thm 9) | see `gadgets` | ok |");
    ok & cell_rows(&[tables::THM12])
}

fn table2() -> bool {
    println!("\n## TABLE 2 — multi-criteria complexity, empirical certification\n");
    println!("| cell | algorithm | result | status |");
    println!("|---|---|---|---|");
    let mut ok = cell_rows(&[
        tables::THM16_LATENCY,
        tables::THM16_PERIOD,
        tables::THM19,
        tables::THM18_21,
        tables::THM24_LATENCY,
        tables::THM24_PERIOD,
    ]);
    println!("| Tri-criteria / multi-modal | NP-hard (Thm 26/27) | see `gadgets` | ok |");

    // Heuristic quality vs exact branch-and-bound on the Section 2 example
    // family.
    let (apps, pf) = section2_example();
    let mut exact_sum = 0.0;
    let mut greedy_sum = 0.0;
    let mut ls_sum = 0.0;
    let mut cases = 0;
    for tb in [1.5, 2.0, 3.0, 4.0, 6.0] {
        let bounds = [tb, tb];
        let lat = [f64::INFINITY, f64::INFINITY];
        if let (Some(ex), Some(ls)) = (
            cpo_core::tri::multimodal::branch_and_bound_tri_counted(
                &apps,
                &pf,
                CommModel::Overlap,
                MappingKind::Interval,
                &bounds,
                &lat,
            )
            .0,
            local_search(
                &apps,
                &pf,
                CommModel::Overlap,
                &bounds,
                &lat,
                &LocalSearchConfig { iterations: 4000, seed: 11, ..Default::default() },
            ),
        ) {
            let start = ex.mapping.clone().at_max_speed(&pf);
            let greedy = cpo_core::heuristics::greedy_energy_downscale(
                &apps,
                &pf,
                CommModel::Overlap,
                &bounds,
                &lat,
                &start,
            )
            .expect("feasible start");
            exact_sum += ex.objective;
            greedy_sum += greedy.objective;
            ls_sum += ls.objective;
            cases += 1;
        }
    }
    println!(
        "| Heuristics vs exact (Section 2 family, {} bounds) | greedy downscale / local search | mean ratio {:.3} / {:.3} | {} |",
        cases,
        greedy_sum / exact_sum,
        ls_sum / exact_sum,
        status(ls_sum / exact_sum < 1.25, &mut ok)
    );
    ok
}

// ---------------------------------------------------------------------------
// gadgets
// ---------------------------------------------------------------------------

fn gadgets() -> bool {
    let mut ok = true;
    println!("\n## GADGETS — NP-hardness reductions, run both ways\n");
    println!("| reduction | instances | fidelity | status |");
    println!("|---|---|---|---|");

    // Theorem 5 intended-mapping check on factory instances.
    const N5: u64 = 20;
    let ok5 = (0..N5)
        .filter(|&seed| {
            let inst = ThreePartition::yes_instance(3, seed);
            let g = theorem5_encode(&inst);
            let m = theorem5_mapping(&inst, &inst.solve().expect("yes"));
            close(Evaluator::new(&g.apps, &g.platform).period(&m, CommModel::Overlap), 1.0)
        })
        .count();
    println!(
        "| Thm 5 (3-PARTITION → period/interval) | {N5} YES | {ok5}/{N5} reach period 1 | {} |",
        status(ok5 == N5 as usize, &mut ok)
    );

    // Theorem 9.
    let ok9 = (0..N5)
        .filter(|&seed| {
            let inst = ThreePartition::yes_instance(3, seed + 100);
            let g = theorem9_encode(&inst);
            let m = theorem9_mapping(&inst.solve().expect("yes"));
            close(Evaluator::new(&g.apps, &g.platform).latency(&m), g.target_latency)
        })
        .count();
    println!(
        "| Thm 9 (3-PARTITION → latency/one-to-one) | {N5} YES | {ok9}/{N5} reach latency B | {} |",
        status(ok9 == N5 as usize, &mut ok)
    );

    // Theorems 26/27: tri-criteria feasibility of the gadget must match
    // 2-PARTITION on mixed YES/NO instances.
    let thm26: fn(&TwoPartition) -> bool = |inst| {
        let g = theorem26_encode(inst);
        let (t, l, e) = ([g.target_period], [g.target_latency], g.target_energy);
        tri_feasible(&g.apps, &g.platform, CommModel::Overlap, MappingKind::OneToOne, &t, &l, e)
    };
    let thm27: fn(&TwoPartition) -> bool = |inst| {
        let g = theorem27_encode(inst);
        let (t, l, e) = ([g.target_period], [g.target_latency], g.target_energy);
        tri_feasible(&g.apps, &g.platform, CommModel::Overlap, MappingKind::Interval, &t, &l, e)
    };
    let reductions = [
        ("Thm 26 (2-PARTITION → tri-criteria)", 3, 12u64, "feasibility agrees", thm26),
        ("Thm 27 (2-PARTITION → tri-criteria, interval)", 2, 6, "agree", thm27),
    ];
    for (label, items, count, agrees, feasible) in reductions {
        let agree = (0..count)
            .filter(|&seed| {
                let inst = if seed % 2 == 0 {
                    TwoPartition::yes_instance(items, seed)
                } else {
                    TwoPartition::no_instance(items, seed)
                };
                feasible(&inst) == inst.solve().is_some()
            })
            .count();
        println!(
            "| {label} | {count} mixed | {agree}/{count} {agrees} | {} |",
            status(agree == count as usize, &mut ok)
        );
    }

    // Exact-solver blow-up on Theorem 26 gadgets: nodes visited vs n.
    println!("\n### Branch-and-bound blow-up on Theorem 26 gadgets (NP-hardness signature)\n");
    println!("| items n | search nodes | time |");
    println!("|---|---|---|");
    for n in 2..=5 {
        let inst = TwoPartition::yes_instance(n, 1);
        let g = theorem26_encode(&inst);
        let t0 = Instant::now();
        let (_, nodes) = branch_and_bound_tri_counted(
            &g.apps,
            &g.platform,
            CommModel::Overlap,
            MappingKind::OneToOne,
            &[g.target_period],
            &[g.target_latency],
        );
        println!("| {n} | {nodes} | {:?} |", t0.elapsed());
    }
    ok
}

// ---------------------------------------------------------------------------
// scaling
// ---------------------------------------------------------------------------

fn time_it(mut f: impl FnMut()) -> f64 {
    // Warm up once, then take the best of 3 runs.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One scaling section: the instance at each size, routed through the
/// router's front door, which must pick `plan`.
struct Scaling {
    title: &'static str,
    size: &'static str,
    sizes: [usize; 4],
    instance: fn(usize) -> (AppSet, Platform),
    spec: fn(&AppSet) -> ProblemSpec,
    plan: Plan,
}

/// `apps` applications of `stages` stages each (seed `seed`) on `procs`
/// processors with `modes` modes (seed `seed + 1`).
fn scaling_instance(
    apps: usize,
    stages: usize,
    platform: fn(&PlatformGenConfig, u64) -> Platform,
    procs: usize,
    modes: (usize, usize),
    seed: u64,
) -> (AppSet, Platform) {
    let procs = Procs::Fixed(procs);
    Family { apps, stages: (stages, stages), platform, procs, modes, seed_offset: 1 }.instance(seed)
}

/// A spec under per-application period bounds `work / div + add`.
fn energy_under_period(apps: &AppSet, strategy: Strategy, div: f64, add: f64) -> ProblemSpec {
    let tb = apps.apps.iter().map(|a| a.total_work() / div + add).collect();
    ProblemSpec::new(Objective::Energy, strategy, CommModel::Overlap).with_period_bounds(tb)
}

fn scaling() {
    println!("\n## SCALING — runtime of the polynomial algorithms\n");
    println!("(growth = t(size)/t(previous size); the claimed bounds predict");
    println!("about 4-8x per doubling for the quadratic/cubic algorithms)");
    let sections = [
        Scaling {
            title: "Theorem 1 (period, one-to-one, com-hom) — O((n·A·p)² log(n·A·p))",
            size: "N stages (= p)",
            sizes: [20, 40, 80, 160],
            instance: |n| scaling_instance(4, n / 4, random_comm_homogeneous, n, (1, 3), 7),
            spec: |_| ProblemSpec::new(Objective::Period, Strategy::OneToOne, CommModel::Overlap),
            plan: Plan::PeriodOneToOne,
        },
        Scaling {
            title: "Theorem 3 (period, interval, fully-hom) — O(n³p²) worst case",
            size: "n per app (A=4, p=16)",
            sizes: [8, 16, 32, 64],
            instance: |n| scaling_instance(4, n, random_fully_homogeneous, 16, (1, 2), 9),
            spec: |_| ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap),
            plan: Plan::PeriodInterval,
        },
        Scaling {
            title: "Theorem 18/21 (energy DP) — O(A·n³·p²)",
            size: "n per app (A=2, p=8)",
            sizes: [8, 16, 32, 64],
            instance: |n| scaling_instance(2, n, random_fully_homogeneous, 8, (3, 3), 11),
            spec: |apps| energy_under_period(apps, Strategy::Interval, 4.0, 2.0),
            plan: Plan::EnergyInterval,
        },
        Scaling {
            title: "Theorem 19 (energy matching) — Hungarian-dominated",
            size: "N stages (= p)",
            sizes: [16, 32, 64, 128],
            instance: |n| scaling_instance(4, n / 4, random_comm_homogeneous, n, (2, 3), 13),
            spec: |apps| energy_under_period(apps, Strategy::OneToOne, 2.0, 4.0),
            plan: Plan::EnergyMatching,
        },
    ];
    for section in sections {
        println!("\n### {}\n", section.title);
        println!("| {} | time (ms) | growth |", section.size);
        println!("|---|---|---|");
        let mut prev = f64::NAN;
        for n in section.sizes {
            let (apps, pf) = (section.instance)(n);
            let spec = (section.spec)(&apps);
            assert_eq!(plan(&apps, &pf, &spec), Ok(section.plan), "{}", section.title);
            let t = time_it(|| {
                let _ = route(&apps, &pf, &spec);
            });
            println!("| {n} | {:.2} | {:.1}x |", t * 1e3, t / prev);
            prev = t;
        }
    }
}

// ---------------------------------------------------------------------------
// extensions: replication / sharing / buffers ablations
// ---------------------------------------------------------------------------

fn extensions() {
    println!("\n## EXTENSIONS — Section 6 future work, implemented and measured\n");

    // Replication vs plain intervals on a monolithic-stage-heavy workload.
    println!("### Replication (paper ref [4]): period with p processors\n");
    println!("| p | plain interval period | replicated period | gain |");
    println!("|---|---|---|---|");
    let apps = AppSet::new(vec![
        Application::from_pairs(0.0, &[(8.0, 1.0)]),
        Application::from_pairs(0.0, &[(4.0, 1.0), (4.0, 1.0)]),
    ])
    .unwrap();
    for p in [2usize, 3, 4, 6, 8] {
        let pf = Platform::fully_homogeneous(p, vec![2.0], 4.0).unwrap();
        let plain_spec = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
        let plain = route(&apps, &pf, &plain_spec).objective();
        let repl = cpo_core::replication::minimize_global_period_replicated(
            &apps,
            &pf,
            CommModel::Overlap,
        )
        .map(|(_, t)| t);
        match (plain, repl) {
            (Some(tp), Some(tr)) => println!(
                "| {p} | {tp:.3} | {tr:.3} | {:.2}x |",
                tp / tr
            ),
            _ => println!("| {p} | infeasible | — | — |"),
        }
    }

    // Replication as an alternative to DVFS for energy.
    println!("\n### Replication vs DVFS: energy under a period bound (work-8 stage)\n");
    println!("| period <= | DVFS-only energy | replication+DVFS energy | replicas |");
    println!("|---|---|---|---|");
    let one = AppSet::single(Application::from_pairs(0.0, &[(8.0, 0.0)]));
    let pf = Platform::fully_homogeneous(8, vec![1.0, 2.0, 4.0, 8.0], 1.0).unwrap();
    for tb in [8.0, 4.0, 2.0, 1.0] {
        let dvfs_spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![tb]);
        let dvfs = route(&one, &pf, &dvfs_spec).objective();
        let repl = cpo_core::replication::min_energy_replicated_under_period(
            &one,
            &pf,
            CommModel::Overlap,
            &[tb],
        );
        match (dvfs, repl) {
            (Some(ed), Some((m, er))) => println!(
                "| {tb} | {ed:.1} | {er:.1} | {} |",
                m.assignments[0].r()
            ),
            (None, Some((m, er))) => println!("| {tb} | infeasible | {er:.1} | {} |", m.assignments[0].r()),
            _ => println!("| {tb} | infeasible | infeasible | — |"),
        }
    }

    // Sharing gain on random scarce-processor instances.
    println!("\n### Processor sharing: interval vs general optimal period (p = 2, A = 2)\n");
    println!("| seeds | sharing strictly helps | mean gain when it helps |");
    println!("|---|---|---|");
    let cfg = AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() };
    let mut helps = 0;
    let mut gain_sum = 0.0;
    const NS: u64 = 40;
    for seed in 0..NS {
        let apps = random_apps(&cfg, seed);
        let pf = Platform::fully_homogeneous(2, vec![2.0], 1.0).unwrap();
        if let Some((ti, tg)) = cpo_core::sharing::sharing_gain(&apps, &pf, CommModel::Overlap) {
            if tg < ti - 1e-9 {
                helps += 1;
                if ti.is_finite() {
                    gain_sum += ti / tg;
                }
            }
        }
    }
    println!(
        "| {NS} | {helps} | {} |",
        if helps > 0 && gain_sum > 0.0 { format!("{:.2}x", gain_sum / helps as f64) } else { "(feasibility rescues only)".into() }
    );

    // Bounded buffers.
    println!("\n### Bounded buffers: measured period vs capacity (receive-bound chain)\n");
    println!("| capacity | measured period | vs paper model |");
    println!("|---|---|---|");
    let app = Application::from_pairs(0.0, &[(1.0, 4.0), (4.0, 0.0)]);
    let bapps = AppSet::single(app);
    let bpf = Platform::fully_homogeneous(2, vec![1.0], 1.0).unwrap();
    let mapping =
        Mapping::new().with(Interval::new(0, 0, 0), 0, 0).with(Interval::new(0, 1, 1), 1, 0);
    let ideal =
        cpo_simulator::simulate(&bapps, &bpf, &mapping, CommModel::Overlap, 64).period;
    for cap in [1usize, 2, 4, 8] {
        let t = cpo_simulator::simulate_with_buffers(
            &bapps,
            &bpf,
            &mapping,
            CommModel::Overlap,
            64,
            cap,
        )
        .period;
        println!("| {cap} | {t:.3} | {:.2}x |", t / ideal);
    }
    println!("| unbounded (paper) | {ideal:.3} | 1.00x |");
}

// ---------------------------------------------------------------------------
// robustness
// ---------------------------------------------------------------------------

fn robustness() {
    println!("\n## ROBUSTNESS — optimal mappings under execution noise\n");
    println!("Multiplicative noise U(1-eps, 1+eps) on every operation; 32 trials,");
    println!("64 data sets; mapping = the Section 2 period-optimal mapping.\n");
    println!("| eps | mean period | worst period | degradation |");
    println!("|---|---|---|---|");
    let (apps, pf) = section2_example();
    let mapping = section2_period_optimal();
    for eps in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let rep = cpo_simulator::jitter_analysis(
            &apps,
            &pf,
            &mapping,
            CommModel::Overlap,
            64,
            eps,
            32,
            11,
        );
        println!(
            "| {eps} | {:.3} | {:.3} | {:+.1}% |",
            rep.mean_period,
            rep.max_period,
            100.0 * rep.degradation()
        );
    }
    println!("\nReading: the period-1 mapping has zero slack (all three cycle-times");
    println!("equal 1), so any noise converts directly into period degradation —");
    println!("the deterministic optimum is a fragile optimum.");
}

// ---------------------------------------------------------------------------
// pareto
// ---------------------------------------------------------------------------

fn pareto() {
    println!("\n## PARETO — period/energy trade-off staircases");
    let fronts = [
        (
            "Homogenized Section 2 platform (3 procs, modes {1,3,6,8})",
            section2_example().0,
            Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap(),
            1,
        ),
        (
            "Video encoding chain on a 6-processor DVFS farm",
            AppSet::single(video_encoding_app(1.0)),
            Platform::fully_homogeneous(6, vec![0.5, 1.0, 2.0, 4.0], 4.0).unwrap(),
            2,
        ),
    ];
    for (title, apps, pf, digits) in fronts {
        println!("\n### {title}\n");
        println!("| period <= | min energy | processors |");
        println!("|---|---|---|");
        let (kind, sweep) = (MappingKind::Interval, Sweep::default());
        for pt in cpo_core::pareto::period_energy_front(&apps, &pf, CommModel::Overlap, kind, &sweep) {
            let procs = pt.solution.mapping.enrolled();
            println!("| {:.3} | {:.digits$} | {procs} |", pt.achieved, pt.objective);
        }
    }
}

// ---------------------------------------------------------------------------
// dump: archive the Section 2 instance as JSON
// ---------------------------------------------------------------------------

/// The period-1 mapping of Section 2 (every cycle-time equals 1).
fn section2_period_optimal() -> Mapping {
    Mapping::new()
        .with(Interval::new(0, 0, 2), 2, 1)
        .with(Interval::new(1, 0, 1), 1, 1)
        .with(Interval::new(1, 2, 3), 0, 1)
}

fn dump() {
    let (apps, platform) = section2_example();
    let compromise = Mapping::new()
        .with(Interval::new(0, 0, 2), 0, 0)
        .with(Interval::new(1, 0, 0), 2, 0)
        .with(Interval::new(1, 1, 3), 1, 0);
    let inst = cpo_model::io::Instance::new(
        "Section 2 / Figure 1 motivating example of Benoit, Renaud-Goud, Robert (IPDPS 2010)",
        apps,
        platform,
    )
    .with_thresholds(Thresholds::uniform_period(2.0, 2))
    .with_mapping("period-optimal", section2_period_optimal())
    .with_mapping("energy-compromise", compromise);
    let json = inst.to_json().expect("serializable");
    // Round-trip check before emitting.
    let back = cpo_model::io::Instance::from_json(&json).expect("round-trips");
    assert_eq!(inst, back);
    println!("{json}");
}

// ---------------------------------------------------------------------------
// solve / batch: the typed front door (ProblemSpec → router → engine)
// ---------------------------------------------------------------------------

fn engine_config(threads: Option<usize>) -> cpo_engine::EngineConfig {
    threads.map_or_else(Default::default, cpo_engine::EngineConfig::with_threads)
}

/// The file's text, or exit 2.
fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(2);
    })
}

fn cmd_solve(path: &str, check: bool, threads: Option<usize>, datasets: usize) {
    let text = read_or_exit(path);
    let req = SolveRequest::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse `{path}`: {e}");
        std::process::exit(2);
    });
    let cfg = engine_config(threads);
    let engine = cpo_engine::Engine::new(cfg.clone());
    let out = maybe_corrupt(engine.solve(&req.apps, &req.platform, &req.problem));
    println!("{}", out.to_json().unwrap_or_else(|_| unrepresentable(&out)));
    export_on_panic(&out, None, bundle_source(&req, &text), &cfg, datasets);
    if check {
        match check_outcome(&req, &out, datasets) {
            Ok(()) => eprintln!("check: ok ({})", out.kind()),
            Err(e) => {
                eprintln!("check: MISMATCH: {e}");
                export_on_mismatch(&e, None, bundle_source(&req, &text), &cfg, datasets);
                std::process::exit(1);
            }
        }
    }
}

/// The stand-in JSON line for an outcome the writer refuses (non-finite
/// values): still one typed outcome per input line, never a crash.
fn unrepresentable(out: &SolveOutcome) -> String {
    SolveOutcome::Unsupported {
        reason: format!("{} outcome not JSON-representable (non-finite values)", out.kind()),
    }
    .to_json_compact()
    .expect("plain string reason serializes")
}

/// The bundle source for a request read from disk: the typed request when
/// it can re-serialize, otherwise the original text verbatim (a poisoned
/// instance with infinite values parses but will not re-serialize).
fn bundle_source(req: &SolveRequest, raw: &str) -> BundleSource {
    if req.to_json_compact().is_ok() {
        BundleSource::Request(req.clone())
    } else {
        BundleSource::RawSpec(raw.trim().to_string())
    }
}

/// If the outcome is a structured engine-panic backstop, freeze the
/// request into a repro bundle (unconditionally — a panic is always worth
/// keeping, `--check` or not).
fn export_on_panic(
    out: &SolveOutcome,
    item: Option<usize>,
    source: BundleSource,
    cfg: &cpo_engine::EngineConfig,
    datasets: usize,
) {
    if let SolveOutcome::Unsupported { reason } = out {
        if let Some(details) = cpo_engine::panic_details(reason) {
            match trust::export_bundle(
                FailureKind::EnginePanic,
                format!("engine panic: {}", details.payload),
                item.or(details.item_index),
                source,
                cfg,
                datasets,
            ) {
                Ok(path) => eprintln!("repro bundle written: {}", path.display()),
                Err(e) => eprintln!("could not write repro bundle: {e}"),
            }
        }
    }
}

/// Freeze a `--check` mismatch into a repro bundle.
fn export_on_mismatch(
    message: &str,
    item: Option<usize>,
    source: BundleSource,
    cfg: &cpo_engine::EngineConfig,
    datasets: usize,
) {
    match trust::export_bundle(FailureKind::CheckMismatch, message.to_string(), item, source, cfg, datasets)
    {
        Ok(path) => eprintln!("repro bundle written: {}", path.display()),
        Err(e) => eprintln!("could not write repro bundle: {e}"),
    }
}

fn cmd_batch(path: &str, check: bool, threads: Option<usize>, datasets: usize) {
    let text = read_or_exit(path);
    // A malformed line becomes that line's unsupported outcome — it never
    // aborts the rest of the batch.
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let parsed: Vec<Result<SolveRequest, String>> = lines
        .iter()
        .map(|l| SolveRequest::from_json(l).map_err(|e| format!("unparseable request: {e}")))
        .collect();
    let requests: Vec<&SolveRequest> = parsed.iter().filter_map(|r| r.as_ref().ok()).collect();
    let items: Vec<cpo_engine::BatchItem<'_>> = requests
        .iter()
        .map(|r| cpo_engine::BatchItem::new(&r.apps, &r.platform, &r.problem))
        .collect();
    let cfg = engine_config(threads);
    let engine = cpo_engine::Engine::new(cfg.clone());
    let solved = engine.solve_batch_with(&items, |i, out| {
        eprintln!("[{}/{}] {}", i + 1, items.len(), out.kind());
    });
    // Stitch solver outcomes back into input order around the parse
    // failures.
    let mut solved_iter = solved.into_iter();
    let outcomes: Vec<SolveOutcome> = parsed
        .iter()
        .map(|r| match r {
            Ok(_) => maybe_corrupt(solved_iter.next().expect("one outcome per request")),
            Err(reason) => SolveOutcome::Unsupported { reason: reason.clone() },
        })
        .collect();
    let mut mismatches = 0usize;
    for (i, out) in outcomes.iter().enumerate() {
        println!("{}", out.to_json_compact().unwrap_or_else(|_| unrepresentable(out)));
        if let Ok(req) = &parsed[i] {
            export_on_panic(out, Some(i), bundle_source(req, lines[i]), &cfg, datasets);
            if check {
                if let Err(e) = check_outcome(req, out, datasets) {
                    eprintln!("check: item {i} MISMATCH: {e}");
                    export_on_mismatch(&e, Some(i), bundle_source(req, lines[i]), &cfg, datasets);
                    mismatches += 1;
                }
            }
        }
    }
    if check {
        let stats = engine.cache_stats();
        eprintln!(
            "check: {} items, {mismatches} mismatches (cache: {} hits / {} misses)",
            outcomes.len(),
            stats.hits,
            stats.misses
        );
        if mismatches > 0 {
            std::process::exit(1);
        }
    }
}

fn cmd_replay(path: &str) {
    let text = read_or_exit(path);
    let bundle = ReproBundle::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse bundle `{path}`: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "replaying bundle {} ({:?}: {})",
        bundle.bundle_id, bundle.failure.kind, bundle.failure.message
    );
    match trust::replay(&bundle) {
        Ok(report) => {
            for line in &report.details {
                eprintln!("  {line}");
            }
            for d in &report.divergences {
                eprintln!("  divergence still present: {d}");
            }
            if report.confirmed {
                println!("replay: CONFIRMED — every recorded path reproduced bit-for-bit");
            } else {
                println!("replay: NOT REPRODUCED — recorded observations differ from this run");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_fuzz(seconds: u64, seed: u64, threads: Option<usize>) {
    let cfg = engine_config(threads);
    eprintln!(
        "fuzz: {seconds}s time box, seed {seed}, bundles under `{}`",
        trust::bundle_dir().display()
    );
    let report = trust::fuzz(seconds, seed, &cfg);
    println!(
        "fuzz: {} instances over {} scenarios ({} full sweeps), {} divergent",
        report.executed,
        report.scenarios,
        report.iterations,
        report.bundles.len()
    );
    for path in &report.bundles {
        eprintln!("  bundle: {}", path.display());
    }
    if !report.bundles.is_empty() {
        std::process::exit(1);
    }
}

/// The committed example request: the Section 2 energy compromise on the
/// homogenized platform, solved through the router.
fn example_request() -> SolveRequest {
    let (apps, _) = section2_example();
    let platform = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
    let problem = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
        .with_period_bounds(vec![2.0, 2.0]);
    SolveRequest::new(
        "Section 2 energy compromise (energy under period <= 2, homogenized platform)",
        apps,
        platform,
        problem,
    )
}

/// The committed example batch: a mix of feasible, infeasible and
/// unsupported specs over the Section 2 instance, exercising the per-item
/// failure reporting.
fn example_batch() -> Vec<SolveRequest> {
    let (apps, _) = section2_example();
    let platform = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
    let spec = |objective, strategy| ProblemSpec::new(objective, strategy, CommModel::Overlap);
    let energy = spec(Objective::Energy, Strategy::Interval);
    let mut specs: Vec<(String, ProblemSpec)> = [1.5, 2.0, 3.0, 6.0]
        .map(|tb| {
            let spec = energy.clone().with_period_bounds(vec![tb, tb]);
            (format!("energy under period <= {tb}"), spec)
        })
        .into();
    specs.extend([
        ("minimum period (interval)", spec(Objective::Period, Strategy::Interval)),
        ("minimum period with replication", spec(Objective::Period, Strategy::Replicated)),
        (
            "latency under an unachievable period bound (infeasible)",
            spec(Objective::Latency, Strategy::Interval).with_period_bounds(vec![0.01, 0.01]),
        ),
        (
            "energy for a general mapping (unsupported)",
            spec(Objective::Energy, Strategy::General).with_period_bounds(vec![2.0, 2.0]),
        ),
        (
            "period/latency front (no-overlap model)",
            ProblemSpec {
                comm: CommModel::NoOverlap,
                ..spec(Objective::PeriodLatencyFront, Strategy::Interval)
            },
        ),
    ]
    .map(|(description, spec)| (description.to_string(), spec)));
    let request = |(text, spec)| SolveRequest::new(text, apps.clone(), platform.clone(), spec);
    specs.into_iter().map(request).collect()
}

/// The committed large-scale request: a wide random instance whose
/// `--check` pass exercises the wavefront simulator at "millions of data
/// sets" scale (pair it with `--datasets 1000000` — the DAG engine could
/// not hold that many events in memory, the wavefront streams them).
fn example_large() -> SolveRequest {
    let apps = random_apps(
        &AppGenConfig { apps: 3, stages: (10, 14), ..Default::default() },
        2024,
    );
    let platform = random_fully_homogeneous(
        &PlatformGenConfig { procs: apps.total_stages() + 2, modes: (2, 2), ..Default::default() },
        2025,
    );
    let problem = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
    SolveRequest::new(
        "large-scale throughput study: minimum period over a 3-app, ~36-stage instance \
         (check with --datasets 1000000 to soak the wavefront simulator)",
        apps,
        platform,
        problem,
    )
}

/// The committed Benes request: the Section 2 instance solved over a
/// multistage (rearrangeable Benes) interconnect instead of dedicated
/// links. The router wraps the interval period solver in the routing
/// certificate (`Plan::Benes`), and `--check` replays the mapping
/// through the simulator with the fabric contention model.
fn example_benes() -> SolveRequest {
    let (apps, _) = section2_example();
    let procs = vec![Processor::new(vec![1.0, 3.0, 6.0, 8.0]).unwrap(); 3];
    let net = MultistageNetwork::new(1.0, 0.05).unwrap();
    let platform = Platform::multistage(procs, net).unwrap();
    let problem = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
    SolveRequest::new(
        "Section 2 instance over a Benes multistage fabric (minimum period, interval mapping)",
        apps,
        platform,
        problem,
    )
}

fn spec_example(which: Option<&str>) {
    match which {
        Some("batch") => {
            for req in example_batch() {
                println!("{}", req.to_json_compact().expect("serializable"));
            }
        }
        other => {
            let req = match other {
                Some("large") => example_large(),
                Some("benes") => example_benes(),
                _ => example_request(),
            };
            let json = req.to_json().expect("serializable");
            assert_eq!(SolveRequest::from_json(&json).expect("round-trips"), req);
            println!("{json}");
        }
    }
}

/// The value after the flag `name`, when the flag is given. Exits 2 with
/// "`name` needs `what`" when the value is missing, does not parse or
/// fails `valid`.
fn flag<T: FromStr>(args: &[String], name: &str, what: &str, valid: fn(&T) -> bool) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1).and_then(|v| v.parse::<T>().ok()) {
        Some(v) if valid(&v) => Some(v),
        _ => {
            eprintln!("{name} needs {what}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let check = args.iter().any(|a| a == "--check");
    let threads = flag(&args, "--threads", "a positive integer value", |&n: &usize| n > 0);
    // A single data set has no inter-completion gap: the measured period
    // would be NaN and every --check would spuriously fail.
    let datasets =
        flag(&args, "--datasets", "an integer value of at least 2", |&n: &usize| n >= 2)
            .unwrap_or(64);
    let file = args.get(1).filter(|a| !a.starts_with("--"));
    let file_or_usage = |usage: &str| -> String {
        file.cloned().unwrap_or_else(|| {
            eprintln!("usage: cpo-experiments {usage}");
            std::process::exit(2);
        })
    };
    let u64_flag = |name: &str, default: u64| {
        flag(&args, name, "a non-negative integer value", |_: &u64| true).unwrap_or(default)
    };
    match cmd {
        "fig1" => exit_unless(fig1()),
        "table1" => exit_unless(table1()),
        "table2" => exit_unless(table2()),
        "gadgets" => exit_unless(gadgets()),
        "scaling" => scaling(),
        "pareto" => pareto(),
        "extensions" => extensions(),
        "robustness" => robustness(),
        "dump" => dump(),
        "solve" => cmd_solve(
            &file_or_usage("solve <spec.json> [--check] [--threads N] [--datasets N]"),
            check,
            threads,
            datasets,
        ),
        "batch" => cmd_batch(
            &file_or_usage("batch <specs.jsonl> [--check] [--threads N] [--datasets N]"),
            check,
            threads,
            datasets,
        ),
        "replay" => cmd_replay(&file_or_usage("replay <bundle.json>")),
        "fuzz" => {
            let seconds = u64_flag("--seconds", 10);
            let seed = u64_flag("--seed", 0xC0FFEE);
            cmd_fuzz(seconds, seed, threads);
        }
        "serve" => {
            let str_flag = |flag: &str| -> Option<String> {
                args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
            };
            let f64_flag = |name: &str, default: f64| {
                flag(&args, name, "a non-negative number", |&x: &f64| x >= 0.0).unwrap_or(default)
            };
            let defaults = serve_cli::ServeCliOptions::default();
            let opts = serve_cli::ServeCliOptions {
                once: args.iter().any(|a| a == "--once"),
                socket: str_flag("--socket"),
                threads,
                queue: u64_flag("--queue", defaults.queue as u64).max(1) as usize,
                rate: f64_flag("--rate", defaults.rate),
                burst: f64_flag("--burst", defaults.burst),
                strikes: u64_flag("--strikes", u64::from(defaults.strikes)).max(1) as u32,
                check,
                datasets,
                stats_secs: u64_flag("--stats-secs", defaults.stats_secs),
                downgrade: args.iter().any(|a| a == "--downgrade"),
            };
            std::process::exit(serve_cli::cmd_serve(opts));
        }
        "spec-example" => spec_example(args.get(1).map(String::as_str)),
        "all" => {
            let ok = fig1() & table1() & table2() & gadgets();
            scaling();
            pareto();
            extensions();
            robustness();
            exit_unless(ok);
        }
        other => {
            eprintln!("unknown subcommand `{other}`");
            eprintln!(
                "usage: cpo-experiments [fig1|table1|table2|gadgets|scaling|pareto|extensions|\
                 robustness|dump|all]"
            );
            eprintln!(
                "       cpo-experiments solve <spec.json> [--check] [--threads N] [--datasets N]"
            );
            eprintln!(
                "       cpo-experiments batch <specs.jsonl> [--check] [--threads N] [--datasets N]"
            );
            eprintln!("       cpo-experiments replay <bundle.json>");
            eprintln!("       cpo-experiments fuzz [--seconds N] [--seed S] [--threads N]");
            eprintln!(
                "       cpo-experiments serve [--once] [--socket PATH] [--threads N] \
                 [--queue N] [--rate R] [--burst B] [--strikes K] [--check] [--datasets N] \
                 [--stats-secs S] [--downgrade]"
            );
            eprintln!("       cpo-experiments spec-example [batch|large|benes]");
            std::process::exit(2);
        }
    }
}
