//! The certified polynomial cells of the paper's Tables 1 and 2, defined
//! once.
//!
//! A [`Cell`] names a seeded instance family, the comm models and the
//! [`ProblemSpec`]s it poses on every instance, and the router [`Plan`]
//! those specs must resolve to. [`Cell::certify`] runs every case the same
//! way:
//!
//! 1. the router must [`plan`] the spec to the cell's algorithm;
//! 2. the fast side is solved with [`route`], the path `solve`, `batch`
//!    and `serve` dispatch through (behind the
//!    [`maybe_corrupt`](crate::trust::maybe_corrupt) fault-injection hook);
//! 3. the brute side is solved with the router's own
//!    [`Plan::ExactEnumeration`] arm through [`route_planned`];
//! 4. both must be infeasible, or both solutions with
//!    [`close`](crate::trust::close) objectives.
//!
//! `cpo-experiments table1|table2` prints one row per cell, and the
//! facade's `tests/certification.rs` asserts each cell.

use crate::trust::{close, maybe_corrupt};
use cpo_core::router::{plan, route, route_planned, Plan, RouterScratch};
use cpo_model::generator::{
    random_apps, random_comm_homogeneous, random_fully_homogeneous, AppGenConfig,
    PlatformGenConfig,
};
use cpo_model::prelude::*;

/// How many processors a family's platform gets.
#[derive(Debug, Clone, Copy)]
pub enum Procs {
    /// A fixed count.
    Fixed(usize),
    /// One per stage of the drawn applications, plus this many spares.
    PerStage(usize),
}

/// A seeded instance family: `random_apps` over `apps` applications of
/// `stages` stages drawn from `seed`, and a platform drawn by `platform`
/// from `seed + seed_offset`.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    pub apps: usize,
    pub stages: (usize, usize),
    pub platform: fn(&PlatformGenConfig, u64) -> Platform,
    pub procs: Procs,
    pub modes: (usize, usize),
    pub seed_offset: u64,
}

impl Family {
    /// The instance drawn for `seed`.
    pub fn instance(&self, seed: u64) -> (AppSet, Platform) {
        let app_cfg = AppGenConfig { apps: self.apps, stages: self.stages, ..Default::default() };
        let apps = random_apps(&app_cfg, seed);
        let procs = match self.procs {
            Procs::Fixed(p) => p,
            Procs::PerStage(spare) => apps.total_stages() + spare,
        };
        let pf_cfg = PlatformGenConfig { procs, modes: self.modes, ..Default::default() };
        (apps, (self.platform)(&pf_cfg, seed + self.seed_offset))
    }
}

/// One certified cell: every seed of every family, under every comm
/// model, poses the specs `specs` builds, each of which must plan to
/// `plan` and match exhaustive search.
pub struct Cell {
    pub label: &'static str,
    pub seeds: u64,
    pub families: &'static [Family],
    pub comms: &'static [CommModel],
    pub specs: fn(&AppSet, &Platform, CommModel) -> Vec<ProblemSpec>,
    pub plan: Plan,
}

/// What [`Cell::certify`] found.
#[derive(Debug, Default)]
pub struct Certification {
    /// Cases run (seed × family × comm model × spec).
    pub cases: usize,
    /// Cases where exhaustive search found a solution.
    pub feasible: usize,
    /// One line per disagreeing case.
    pub mismatches: Vec<String>,
}

impl Certification {
    /// Every case agrees, and at least one was feasible (a cell whose
    /// every case is infeasible certifies nothing).
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty() && self.feasible > 0
    }
}

impl Cell {
    /// Run every case of the cell (see the module docs).
    pub fn certify(&self) -> Certification {
        let mut report = Certification::default();
        let mut scratch = RouterScratch::new();
        for family in self.families {
            for seed in 0..self.seeds {
                let (apps, pf) = family.instance(seed);
                for &comm in self.comms {
                    for spec in (self.specs)(&apps, &pf, comm) {
                        if let Err(why) = self.check(&apps, &pf, &spec, &mut scratch, &mut report) {
                            let case = format!("stages {:?} seed {seed} {comm:?}", family.stages);
                            report.mismatches.push(format!("{case}: {why}"));
                        }
                    }
                }
            }
        }
        report
    }

    /// One case: plan, fast side, brute side, comparison.
    fn check(
        &self,
        apps: &AppSet,
        pf: &Platform,
        spec: &ProblemSpec,
        scratch: &mut RouterScratch,
        report: &mut Certification,
    ) -> Result<(), String> {
        report.cases += 1;
        let planned = plan(apps, pf, spec);
        if planned != Ok(self.plan) {
            return Err(format!("planned {planned:?}, expected {:?}", self.plan));
        }
        let fast = maybe_corrupt(route(apps, pf, spec));
        let brute = route_planned(apps, pf, spec, Plan::ExactEnumeration, scratch);
        report.feasible += usize::from(brute.is_success());
        match (&fast, &brute) {
            (SolveOutcome::Solution(f), SolveOutcome::Solution(b))
                if close(f.objective, b.objective) => Ok(()),
            (SolveOutcome::Infeasible { .. }, SolveOutcome::Infeasible { .. }) => Ok(()),
            _ => Err(format!("fast {fast:?} vs brute {brute:?}")),
        }
    }
}

/// Panic with the first disagreements unless every cell certifies.
pub fn assert_certified(cells: &[Cell]) {
    for cell in cells {
        let c = cell.certify();
        assert!(
            c.ok(),
            "{}: {} of {} cases disagree ({} feasible): {:#?}",
            cell.label,
            c.mismatches.len(),
            c.cases,
            c.feasible,
            &c.mismatches[..c.mismatches.len().min(5)]
        );
    }
}

const TABLE1_SEEDS: u64 = 100;
const TABLE2_SEEDS: u64 = 60;
const BOTH: &[CommModel] = &CommModel::ALL;
const OVERLAP: &[CommModel] = &[CommModel::Overlap];

/// Two applications on four identical processors.
const fn fully_hom(stages: (usize, usize), modes: (usize, usize), seed_offset: u64) -> Family {
    let platform = random_fully_homogeneous;
    Family { apps: 2, stages, platform, procs: Procs::Fixed(4), modes, seed_offset }
}

/// Applications of one to three stages on processors with distinct speeds.
const fn comm_hom(apps: usize, procs: Procs, modes: (usize, usize), seed_offset: u64) -> Family {
    let platform = random_comm_homogeneous;
    Family { apps, stages: (1, 3), platform, procs, modes, seed_offset }
}

/// Table 1, period / one-to-one / comm-hom (Theorem 1).
pub const THM1: Cell = Cell {
    label: "Period / one-to-one / com-hom",
    seeds: TABLE1_SEEDS,
    families: &[comm_hom(2, Procs::PerStage(1), (1, 2), 1000)],
    comms: BOTH,
    specs: |_, _, comm| vec![ProblemSpec::new(Objective::Period, Strategy::OneToOne, comm)],
    plan: Plan::PeriodOneToOne,
};

/// Table 1, period / interval / fully-hom (Theorem 3, Algorithm 2).
pub const THM3: Cell = Cell {
    label: "Period / interval / fully-hom",
    seeds: TABLE1_SEEDS,
    families: &[fully_hom((2, 4), (1, 2), 2000)],
    comms: BOTH,
    specs: |_, _, comm| vec![ProblemSpec::new(Objective::Period, Strategy::Interval, comm)],
    plan: Plan::PeriodInterval,
};

/// Table 1, latency / interval / comm-hom (Theorem 12).
pub const THM12: Cell = Cell {
    label: "Latency / interval / com-hom",
    seeds: TABLE1_SEEDS,
    families: &[comm_hom(3, Procs::Fixed(4), (1, 3), 3000)],
    comms: OVERLAP,
    specs: |_, _, comm| vec![ProblemSpec::new(Objective::Latency, Strategy::Interval, comm)],
    plan: Plan::LatencyInterval,
};

/// The Theorem 15/16 family: uni-modal fully homogeneous platforms.
const PERIOD_LATENCY: &[Family] = &[fully_hom((2, 4), (1, 1), 4000)];

/// Latency under period bounds at 1×, 1.5× and 3× the optimal period.
fn latency_under_period(apps: &AppSet, pf: &Platform, comm: CommModel) -> Vec<ProblemSpec> {
    let base = route(apps, pf, &ProblemSpec::new(Objective::Period, Strategy::Interval, comm))
        .objective()
        .expect("p >= A: an interval mapping exists");
    [1.0, 1.5, 3.0]
        .map(|f| {
            ProblemSpec::new(Objective::Latency, Strategy::Interval, comm)
                .with_period_bounds(vec![base * f; apps.a()])
        })
        .to_vec()
}

/// Table 2, period/latency, latency minimized (Theorems 15/16).
pub const THM16_LATENCY: Cell = Cell {
    label: "Period/Latency / fully-hom (L min)",
    seeds: TABLE2_SEEDS,
    families: PERIOD_LATENCY,
    comms: OVERLAP,
    specs: latency_under_period,
    plan: Plan::LatencyUnderPeriod,
};

/// Table 2, period/latency, period minimized (the Theorem 16 dual): under
/// 1.2× each latency reached by [`THM16_LATENCY`], and under a loose 10⁶.
pub const THM16_PERIOD: Cell = Cell {
    label: "Period/Latency / fully-hom (T min)",
    seeds: TABLE2_SEEDS,
    families: PERIOD_LATENCY,
    comms: OVERLAP,
    specs: |apps, pf, comm| {
        let period_under = |lb: f64| {
            ProblemSpec::new(Objective::Period, Strategy::Interval, comm)
                .with_latency_bounds(vec![lb; apps.a()])
        };
        latency_under_period(apps, pf, comm)
            .iter()
            .filter_map(|s| route(apps, pf, s).objective())
            .map(|l| period_under(l * 1.2))
            .chain([period_under(1e6)])
            .collect()
    },
    plan: Plan::PeriodUnderLatency,
};

/// Table 2, period/energy / one-to-one / comm-hom (Theorem 19).
pub const THM19: Cell = Cell {
    label: "Period/Energy / one-to-one / com-hom",
    seeds: TABLE2_SEEDS,
    families: &[comm_hom(2, Procs::PerStage(0), (2, 3), 5000)],
    comms: BOTH,
    // Loose enough to be often feasible, tight enough to force mode choices.
    specs: |apps, _, comm| {
        let tb = apps.apps.iter().map(|a| a.total_work() / 2.0 + 2.0).collect();
        vec![ProblemSpec::new(Objective::Energy, Strategy::OneToOne, comm).with_period_bounds(tb)]
    },
    plan: Plan::EnergyMatching,
};

/// Table 2, period/energy / interval / fully-hom (Theorems 18/21).
pub const THM18_21: Cell = Cell {
    label: "Period/Energy / interval / fully-hom",
    seeds: TABLE2_SEEDS,
    families: &[fully_hom((1, 3), (2, 3), 6000), fully_hom((2, 3), (2, 3), 6000)],
    comms: BOTH,
    specs: |apps, _, comm| {
        let tb = apps.apps.iter().map(|a| a.total_work() / 3.0 + 2.0).collect();
        vec![ProblemSpec::new(Objective::Energy, Strategy::Interval, comm).with_period_bounds(tb)]
    },
    plan: Plan::EnergyInterval,
};

/// The Theorem 24 families: both application shapes, uni-modal.
const UNI_MODAL: &[Family] = &[fully_hom((1, 3), (1, 1), 7000), fully_hom((2, 3), (1, 1), 7000)];

/// Energy budgets of 2, 3 and 4 processors' worth at the single speed.
fn budgets(pf: &Platform) -> [f64; 3] {
    let per_proc = EnergyModel::default().dynamic(pf.procs[0].max_speed());
    [2.0, 3.0, 4.0].map(|procs| per_proc * procs + 1e-6)
}

/// Table 2, tri-criteria / uni-modal, latency minimized (Theorem 24).
pub const THM24_LATENCY: Cell = Cell {
    label: "Tri-criteria / uni-modal / fully-hom (L min)",
    seeds: TABLE2_SEEDS,
    families: UNI_MODAL,
    comms: OVERLAP,
    specs: |apps, pf, comm| {
        let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() + 5.0).collect();
        budgets(pf)
            .map(|e| {
                ProblemSpec::new(Objective::Latency, Strategy::Interval, comm)
                    .with_period_bounds(tb.clone())
                    .with_energy_budget(e)
            })
            .to_vec()
    },
    plan: Plan::LatencyTriUnimodal,
};

/// Table 2, tri-criteria / uni-modal, period minimized (Theorem 24):
/// latency bounds at 1×, 1.3× and 3× each application's single-interval
/// latency (splitting only adds communication, so 1× forces one processor
/// per application).
pub const THM24_PERIOD: Cell = Cell {
    label: "Tri-criteria / uni-modal / fully-hom (T min)",
    seeds: TABLE2_SEEDS,
    families: UNI_MODAL,
    comms: OVERLAP,
    specs: |apps, pf, comm| {
        let s = pf.procs[0].max_speed();
        let b = pf.uniform_comm(0).expect("uniform links").bandwidth;
        let single =
            |a: &Application| a.total_work() / s + (a.input_of(0) + a.output_of(a.n() - 1)) / b;
        let mut specs = Vec::new();
        for e in budgets(pf) {
            for factor in [1.0, 1.3, 3.0] {
                let lb = apps.apps.iter().map(|a| factor * single(a)).collect();
                specs.push(
                    ProblemSpec::new(Objective::Period, Strategy::Interval, comm)
                        .with_latency_bounds(lb)
                        .with_energy_budget(e),
                );
            }
        }
        specs
    },
    plan: Plan::PeriodTriUnimodal,
};
