//! Deterministic instance generators.
//!
//! The paper's evaluation is analytical; to *certify* its complexity tables
//! empirically we need reproducible synthetic instances. Everything here is
//! seeded (`rand::rngs::StdRng`), so every certified cell of Tables 1 and 2
//! (the cell table in `cpo_experiments::tables`, printed by
//! `cpo-experiments table1|table2`) can be regenerated bit-for-bit.
//!
//! Besides uniform random instances, the module ships the Section 2
//! motivating example ([`section2_example`]) and named realistic workloads
//! from the application domains the paper's introduction cites (video
//! encoding/decoding, DSP, image processing).

#![allow(clippy::needless_range_loop)]
use crate::application::{AppSet, Application, Stage};
use crate::platform::{Links, Platform, Processor};
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Ranges for random application generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppGenConfig {
    /// Number of applications.
    pub apps: usize,
    /// Min/max number of stages per application (inclusive).
    pub stages: (usize, usize),
    /// Computation requirement range.
    pub work: (f64, f64),
    /// Data size range (applied to `δ^0 … δ^n`).
    pub data: (f64, f64),
    /// Use integer-valued works/sizes (keeps arithmetic exact in tests).
    pub integral: bool,
}

impl Default for AppGenConfig {
    fn default() -> Self {
        AppGenConfig { apps: 2, stages: (2, 6), work: (1.0, 10.0), data: (0.0, 5.0), integral: true }
    }
}

/// Ranges for random platform generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformGenConfig {
    /// Number of processors.
    pub procs: usize,
    /// Min/max number of modes per processor (inclusive).
    pub modes: (usize, usize),
    /// Speed range.
    pub speed: (f64, f64),
    /// Bandwidth range (only used for heterogeneous links).
    pub bandwidth: (f64, f64),
    /// Static energy range.
    pub e_stat: (f64, f64),
    /// Use integer-valued speeds/bandwidths.
    pub integral: bool,
}

impl Default for PlatformGenConfig {
    fn default() -> Self {
        PlatformGenConfig {
            procs: 4,
            modes: (1, 3),
            speed: (1.0, 10.0),
            bandwidth: (1.0, 5.0),
            e_stat: (0.0, 0.0),
            integral: true,
        }
    }
}

fn sample(rng: &mut StdRng, range: (f64, f64), integral: bool) -> f64 {
    if range.0 == range.1 {
        return range.0;
    }
    if integral {
        rng.gen_range(range.0.round() as i64..=range.1.round() as i64) as f64
    } else {
        rng.gen_range(range.0..=range.1)
    }
}

fn sample_positive(rng: &mut StdRng, range: (f64, f64), integral: bool) -> f64 {
    let lo = range.0.max(if integral { 1.0 } else { f64::MIN_POSITIVE });
    sample(rng, (lo, range.1.max(lo)), integral)
}

/// Generate a random application set.
pub fn random_apps(cfg: &AppGenConfig, seed: u64) -> AppSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut apps = Vec::with_capacity(cfg.apps);
    for a in 0..cfg.apps {
        let n = rng.gen_range(cfg.stages.0..=cfg.stages.1);
        let input = sample(&mut rng, cfg.data, cfg.integral);
        let stages = (0..n)
            .map(|_| {
                Stage::new(
                    sample_positive(&mut rng, cfg.work, cfg.integral),
                    sample(&mut rng, cfg.data, cfg.integral),
                )
            })
            .collect();
        apps.push(
            Application::named(format!("rand-app-{a}"), input, stages, 1.0)
                .expect("generated stages are valid"),
        );
    }
    AppSet::new(apps).expect("at least one application")
}

/// Generate a fully homogeneous platform (identical speed sets, uniform
/// bandwidth).
pub fn random_fully_homogeneous(cfg: &PlatformGenConfig, seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = rng.gen_range(cfg.modes.0..=cfg.modes.1);
    let speeds: Vec<f64> =
        (0..m).map(|_| sample_positive(&mut rng, cfg.speed, cfg.integral)).collect();
    let b = sample_positive(&mut rng, cfg.bandwidth, cfg.integral);
    let e_stat = sample(&mut rng, cfg.e_stat, cfg.integral);
    let proto = Processor::new(speeds).expect("positive speeds").with_static_energy(e_stat);
    Platform::new(vec![proto; cfg.procs], Links::Uniform(b)).expect("valid platform")
}

/// Generate a communication homogeneous platform (heterogeneous speed sets,
/// uniform bandwidth).
pub fn random_comm_homogeneous(cfg: &PlatformGenConfig, seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    let procs = (0..cfg.procs)
        .map(|_| {
            let m = rng.gen_range(cfg.modes.0..=cfg.modes.1);
            let speeds: Vec<f64> =
                (0..m).map(|_| sample_positive(&mut rng, cfg.speed, cfg.integral)).collect();
            let e_stat = sample(&mut rng, cfg.e_stat, cfg.integral);
            Processor::new(speeds).expect("positive speeds").with_static_energy(e_stat)
        })
        .collect();
    let b = sample_positive(&mut rng, cfg.bandwidth, cfg.integral);
    Platform::new(procs, Links::Uniform(b)).expect("valid platform")
}

/// Generate a fully heterogeneous platform (heterogeneous speed sets and
/// per-pair bandwidths). `apps` is needed to size the input/output links.
pub fn random_fully_heterogeneous(cfg: &PlatformGenConfig, apps: usize, seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    let procs: Vec<Processor> = (0..cfg.procs)
        .map(|_| {
            let m = rng.gen_range(cfg.modes.0..=cfg.modes.1);
            let speeds: Vec<f64> =
                (0..m).map(|_| sample_positive(&mut rng, cfg.speed, cfg.integral)).collect();
            let e_stat = sample(&mut rng, cfg.e_stat, cfg.integral);
            Processor::new(speeds).expect("positive speeds").with_static_energy(e_stat)
        })
        .collect();
    let p = cfg.procs;
    let mut inter = vec![vec![0.0; p]; p];
    for u in 0..p {
        inter[u][u] = f64::INFINITY.min(cfg.bandwidth.1); // self-links unused; keep finite
        for v in (u + 1)..p {
            let b = sample_positive(&mut rng, cfg.bandwidth, cfg.integral);
            inter[u][v] = b;
            inter[v][u] = b; // bidirectional links
        }
    }
    let mut input = vec![vec![0.0; p]; apps];
    let mut output = vec![vec![0.0; p]; apps];
    for a in 0..apps {
        for u in 0..p {
            input[a][u] = sample_positive(&mut rng, cfg.bandwidth, cfg.integral);
            output[a][u] = sample_positive(&mut rng, cfg.bandwidth, cfg.integral);
        }
    }
    Platform::new(procs, Links::Heterogeneous { inter, input, output }).expect("valid platform")
}

/// The exact Section 2 / Figure 1 motivating example: two applications
/// (3 and 4 stages) and three bi-modal processors with speed sets
/// {3, 6}, {6, 8}, {1, 6}; all bandwidths 1; `E_dyn(s) = s²`.
pub fn section2_example() -> (AppSet, Platform) {
    let app1 = Application::named(
        "App1",
        1.0,
        vec![Stage::new(3.0, 3.0), Stage::new(2.0, 2.0), Stage::new(1.0, 0.0)],
        1.0,
    )
    .expect("valid");
    let app2 = Application::named(
        "App2",
        0.0,
        vec![Stage::new(2.0, 1.0), Stage::new(6.0, 1.0), Stage::new(4.0, 1.0), Stage::new(2.0, 1.0)],
        1.0,
    )
    .expect("valid");
    let apps = AppSet::new(vec![app1, app2]).expect("two applications");
    let platform = Platform::comm_homogeneous(
        vec![
            Processor::new(vec![3.0, 6.0]).expect("valid"),
            Processor::new(vec![6.0, 8.0]).expect("valid"),
            Processor::new(vec![1.0, 6.0]).expect("valid"),
        ],
        1.0,
    )
    .expect("valid platform");
    (apps, platform)
}

/// A 7-stage H.264-style video encoding chain (the "video encoding" workload
/// of the paper's introduction): capture → downsample → motion estimation →
/// transform → quantize → entropy-code → mux. Works and data sizes are per
/// macroblock-row batch, in arbitrary units.
pub fn video_encoding_app(weight: f64) -> Application {
    Application::named(
        "video-encode",
        8.0,
        vec![
            Stage::new(2.0, 8.0),  // capture / color convert
            Stage::new(4.0, 4.0),  // downsample
            Stage::new(16.0, 4.0), // motion estimation (dominant)
            Stage::new(6.0, 4.0),  // DCT transform
            Stage::new(3.0, 2.0),  // quantization
            Stage::new(5.0, 1.0),  // entropy coding
            Stage::new(1.0, 1.0),  // mux / packetize
        ],
        weight,
    )
    .expect("valid")
}

/// A 5-stage software-defined-radio DSP chain: FIR filter → decimate →
/// FFT → demodulate → decode.
pub fn dsp_radio_app(weight: f64) -> Application {
    Application::named(
        "dsp-radio",
        6.0,
        vec![
            Stage::new(5.0, 6.0), // FIR filter
            Stage::new(2.0, 3.0), // decimation
            Stage::new(8.0, 3.0), // FFT
            Stage::new(4.0, 2.0), // demodulation
            Stage::new(3.0, 1.0), // decoding
        ],
        weight,
    )
    .expect("valid")
}

/// A 6-stage image-processing chain (the DataCutter-style filtering workload
/// cited in the introduction): load → denoise → segment → feature-extract →
/// classify → archive.
pub fn image_pipeline_app(weight: f64) -> Application {
    Application::named(
        "image-pipeline",
        10.0,
        vec![
            Stage::new(1.0, 10.0), // load / decode
            Stage::new(6.0, 10.0), // denoise
            Stage::new(9.0, 5.0),  // segmentation
            Stage::new(7.0, 2.0),  // feature extraction
            Stage::new(4.0, 1.0),  // classification
            Stage::new(1.0, 1.0),  // archive
        ],
        weight,
    )
    .expect("valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformClass;

    #[test]
    fn generation_is_deterministic() {
        let cfg = AppGenConfig::default();
        let a = random_apps(&cfg, 42);
        let b = random_apps(&cfg, 42);
        assert_eq!(a, b);
        let c = random_apps(&cfg, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn platform_classes_come_out_right() {
        let cfg = PlatformGenConfig::default();
        let fh = random_fully_homogeneous(&cfg, 7);
        assert_eq!(fh.class(), PlatformClass::FullyHomogeneous);
        // Comm-homogeneous platforms have uniform links by construction; the
        // processors are random so the class is CommHomogeneous unless the
        // draw happens to be identical (possible on tiny configs) — check
        // links only.
        let ch = random_comm_homogeneous(&cfg, 7);
        assert!(ch.has_homogeneous_links());
        let het = random_fully_heterogeneous(&cfg, 2, 7);
        assert!(!het.has_homogeneous_links() || het.class() == PlatformClass::FullyHeterogeneous);
    }

    #[test]
    fn random_apps_respect_ranges() {
        let cfg = AppGenConfig { apps: 5, stages: (3, 4), work: (2.0, 9.0), data: (0.0, 3.0), integral: true };
        let set = random_apps(&cfg, 1);
        assert_eq!(set.a(), 5);
        for app in &set.apps {
            assert!(app.n() >= 3 && app.n() <= 4);
            for st in &app.stages {
                assert!(st.work >= 2.0 && st.work <= 9.0);
                assert!(st.output >= 0.0 && st.output <= 3.0);
                assert_eq!(st.work, st.work.round());
            }
        }
    }

    #[test]
    fn section2_shapes() {
        let (apps, pf) = section2_example();
        assert_eq!(apps.a(), 2);
        assert_eq!(apps.apps[0].n(), 3);
        assert_eq!(apps.apps[1].n(), 4);
        assert_eq!(pf.p(), 3);
        assert_eq!(pf.procs[1].speeds(), &[6.0, 8.0]);
    }

    #[test]
    fn named_workloads_are_valid() {
        for app in [video_encoding_app(1.0), dsp_radio_app(1.0), image_pipeline_app(1.0)] {
            assert!(app.n() >= 5);
            assert!(app.total_work() > 0.0);
        }
    }

    #[test]
    fn heterogeneous_links_are_symmetric() {
        let cfg = PlatformGenConfig { procs: 5, ..Default::default() };
        let pf = random_fully_heterogeneous(&cfg, 3, 9);
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(pf.bw_inter(0, u, v), pf.bw_inter(0, v, u));
            }
        }
    }
}
