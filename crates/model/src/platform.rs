//! Target platform (Section 3.2 of the paper).
//!
//! The platform has `p` fully interconnected processors. Every processor
//! `P_u` is *multi-modal*: it owns a discrete speed set
//! `S_u = {s_{u,1}, …, s_{u,m_u}}` (DVFS modes); during the mapping process
//! one speed is selected per enrolled processor and stays fixed for the
//! whole execution. Additionally, `2A` virtual processors `P_in_a` /
//! `P_out_a` carry the external input/output of each application.
//!
//! Three platform classes are distinguished:
//! * **fully homogeneous** — identical speed sets and a single link
//!   bandwidth `b`;
//! * **communication homogeneous** — identical links, heterogeneous speed
//!   sets (the proofs of Theorems 1 and 12 additionally allow a
//!   per-application bandwidth `b_a`, which [`Links::PerApp`] models);
//! * **fully heterogeneous** — arbitrary per-pair bandwidths.

use crate::error::ModelError;
use crate::topology::{CommTopology, MultistageNetwork, UniformComm};
use serde::{Deserialize, Serialize};

/// One multi-modal processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Processor {
    /// Available speeds (modes) `S_u`, sorted ascending, strictly positive.
    speeds: Vec<f64>,
    /// Static energy cost `E_stat(u)` paid whenever the processor is
    /// enrolled, independently of the selected speed.
    pub e_stat: f64,
}

impl Processor {
    /// Build a processor from its speed set; speeds are sorted and deduped.
    pub fn new(mut speeds: Vec<f64>) -> Result<Self, ModelError> {
        if speeds.is_empty() {
            return Err(ModelError::InvalidProcessor { proc: usize::MAX, reason: "empty speed set" });
        }
        if speeds.iter().any(|s| !(s.is_finite() && *s > 0.0)) {
            return Err(ModelError::InvalidProcessor { proc: usize::MAX, reason: "non-positive speed" });
        }
        speeds.sort_by(|a, b| a.partial_cmp(b).expect("finite speeds"));
        speeds.dedup();
        Ok(Processor { speeds, e_stat: 0.0 })
    }

    /// Build a uni-modal processor (a single speed).
    pub fn uni_modal(speed: f64) -> Result<Self, ModelError> {
        Processor::new(vec![speed])
    }

    /// Attach a static energy cost.
    pub fn with_static_energy(mut self, e_stat: f64) -> Self {
        self.e_stat = e_stat;
        self
    }

    /// The speed set, ascending.
    #[inline]
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// Number of modes `m_u`.
    #[inline]
    pub fn modes(&self) -> usize {
        self.speeds.len()
    }

    /// Speed of mode `m` (0-based, ascending order).
    #[inline]
    pub fn speed(&self, mode: usize) -> f64 {
        self.speeds[mode]
    }

    /// Highest speed `s_{u,m_u}`.
    #[inline]
    pub fn max_speed(&self) -> f64 {
        *self.speeds.last().expect("non-empty")
    }

    /// Lowest speed `s_{u,1}`.
    #[inline]
    pub fn min_speed(&self) -> f64 {
        self.speeds[0]
    }

    /// Smallest mode whose speed is at least `s`, if any.
    pub fn slowest_mode_at_least(&self, s: f64) -> Option<usize> {
        self.speeds.iter().position(|&sp| crate::num::ge(sp, s))
    }

    /// Whether the processor has a single mode.
    #[inline]
    pub fn is_uni_modal(&self) -> bool {
        self.speeds.len() == 1
    }
}

/// Interconnection bandwidths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Links {
    /// A single bandwidth `b` for every link (fully homogeneous and
    /// communication homogeneous platforms).
    Uniform(f64),
    /// One bandwidth `b_a` per application, identical for all links carrying
    /// data of application `a` (the communication-homogeneous setting of the
    /// Theorem 1 greedy).
    PerApp(Vec<f64>),
    /// Fully heterogeneous bandwidths.
    Heterogeneous {
        /// `inter[u][v]` = bandwidth of the bidirectional link `P_u ↔ P_v`.
        inter: Vec<Vec<f64>>,
        /// `input[a][u]` = bandwidth `P_in_a → P_u`.
        input: Vec<Vec<f64>>,
        /// `output[a][u]` = bandwidth `P_u → P_out_a`.
        output: Vec<Vec<f64>>,
    },
}

/// Platform classification (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlatformClass {
    /// Identical processors and identical links.
    FullyHomogeneous,
    /// Identical links, heterogeneous processors.
    CommHomogeneous,
    /// Heterogeneous processors and links.
    FullyHeterogeneous,
}

/// The target execution platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// The `p` computation processors.
    pub procs: Vec<Processor>,
    /// Link bandwidths. Under [`CommTopology::Multistage`] this is a
    /// consistency shadow (`Links::Uniform(link_bandwidth)`); the
    /// topology owns the communication cost.
    pub links: Links,
    /// The interconnect carrying the transfers. Defaults to
    /// [`CommTopology::Dedicated`] — existing serialized platforms parse
    /// unchanged and keep their exact pre-topology semantics.
    #[serde(default)]
    pub topology: CommTopology,
}

impl Platform {
    /// Build a platform, validating bandwidths.
    pub fn new(procs: Vec<Processor>, links: Links) -> Result<Self, ModelError> {
        if procs.is_empty() {
            return Err(ModelError::InvalidProcessor { proc: 0, reason: "no processor" });
        }
        match &links {
            Links::Uniform(b) => {
                if !(b.is_finite() && *b > 0.0) {
                    return Err(ModelError::InvalidBandwidth { reason: "non-positive uniform bandwidth" });
                }
            }
            Links::PerApp(bs) => {
                if bs.is_empty() || bs.iter().any(|b| !(b.is_finite() && *b > 0.0)) {
                    return Err(ModelError::InvalidBandwidth { reason: "non-positive per-app bandwidth" });
                }
            }
            Links::Heterogeneous { inter, input, output } => {
                if inter.len() != procs.len() {
                    return Err(ModelError::DimensionMismatch { what: "inter bandwidth rows", expected: procs.len(), found: inter.len() });
                }
                for row in inter {
                    if row.len() != procs.len() {
                        return Err(ModelError::DimensionMismatch { what: "inter bandwidth cols", expected: procs.len(), found: row.len() });
                    }
                    if row.iter().any(|b| !(b.is_finite() && *b > 0.0)) {
                        return Err(ModelError::InvalidBandwidth { reason: "non-positive inter bandwidth" });
                    }
                }
                for (mat, what) in [(input, "input bandwidth"), (output, "output bandwidth")] {
                    for row in mat {
                        if row.len() != procs.len() {
                            return Err(ModelError::DimensionMismatch { what, expected: procs.len(), found: row.len() });
                        }
                        if row.iter().any(|b| !(b.is_finite() && *b > 0.0)) {
                            return Err(ModelError::InvalidBandwidth { reason: "non-positive edge bandwidth" });
                        }
                    }
                }
            }
        }
        Ok(Platform { procs, links, topology: CommTopology::Dedicated })
    }

    /// Replace the communication topology, validating its parameters.
    pub fn with_topology(mut self, topology: CommTopology) -> Result<Self, ModelError> {
        if let CommTopology::Multistage(net) = &topology {
            net.validate()?;
        }
        self.topology = topology;
        Ok(self)
    }

    /// Platform whose processors communicate through a Benes multistage
    /// interconnect. The `links` field is set to the uniform shadow
    /// `Links::Uniform(net.link_bandwidth)` for backward-compatible
    /// consumers; all communication cost is owned by the topology.
    pub fn multistage(procs: Vec<Processor>, net: MultistageNetwork) -> Result<Self, ModelError> {
        net.validate()?;
        Platform::new(procs, Links::Uniform(net.link_bandwidth))?
            .with_topology(CommTopology::Multistage(net))
    }

    /// Fully homogeneous platform: `p` copies of the same speed set, uniform
    /// bandwidth `b`, optional static energy.
    pub fn fully_homogeneous(p: usize, speeds: Vec<f64>, b: f64) -> Result<Self, ModelError> {
        let proto = Processor::new(speeds)?;
        Platform::new(vec![proto; p], Links::Uniform(b))
    }

    /// Communication homogeneous platform: given processors, uniform links.
    pub fn comm_homogeneous(procs: Vec<Processor>, b: f64) -> Result<Self, ModelError> {
        Platform::new(procs, Links::Uniform(b))
    }

    /// Number of processors `p`.
    #[inline]
    pub fn p(&self) -> usize {
        self.procs.len()
    }

    /// Bandwidth of the link `P_u ↔ P_v` carrying data of application `app`.
    #[inline]
    pub fn bw_inter(&self, app: usize, u: usize, v: usize) -> f64 {
        match &self.links {
            Links::Uniform(b) => *b,
            Links::PerApp(bs) => bs[app],
            Links::Heterogeneous { inter, .. } => inter[u][v],
        }
    }

    /// Bandwidth of `P_in_app → P_u`.
    #[inline]
    pub fn bw_input(&self, app: usize, u: usize) -> f64 {
        match &self.links {
            Links::Uniform(b) => *b,
            Links::PerApp(bs) => bs[app],
            Links::Heterogeneous { input, .. } => input[app][u],
        }
    }

    /// Bandwidth of `P_u → P_out_app`.
    #[inline]
    pub fn bw_output(&self, app: usize, u: usize) -> f64 {
        match &self.links {
            Links::Uniform(b) => *b,
            Links::PerApp(bs) => bs[app],
            Links::Heterogeneous { output, .. } => output[app][u],
        }
    }

    /// Whether the platform's interconnect is a multistage network.
    #[inline]
    pub fn is_multistage(&self) -> bool {
        self.topology.is_multistage()
    }

    /// Transfer time of the input edge `P_in_app → P_u` for `bytes` data.
    ///
    /// `Dedicated` platforms evaluate exactly `bytes / bw_input(app, u)`
    /// (the pre-topology expression, bit for bit). `Multistage` platforms
    /// use the dedicated front-end link: `bytes / link_bandwidth`, no
    /// stage traversal.
    #[inline]
    pub fn transfer_time_input(&self, app: usize, u: usize, bytes: f64) -> f64 {
        match &self.topology {
            CommTopology::Dedicated => bytes / self.bw_input(app, u),
            CommTopology::Multistage(net) => bytes / net.link_bandwidth,
        }
    }

    /// Transfer time of the inter-processor edge `P_u → P_v` for `bytes`
    /// data.
    ///
    /// `Dedicated`: exactly `bytes / bw_inter(app, u, v)`. `Multistage`:
    /// the transfer traverses all `2·log₂N − 1` switch stages —
    /// `bytes / link_bandwidth + traversal_overhead(p)` (the add is
    /// skipped entirely when the overhead is zero, preserving `-0.0`
    /// bit patterns).
    #[inline]
    pub fn transfer_time_inter(&self, app: usize, u: usize, v: usize, bytes: f64) -> f64 {
        match &self.topology {
            CommTopology::Dedicated => bytes / self.bw_inter(app, u, v),
            CommTopology::Multistage(net) => {
                let t = bytes / net.link_bandwidth;
                let overhead = net.traversal_overhead(self.p());
                if overhead != 0.0 {
                    t + overhead
                } else {
                    t
                }
            }
        }
    }

    /// Transfer time of the output edge `P_u → P_out_app` for `bytes`
    /// data. Same contract as [`Platform::transfer_time_input`].
    #[inline]
    pub fn transfer_time_output(&self, app: usize, u: usize, bytes: f64) -> f64 {
        match &self.topology {
            CommTopology::Dedicated => bytes / self.bw_output(app, u),
            CommTopology::Multistage(net) => bytes / net.link_bandwidth,
        }
    }

    /// The uniform communication structure seen by application `app`, if
    /// the platform is comm-homogeneous from that application's point of
    /// view: a single bandwidth plus a per-transfer inter-processor
    /// overhead. `Heterogeneous` matrices that hold one bandwidth
    /// throughout are the `Uniform` platform spelled out and get the same
    /// structure. `None` on any other heterogeneous links (and on `PerApp`
    /// links missing an entry for `app` — see
    /// [`Platform::validate_for_apps`]). This is the one definition of
    /// uniform links: [`Platform::has_homogeneous_links`] derives from it.
    pub fn uniform_comm(&self, app: usize) -> Option<UniformComm> {
        match &self.topology {
            CommTopology::Multistage(net) => Some(UniformComm {
                bandwidth: net.link_bandwidth,
                inter_overhead: net.traversal_overhead(self.p()),
            }),
            CommTopology::Dedicated => match &self.links {
                Links::Uniform(b) => Some(UniformComm::dedicated(*b)),
                Links::PerApp(bs) => bs.get(app).map(|&b| UniformComm::dedicated(b)),
                Links::Heterogeneous { inter, input, output } => {
                    let mut all = inter.iter().chain(input).chain(output).flatten();
                    let b = *all.next()?;
                    all.all(|&x| x == b).then(|| UniformComm::dedicated(b))
                }
            },
        }
    }

    /// Validate that the platform can serve an instance of `apps`
    /// applications: `PerApp` bandwidth vectors and heterogeneous
    /// input/output matrices must cover every application index. This is
    /// the instance-assembly check that turns the historical
    /// `bs[app]` out-of-bounds panic into a typed error.
    pub fn validate_for_apps(&self, apps: usize) -> Result<(), ModelError> {
        match &self.links {
            Links::Uniform(_) => Ok(()),
            Links::PerApp(bs) => {
                if bs.len() < apps {
                    Err(ModelError::DimensionMismatch {
                        what: "per-app bandwidth entries",
                        expected: apps,
                        found: bs.len(),
                    })
                } else {
                    Ok(())
                }
            }
            Links::Heterogeneous { input, output, .. } => {
                if input.len() < apps {
                    return Err(ModelError::DimensionMismatch {
                        what: "input bandwidth rows",
                        expected: apps,
                        found: input.len(),
                    });
                }
                if output.len() < apps {
                    return Err(ModelError::DimensionMismatch {
                        what: "output bandwidth rows",
                        expected: apps,
                        found: output.len(),
                    });
                }
                Ok(())
            }
        }
    }

    /// Whether every link has the same bandwidth: every application sees
    /// the same [`Platform::uniform_comm`] (always true under a multistage
    /// topology: the fabric is built from identical links).
    pub fn has_homogeneous_links(&self) -> bool {
        let apps = match &self.links {
            Links::PerApp(bs) => bs.len(),
            _ => 1,
        };
        let first = self.uniform_comm(0);
        first.is_some() && (1..apps).all(|a| self.uniform_comm(a) == first)
    }

    /// Whether all processors share the same speed set and static energy.
    pub fn has_homogeneous_processors(&self) -> bool {
        self.procs.windows(2).all(|w| w[0] == w[1])
    }

    /// Classify per Section 3.2.
    pub fn class(&self) -> PlatformClass {
        if self.has_homogeneous_links() {
            if self.has_homogeneous_processors() {
                PlatformClass::FullyHomogeneous
            } else {
                PlatformClass::CommHomogeneous
            }
        } else {
            PlatformClass::FullyHeterogeneous
        }
    }

    /// Whether every processor is uni-modal (single speed).
    pub fn is_uni_modal(&self) -> bool {
        self.procs.iter().all(Processor::is_uni_modal)
    }

    /// Indices of processors sorted by ascending maximal speed (ties by
    /// index). Used by the greedy procedures of Theorems 1 and 12.
    pub fn procs_by_max_speed(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.p()).collect();
        idx.sort_by(|&a, &b| {
            self.procs[a]
                .max_speed()
                .partial_cmp(&self.procs[b].max_speed())
                .expect("finite speeds")
                .then(a.cmp(&b))
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_sorts_and_dedups_speeds() {
        let p = Processor::new(vec![6.0, 3.0, 3.0]).unwrap();
        assert_eq!(p.speeds(), &[3.0, 6.0]);
        assert_eq!(p.modes(), 2);
        assert_eq!(p.min_speed(), 3.0);
        assert_eq!(p.max_speed(), 6.0);
        assert_eq!(p.slowest_mode_at_least(4.0), Some(1));
        assert_eq!(p.slowest_mode_at_least(3.0), Some(0));
        assert_eq!(p.slowest_mode_at_least(7.0), None);
    }

    #[test]
    fn rejects_bad_processors_and_links() {
        assert!(Processor::new(vec![]).is_err());
        assert!(Processor::new(vec![0.0]).is_err());
        assert!(Processor::new(vec![-1.0]).is_err());
        assert!(Platform::fully_homogeneous(2, vec![1.0], 0.0).is_err());
        assert!(Platform::new(vec![], Links::Uniform(1.0)).is_err());
        let p = Processor::uni_modal(1.0).unwrap();
        let bad = Links::Heterogeneous { inter: vec![vec![1.0]], input: vec![], output: vec![] };
        assert!(Platform::new(vec![p.clone(), p], bad).is_err());
    }

    #[test]
    fn classification() {
        let fh = Platform::fully_homogeneous(3, vec![1.0, 2.0], 1.0).unwrap();
        assert_eq!(fh.class(), PlatformClass::FullyHomogeneous);
        assert!(!fh.is_uni_modal());

        let ch = Platform::comm_homogeneous(
            vec![Processor::uni_modal(1.0).unwrap(), Processor::uni_modal(2.0).unwrap()],
            1.0,
        )
        .unwrap();
        assert_eq!(ch.class(), PlatformClass::CommHomogeneous);
        assert!(ch.is_uni_modal());

        let het = Platform::new(
            vec![Processor::uni_modal(1.0).unwrap(), Processor::uni_modal(2.0).unwrap()],
            Links::Heterogeneous {
                inter: vec![vec![1.0, 2.0], vec![2.0, 1.0]],
                input: vec![vec![1.0, 1.0]],
                output: vec![vec![1.0, 1.0]],
            },
        )
        .unwrap();
        assert_eq!(het.class(), PlatformClass::FullyHeterogeneous);
    }

    #[test]
    fn per_app_links_classify_as_heterogeneous_unless_equal() {
        let procs = vec![Processor::uni_modal(1.0).unwrap(); 2];
        let pa = Platform::new(procs.clone(), Links::PerApp(vec![1.0, 1.0])).unwrap();
        assert_eq!(pa.class(), PlatformClass::FullyHomogeneous);
        let pa2 = Platform::new(procs, Links::PerApp(vec![1.0, 2.0])).unwrap();
        assert_eq!(pa2.class(), PlatformClass::FullyHeterogeneous);
        assert_eq!(pa2.bw_inter(1, 0, 1), 2.0);
        assert_eq!(pa2.bw_input(0, 1), 1.0);
    }

    #[test]
    fn multistage_platform_basics() {
        let net = MultistageNetwork::new(2.0, 0.5).unwrap();
        let pf = Platform::multistage(vec![Processor::uni_modal(1.0).unwrap(); 4], net).unwrap();
        assert!(pf.is_multistage());
        assert!(pf.has_homogeneous_links());
        assert_eq!(pf.class(), PlatformClass::FullyHomogeneous);
        // I/O edges bypass the fabric; inter edges pay 3 stages × 0.5.
        assert_eq!(pf.transfer_time_input(0, 2, 4.0), 2.0);
        assert_eq!(pf.transfer_time_output(0, 2, 4.0), 2.0);
        assert_eq!(pf.transfer_time_inter(0, 1, 2, 4.0), 3.5);
        let uc = pf.uniform_comm(0).unwrap();
        assert_eq!(uc.bandwidth, 2.0);
        assert_eq!(uc.inter_overhead, 1.5);
        // The links shadow mirrors the fabric bandwidth.
        assert_eq!(pf.links, Links::Uniform(2.0));
        assert!(Platform::multistage(
            vec![Processor::uni_modal(1.0).unwrap()],
            MultistageNetwork { link_bandwidth: 0.0, hop_latency: 0.0 },
        )
        .is_err());
    }

    #[test]
    fn dedicated_transfer_times_are_the_bare_divisions() {
        let pf = Platform::fully_homogeneous(3, vec![1.0], 2.0).unwrap();
        assert!(!pf.is_multistage());
        for bytes in [0.0, -0.0, 3.0, 7.5] {
            assert_eq!(
                pf.transfer_time_input(0, 1, bytes).to_bits(),
                (bytes / 2.0).to_bits()
            );
            assert_eq!(
                pf.transfer_time_inter(0, 0, 1, bytes).to_bits(),
                (bytes / 2.0).to_bits()
            );
            assert_eq!(
                pf.transfer_time_output(0, 2, bytes).to_bits(),
                (bytes / 2.0).to_bits()
            );
        }
    }

    #[test]
    fn validate_for_apps_covers_per_app_and_heterogeneous() {
        let procs = vec![Processor::uni_modal(1.0).unwrap(); 2];
        let pa = Platform::new(procs.clone(), Links::PerApp(vec![1.0])).unwrap();
        assert!(pa.validate_for_apps(1).is_ok());
        assert!(matches!(
            pa.validate_for_apps(2),
            Err(ModelError::DimensionMismatch { expected: 2, found: 1, .. })
        ));
        assert!(pa.uniform_comm(1).is_none());
        let het = Platform::new(
            procs.clone(),
            Links::Heterogeneous {
                inter: vec![vec![1.0, 1.0], vec![1.0, 1.0]],
                input: vec![vec![1.0, 1.0]],
                output: vec![vec![1.0, 1.0]],
            },
        )
        .unwrap();
        assert!(het.validate_for_apps(1).is_ok());
        assert!(het.validate_for_apps(2).is_err());
        let uni = Platform::new(procs, Links::Uniform(1.0)).unwrap();
        assert!(uni.validate_for_apps(100).is_ok());
    }

    #[test]
    fn procs_sorted_by_speed() {
        let pf = Platform::comm_homogeneous(
            vec![
                Processor::uni_modal(5.0).unwrap(),
                Processor::uni_modal(1.0).unwrap(),
                Processor::uni_modal(3.0).unwrap(),
            ],
            1.0,
        )
        .unwrap();
        assert_eq!(pf.procs_by_max_speed(), vec![1, 2, 0]);
    }
}
