//! Applicative framework (Section 3.1 of the paper).
//!
//! `A` independent application workflows run concurrently; application `a`
//! is a linear chain of `n_a` stages. Stage `S_a^k` (1-based in the paper,
//! 0-based here) has computation requirement `w_a^k` and emits output data
//! of size `δ_a^k` towards the next stage; the chain reads `δ_a^0` from the
//! dedicated input processor `P_in_a` and the last stage sends `δ_a^{n_a}`
//! to the dedicated output processor `P_out_a`.

use crate::error::ModelError;
use serde::{Deserialize, Serialize};

/// One pipeline stage: computation requirement `w` and output data size `δ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Computation requirement `w_a^k` (operations).
    pub work: f64,
    /// Size `δ_a^k` of the data emitted towards the next stage (or towards
    /// `P_out_a` for the last stage).
    pub output: f64,
}

impl Stage {
    /// Build a stage from its computation requirement and output size.
    pub fn new(work: f64, output: f64) -> Self {
        Stage { work, output }
    }
}

/// A linear-chain pipelined application.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Application {
    /// Size `δ_a^0` of the input data read from `P_in_a`.
    pub input: f64,
    /// The `n_a` stages, in chain order.
    pub stages: Vec<Stage>,
    /// Priority weight `W_a > 0` of Eq. (6); `1.0` recovers the plain max.
    pub weight: f64,
    /// Optional human-readable name (used by examples and reports).
    pub name: String,
    /// Prefix sums of stage works: `work_prefix[k] = Σ_{i<k} w_i`, so that
    /// any interval work sum is O(1).
    #[serde(skip_serializing)]
    work_prefix: Vec<f64>,
}

/// The serialized fields of an [`Application`], before validation.
#[derive(Deserialize)]
struct RawApplication {
    input: f64,
    stages: Vec<Stage>,
    weight: f64,
    #[serde(default)]
    name: String,
}

impl RawApplication {
    fn build(self) -> Result<Application, ModelError> {
        let name = if self.name.is_empty() { "app".to_string() } else { self.name };
        Application::named(name, self.input, self.stages, self.weight)
    }
}

impl<'de> Deserialize<'de> for Application {
    /// Deserialize through the validating constructor so the prefix-sum
    /// cache is always rebuilt (and invalid stage data rejected) — archived
    /// JSON can be hand-edited safely.
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        RawApplication::deserialize(deserializer)?.build().map_err(serde::de::Error::custom)
    }
}

impl Application {
    /// Build an application; validates stage data.
    pub fn new(input: f64, stages: Vec<Stage>, weight: f64) -> Result<Self, ModelError> {
        Self::named("app", input, stages, weight)
    }

    /// Build a named application; validates stage data.
    pub fn named(
        name: impl Into<String>,
        input: f64,
        stages: Vec<Stage>,
        weight: f64,
    ) -> Result<Self, ModelError> {
        if stages.is_empty() {
            return Err(ModelError::EmptyApplication);
        }
        if !(weight.is_finite() && weight > 0.0) {
            return Err(ModelError::InvalidWeight { app: None });
        }
        if !(input.is_finite() && input >= 0.0) {
            return Err(ModelError::InvalidStage { app: None, stage: 0, reason: "invalid input size" });
        }
        for (k, st) in stages.iter().enumerate() {
            if !(st.work.is_finite() && st.work >= 0.0) {
                return Err(ModelError::InvalidStage { app: None, stage: k, reason: "negative or non-finite work" });
            }
            if !(st.output.is_finite() && st.output >= 0.0) {
                return Err(ModelError::InvalidStage { app: None, stage: k, reason: "negative or non-finite output size" });
            }
        }
        let mut work_prefix = Vec::with_capacity(stages.len() + 1);
        work_prefix.push(0.0);
        let mut acc = 0.0;
        for st in &stages {
            acc += st.work;
            work_prefix.push(acc);
        }
        Ok(Application { input, stages, weight, name: name.into(), work_prefix })
    }

    /// Shorthand: build from `(work, output)` pairs with weight 1.
    pub fn from_pairs(input: f64, pairs: &[(f64, f64)]) -> Self {
        Application::new(input, pairs.iter().map(|&(w, d)| Stage::new(w, d)).collect(), 1.0)
            .expect("valid pairs")
    }

    /// Number of stages `n_a`.
    #[inline]
    pub fn n(&self) -> usize {
        self.stages.len()
    }

    /// Total computation requirement `Σ_k w_a^k`.
    #[inline]
    pub fn total_work(&self) -> f64 {
        self.work_prefix[self.stages.len()]
    }

    /// Sum of works over the 0-based inclusive stage interval `[first, last]`.
    #[inline]
    pub fn interval_work(&self, first: usize, last: usize) -> f64 {
        debug_assert!(first <= last && last < self.n());
        self.work_prefix[last + 1] - self.work_prefix[first]
    }

    /// Data size entering stage `k` (0-based): `δ_a^0` for the first stage,
    /// otherwise the output of stage `k-1`.
    #[inline]
    pub fn input_of(&self, k: usize) -> f64 {
        if k == 0 {
            self.input
        } else {
            self.stages[k - 1].output
        }
    }

    /// Data size leaving stage `k` (0-based): `δ_a^{k+1}` in paper notation.
    #[inline]
    pub fn output_of(&self, k: usize) -> f64 {
        self.stages[k].output
    }

    /// Size of the final result `δ_a^{n_a}`.
    #[inline]
    pub fn result_size(&self) -> f64 {
        self.stages[self.n() - 1].output
    }
}

/// The set of `A` concurrent applications.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AppSet {
    /// The applications, indexed by `a ∈ {0, …, A-1}`.
    pub apps: Vec<Application>,
}

impl<'de> Deserialize<'de> for AppSet {
    /// Validate each application like [`Application`]'s own deserializer,
    /// and name the rejected application by its index in the set.
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            apps: Vec<RawApplication>,
        }
        let apps = Raw::deserialize(deserializer)?
            .apps
            .into_iter()
            .enumerate()
            .map(|(a, raw)| raw.build().map_err(|e| e.in_app(a)))
            .collect::<Result<_, _>>()
            .map_err(serde::de::Error::custom)?;
        Ok(AppSet { apps })
    }
}

impl AppSet {
    /// Build a set; validates it is non-empty.
    pub fn new(apps: Vec<Application>) -> Result<Self, ModelError> {
        if apps.is_empty() {
            return Err(ModelError::EmptyApplication);
        }
        Ok(AppSet { apps })
    }

    /// Build from a single application.
    pub fn single(app: Application) -> Self {
        AppSet { apps: vec![app] }
    }

    /// Number of applications `A`.
    #[inline]
    pub fn a(&self) -> usize {
        self.apps.len()
    }

    /// Total number of stages `N = Σ_a n_a`.
    #[inline]
    pub fn total_stages(&self) -> usize {
        self.apps.iter().map(|a| a.n()).sum()
    }

    /// Largest chain length `n_max`.
    #[inline]
    pub fn n_max(&self) -> usize {
        self.apps.iter().map(|a| a.n()).max().unwrap_or(0)
    }

    /// Iterate over `(app index, stage index)` pairs for all `N` stages.
    pub fn stage_indices(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.apps.iter().enumerate().flat_map(|(a, app)| (0..app.n()).map(move |k| (a, k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app123() -> Application {
        // The first application of the Section 2 example: input 1, stages
        // (3 ops, out 3), (2 ops, out 2), (1 op, out 0).
        Application::from_pairs(1.0, &[(3.0, 3.0), (2.0, 2.0), (1.0, 0.0)])
    }

    #[test]
    fn prefix_sums_match_direct_sums() {
        let app = app123();
        assert_eq!(app.total_work(), 6.0);
        assert_eq!(app.interval_work(0, 2), 6.0);
        assert_eq!(app.interval_work(0, 0), 3.0);
        assert_eq!(app.interval_work(1, 2), 3.0);
        assert_eq!(app.interval_work(2, 2), 1.0);
    }

    #[test]
    fn io_sizes() {
        let app = app123();
        assert_eq!(app.input_of(0), 1.0);
        assert_eq!(app.input_of(1), 3.0);
        assert_eq!(app.input_of(2), 2.0);
        assert_eq!(app.output_of(0), 3.0);
        assert_eq!(app.result_size(), 0.0);
    }

    #[test]
    fn rejects_empty_and_invalid() {
        assert!(Application::new(1.0, vec![], 1.0).is_err());
        assert!(Application::new(1.0, vec![Stage::new(-1.0, 0.0)], 1.0).is_err());
        assert!(Application::new(1.0, vec![Stage::new(1.0, f64::NAN)], 1.0).is_err());
        assert!(Application::new(1.0, vec![Stage::new(1.0, 0.0)], 0.0).is_err());
        assert!(Application::new(-1.0, vec![Stage::new(1.0, 0.0)], 1.0).is_err());
        assert!(AppSet::new(vec![]).is_err());
    }

    #[test]
    fn appset_totals() {
        let set = AppSet::new(vec![app123(), app123()]).unwrap();
        assert_eq!(set.a(), 2);
        assert_eq!(set.total_stages(), 6);
        assert_eq!(set.n_max(), 3);
        assert_eq!(set.stage_indices().count(), 6);
    }
}
