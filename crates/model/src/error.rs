//! Error type shared across the model crate.

use std::fmt;

/// Errors raised while constructing or validating model objects.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// An application must contain at least one stage.
    EmptyApplication,
    /// Stage computation requirements and data sizes must be finite and
    /// non-negative. `app` is the application's index in its
    /// [`AppSet`](crate::application::AppSet), when the error arose there.
    InvalidStage { app: Option<usize>, stage: usize, reason: &'static str },
    /// Application weights `W_a` must be strictly positive (Eq. 6).
    InvalidWeight { app: Option<usize> },
    /// A processor needs at least one speed, all strictly positive.
    InvalidProcessor { proc: usize, reason: &'static str },
    /// Bandwidths must be strictly positive and finite.
    InvalidBandwidth { reason: &'static str },
    /// Dimension mismatch between linked structures.
    DimensionMismatch { what: &'static str, expected: usize, found: usize },
    /// A mapping failed structural validation.
    InvalidMapping { reason: String },
    /// A solver table was contaminated by non-finite inputs (NaN stage
    /// data, NaN speeds) and could not be reconstructed consistently.
    NonFiniteData { what: &'static str },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyApplication => write!(f, "application has no stage"),
            ModelError::InvalidStage { app: Some(a), stage, reason } => {
                write!(f, "invalid stage S_{}^{}: {}", a, stage, reason)
            }
            ModelError::InvalidStage { app: None, stage, reason } => {
                write!(f, "invalid stage {}: {}", stage, reason)
            }
            ModelError::InvalidWeight { app: Some(a) } => {
                write!(f, "application {} has a non-positive weight", a)
            }
            ModelError::InvalidWeight { app: None } => {
                write!(f, "application has a non-positive weight")
            }
            ModelError::InvalidProcessor { proc, reason } => {
                write!(f, "invalid processor P_{}: {}", proc, reason)
            }
            ModelError::InvalidBandwidth { reason } => write!(f, "invalid bandwidth: {}", reason),
            ModelError::DimensionMismatch { what, expected, found } => {
                write!(f, "dimension mismatch for {}: expected {}, found {}", what, expected, found)
            }
            ModelError::InvalidMapping { reason } => write!(f, "invalid mapping: {}", reason),
            ModelError::NonFiniteData { what } => {
                write!(f, "non-finite data contaminated {}", what)
            }
        }
    }
}

impl ModelError {
    /// Tag an application-level error with the application's index `a`.
    pub(crate) fn in_app(self, a: usize) -> Self {
        match self {
            ModelError::InvalidStage { stage, reason, .. } => {
                ModelError::InvalidStage { app: Some(a), stage, reason }
            }
            ModelError::InvalidWeight { .. } => ModelError::InvalidWeight { app: Some(a) },
            other => other,
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::InvalidStage { app: Some(1), stage: 2, reason: "negative work" };
        assert!(e.to_string().contains("S_1^2"));
        let e = ModelError::InvalidMapping { reason: "overlap".into() };
        assert!(e.to_string().contains("overlap"));
    }
}
