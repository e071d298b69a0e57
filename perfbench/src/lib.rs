//! The repository benchmark: bytes in to bytes out through the
//! `cpo-experiments serve` and `batch` front ends, with a traced
//! per-layer breakdown. See `README.md` in this directory.

pub mod drive;
pub mod e2e;
pub mod gen;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod trace;
