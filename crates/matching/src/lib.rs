//! # cpo-matching — bipartite matching substrate
//!
//! The Theorem 19 construction of the paper reduces one-to-one
//! period/energy optimization to a **minimum-weight bipartite matching**
//! between stages and processors. This crate implements the required
//! machinery from scratch:
//!
//! * [`hungarian`] — the Hungarian algorithm (Kuhn–Munkres with potentials,
//!   O(n²m)) for minimum-cost assignment with forbidden (`∞`) edges and
//!   rectangular cost matrices;
//! * [`benes`] — rearrangeable permutation routing through Benes
//!   multistage networks (the looping algorithm) plus exact bipartite
//!   round decomposition, the machinery behind
//!   `CommTopology::Multistage` platforms.

pub mod benes;
pub mod hungarian;

pub use benes::{decompose_rounds, BenesNetwork, BenesRouting};
pub use hungarian::{hungarian_min_cost, AssignmentResult, CostMatrix, HungarianWorkspace};
