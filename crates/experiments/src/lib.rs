//! Library side of `cpo-experiments`: the certified cells of Tables 1 and
//! 2 (shared with the facade's certification tests), the serve front end,
//! and the trust subsystem (differential path runner, repro-bundle export,
//! replay, fuzz fleet), factored out of the binary so they are testable.

pub mod serve_cli;
pub mod tables;
pub mod trust;
