//! # perfbench
//!
//! The Skil serving benchmark. One command runs a named workload
//! against the real `skild` binary at its default flags and reports the
//! end-to-end metrics; a separate in-process run times calls into each
//! layer (`serve`, `lang`, `engine`, `runtime`) from outside and gives
//! the per-layer metrics. See `perfbench/README.md`.
//!
//! The library holds everything both runs share and the self-tests pin:
//! the seeded request generator ([`workload`]), the identifier renamer
//! behind `compile_churn` ([`rename`]), the response checker
//! ([`check`]) and the percentile rule ([`stats`]).

pub mod check;
pub mod rename;
pub mod rng;
pub mod stats;
pub mod workload;
