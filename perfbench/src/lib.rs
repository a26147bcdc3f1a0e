//! The PPS-lab benchmark: seeded workloads over the library crates,
//! host-time end-to-end metrics from an untraced run, and per-layer
//! metrics from a traced run. See `README.md` in this directory.

pub mod digest;
pub mod layers;
pub mod manifest;
pub mod runner;
pub mod spans;
pub mod workloads;
pub mod wrappers;
