//! The repository benchmark: end-to-end host-time metrics per workload
//! (tracing off) and a separate traced run that times each simulator layer
//! from outside, through its public functions. See `README.md`.

pub mod calib;
pub mod e2e;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod replica;
pub mod stats;
pub mod workload;
