//! The repository's benchmark: host wall-clock, simulated time and memory
//! on six workloads, with a per-layer traced run. See `README.md` in this
//! directory for the metrics, the workloads and how to read the output.

pub mod harness;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod runner;
pub mod spans;
pub mod util;
pub mod workloads;
