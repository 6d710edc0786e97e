//! # nucomm — Nonuniformly Communicating Noncontiguous Data
//!
//! A from-scratch Rust reproduction of *"Nonuniformly Communicating
//! Noncontiguous Data: A Case Study with PETSc and MPI"* (Balaji, Buntinas,
//! Balay, Smith, Thakur, Gropp — IPPS 2007): the MPI-side optimizations the
//! paper proposes, the PETSc-side machinery the paper's case study runs on,
//! and a simulated cluster substrate that stands in for the paper's 64-node
//! InfiniBand testbed.
//!
//! The stack, bottom to top:
//!
//! * [`simnet`] — event-scheduled cluster of rank tasks with a LogGP-style
//!   simulated clock (substitute for the InfiniBand testbed);
//! * [`datatype`] — MPI-style derived datatypes with the baseline
//!   single-context pack engine and the paper's dual-context look-ahead
//!   engine (§4.1);
//! * [`core`] — communicator, point-to-point, and nonuniform-volume
//!   collectives: outlier-aware `allgatherv` (Floyd–Rivest selection,
//!   recursive doubling / dissemination, §4.2.1) and three-bin `alltoallw`
//!   (§4.2.2);
//! * [`petsc`] — mini-PETSc: vectors, index sets, `VecScatter` (hand-tuned
//!   vs datatype backends), distributed arrays with star/box stencils,
//!   AIJ matrices, CG/Richardson, geometric multigrid.
//!
//! Every figure in the paper's evaluation (Figures 12–17) has a bench
//! target regenerating it; see `crates/bench/benches/` and EXPERIMENTS.md.
//!
//! ```
//! use nucomm::core::{Comm, MpiConfig};
//! use nucomm::simnet::{Cluster, ClusterConfig};
//!
//! let sums = Cluster::new(ClusterConfig::uniform(4)).run(|rank| {
//!     let mut comm = Comm::new(rank, MpiConfig::optimized());
//!     comm.allreduce_scalar(1.0)
//! });
//! assert_eq!(sums, vec![4.0; 4]);
//! ```

pub use ncd_core as core;
pub use ncd_datatype as datatype;
pub use ncd_petsc as petsc;
pub use ncd_simnet as simnet;

/// The paper's two measured configurations, re-exported for convenience.
pub use ncd_core::{Comm, MpiConfig, MpiFlavor};
