//! # ncd-petsc — a mini-PETSc on top of the message-passing core
//!
//! The high-level-library half of the paper's case study: the subset of
//! PETSc the evaluation exercises, built from scratch over [`ncd_core`]:
//!
//! * [`Layout`] / [`PVec`] — parallel layouts and distributed vectors;
//! * [`IndexSet`] — index sets describing scatters;
//! * [`VecScatter`] — general gather/scatter with the two strategies the
//!   paper compares: hand-tuned packing + point-to-point, or derived
//!   datatypes + one `MPI_Alltoallw` ([`ScatterBackend`]);
//! * [`DistributedArray`] — structured-grid DAs (1/2/3-D, interlaced dof,
//!   star/box stencils) with ghost exchange compiled to a `VecScatter`;
//! * [`AijMat`] — CSR matrices with off-process assembly;
//! * [`ksp`] — CG and Richardson solvers with identity / Jacobi
//!   preconditioning; [`mg`] — geometric multigrid with the matrix-free
//!   Laplacian of the paper's application.
//!
//! ```
//! use ncd_core::{Comm, MpiConfig};
//! use ncd_petsc::{DistributedArray, ScatterBackend, StencilKind};
//! use ncd_simnet::{Cluster, ClusterConfig};
//!
//! // A 2-D ghost exchange on 4 ranks.
//! Cluster::new(ClusterConfig::uniform(4)).run(|rank| {
//!     let mut comm = Comm::new(rank, MpiConfig::optimized());
//!     let da = DistributedArray::new(&mut comm, &[8, 8], 1, StencilKind::Star, 1);
//!     let mut g = da.create_global_vec();
//!     g.set_all(1.0);
//!     let mut l = da.create_local_vec();
//!     da.global_to_local(&mut comm, &g, &mut l, ScatterBackend::Datatype);
//! });
//! ```

pub mod da;
pub mod is;
pub mod ksp;
pub mod layout;
pub mod mat;
pub mod mg;
pub mod scatter;
pub mod vec;

pub use da::{DistributedArray, StencilKind};
pub use is::IndexSet;
pub use ksp::{
    cg, richardson, IdentityPc, JacobiPc, KspResult, KspSettings, LinearOp, Preconditioner,
};
pub use layout::Layout;
pub use mat::AijMat;
pub use mg::{LaplacianOp, Multigrid};
pub use scatter::{ScatterBackend, ScatterHandle, VecScatter};
pub use vec::PVec;
