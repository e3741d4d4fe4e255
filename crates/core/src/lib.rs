//! # hymv-core — the adaptive-matrix SPMV (HYMV)
//!
//! This crate is the paper's primary contribution: a hybrid SPMV for FEM
//! systems that stores element matrices locally (computed once at setup,
//! updated selectively on refinement/enrichment) and evaluates the global
//! operator element-by-element with communication/computation overlap —
//! "global sparse linear algebra → local dense linear algebra".
//!
//! The pieces, following the paper's §IV:
//!
//! * [`maps`] — the `E2L` map (Algorithm 1), pre/post ghost identification,
//!   and the independent/dependent element split;
//! * [`exchange`] — the communication maps `LNSM` and `GNGM` and the
//!   non-blocking ghost scatter / ghost-accumulate they drive;
//! * [`da`] — the distributed array (`[pre-ghost | owned | post-ghost]`
//!   layout of Fig 2), one or `nvec` columns wide;
//! * [`schedule`] — Algorithm 2 written once, generic over the element
//!   source and the overlap policy; every operator applies through it,
//!   the GPU operator of `hymv-gpu` included;
//! * [`operator`] — [`HymvOperator`]: setup (element-matrix computation +
//!   local copy — **no global assembly**), its SPMV and SpMM over the
//!   stored slabs, and the adaptive per-element update path;
//! * [`hybrid`] — the modeled shared-memory ("OpenMP") threads of the
//!   local elemental loop, and the per-element reference loop tests
//!   compare against;
//! * [`block`] — the batched element-block engine (`BlockPlan`): subsets
//!   cut into locality-sorted blocks of `B` elements with flattened
//!   gather/scatter tables, evaluated by the batch-vectorized EMV kernels
//!   (the CPU SPMV path at every `B`);
//! * [`matfree`] — the matrix-free baseline (Algorithm 4: the same
//!   schedule, recomputing `Ke` inside every SPMV);
//! * [`assembled`] — the matrix-assembled baseline (PETSc-style
//!   triple-routed global assembly into a distributed CSR);
//! * [`dirichlet_op`] — the Dirichlet wrapper applied identically around
//!   all three operators;
//! * [`assemble`] — right-hand-side assembly, diagonal extraction (Jacobi),
//!   owned-block extraction (block-Jacobi), nodal coordinate recovery;
//! * [`system`] — a one-call driver (`FemSystem`) used by the examples,
//!   tests, and every benchmark binary.

#![forbid(unsafe_code)]

pub mod assemble;
pub mod assembled;
pub mod block;
pub mod da;
pub mod dirichlet_op;
pub mod exchange;
pub mod hybrid;
pub mod maps;
pub mod matfree;
pub mod operator;
pub mod schedule;
pub mod system;

pub use assembled::AssembledOperator;
pub use block::{
    parse_batch_width, BlockPlan, BlockSet, SlabMatrices, DEFAULT_BATCH_WIDTH, DEFAULT_NVEC_WIDTH,
};
pub use da::DistArray;
pub use dirichlet_op::DirichletOp;
pub use exchange::GhostExchange;
pub use maps::HymvMaps;
pub use matfree::MatFreeOperator;
pub use operator::{HymvOperator, SetupTimings};
pub use system::{FemSystem, Method};
