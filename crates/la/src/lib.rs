//! # hymv-la — linear-algebra substrate
//!
//! The numerical kernels under HYMV and its baselines:
//!
//! * [`dense`] — the `ElementMatrices` read interface (with the contiguous
//!   column-major `ElementMatrixStore` and the slab (de)interleave pair) and
//!   the batched elemental mat-vec (EMV) kernels of paper §IV-E
//!   (equation (4)): `Ve = Ke_b · Ue` over `bw` elements at a time,
//!   dispatched at runtime to AVX-512/AVX2+FMA/portable lanes, plus the
//!   scalar per-element reference `emv_portable`,
//! * [`csr`] — serial CSR matrices (the node-local representation PETSc
//!   uses),
//! * [`dist_csr`] — a PETSc `MPIAIJ`-style distributed CSR with
//!   diag/off-diag block split, compressed ghost-column map, triple
//!   exchange during assembly (the communication that makes the
//!   matrix-assembled setup expensive at scale) and
//!   communication/computation-overlapped SPMV,
//! * [`solver`] — the [`solver::LinOp`] operator abstraction (PETSc's
//!   `MatShell`), conjugate gradients on host or modeled-device vector
//!   loops ([`solver::VectorLoops`]), and convergence reporting,
//! * [`resilient`] — fault-tolerant CG with bounded rollback /
//!   residual-replacement recovery and typed failure diagnostics,
//! * [`mv`] — column-major multivectors and the [`mv::MultiLinOp`]
//!   multi-RHS operator abstraction behind the SpMM fast path,
//! * [`block_cg`] — block conjugate gradients (one Krylov recurrence for
//!   `nvec` right-hand sides) with rank-revealing breakdown handling,
//! * `krylov` (crate-private) — the CG recurrence all three solvers run,
//!   written once over a scalar or a panel arithmetic, with the recovery
//!   actions and the LFLR driver,
//! * [`precond`] — Jacobi and block-Jacobi (ILU(0) per-rank block)
//!   preconditioners, the ones evaluated in the paper's Fig 11.

// Unsafe is confined to audited, SAFETY-commented sites (`#[allow]`ed
// per item); everything else is checked.
#![deny(unsafe_code)]

pub mod block_cg;
pub mod csr;
pub mod dense;
pub mod dist_csr;
mod krylov;
pub mod mv;
pub mod precond;
pub mod resilient;
pub mod solver;

pub use block_cg::{block_cg, BlockCgResult};
pub use csr::SerialCsr;
pub use dense::{
    select_batch_kernel, select_batch_mv_kernel, ElementMatrices, ElementMatrixStore,
    EmvBatchKernel, EmvBatchMvKernel, FIXED_BATCH_WIDTH, FIXED_NVEC_WIDTH, MAX_BATCH_WIDTH,
    MAX_NVEC_WIDTH,
};
pub use dist_csr::DistCsr;
pub use mv::{column_norms, gram, MultiLinOp, Multivector};
pub use precond::{BlockJacobi, Identity, Jacobi, Precond};
pub use resilient::{
    resilient_cg, CheckpointPolicy, RecoveryPolicy, ResilientCgResult, SolverFault,
};
pub use solver::{cg, cg_on, pipelined_cg, CgResult, LinOp, VectorLoops};
