//! # HYMV — a scalable adaptive-matrix SPMV for heterogeneous architectures
//!
//! A from-scratch Rust reproduction of Tran, Fernando, Saurabh,
//! Ganapathysubramanian, Kirby & Sundar, *"A scalable adaptive-matrix SPMV
//! for heterogeneous architectures"*, IPDPS 2022 — the HYMV library plus
//! every substrate its evaluation depends on.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`comm`] | `hymv-comm` | MPI-like runtime (thread ranks, nonblocking p2p, collectives, virtual time) |
//! | [`mesh`] | `hymv-mesh` | hex/tet meshes, partitioners, owner-contiguous renumbering |
//! | [`fem`]  | `hymv-fem`  | quadrature, shape functions, Poisson/elasticity kernels, analytic solutions |
//! | [`la`]   | `hymv-la`   | SIMD EMV kernels, CSR, distributed CSR, CG, preconditioners |
//! | [`core`] | `hymv-core` | the HYMV operator (Algorithms 1–2), matrix-free and assembled baselines, `FemSystem` driver |
//! | [`gpu`]  | `hymv-gpu`  | simulated GPU backend (Algorithm 3, overlap schemes, cuSPARSE baseline) |
//! | [`check`] | `hymv-check` | protocol auditor, map/DA invariant pass, the certificate table (schedule, fault, LFLR and degraded-schedule rows) |
//!
//! ## Quickstart
//!
//! Solve the paper's Poisson verification problem with HYMV on four
//! simulated MPI ranks:
//!
//! ```
//! use std::sync::Arc;
//! use hymv::prelude::*;
//!
//! // Mesh the unit cube with 8-node hexes and partition into 4 slabs.
//! let mesh = StructuredHexMesh::unit(8, ElementType::Hex8).build();
//! let pm = partition_mesh(&mesh, 4, PartitionMethod::Slabs);
//!
//! let errs = Universe::run(4, |comm| {
//!     let part = &pm.parts[comm.rank()];
//!     let kernel = Arc::new(PoissonKernel::with_body(
//!         ElementType::Hex8,
//!         PoissonProblem::body(),
//!     ));
//!     let mut sys = FemSystem::build(
//!         comm,
//!         part,
//!         kernel,
//!         &PoissonProblem::dirichlet(),
//!         BuildOptions::new(Method::Hymv),
//!     );
//!     let (u, res) = sys.solve(comm, PrecondKind::Jacobi, 1e-8, 1000);
//!     assert!(res.converged);
//!     sys.inf_error(comm, &u, |x| vec![PoissonProblem::exact(x)])
//! });
//! assert!(errs[0] < 3e-3);
//! ```

pub use hymv_check as check;
pub use hymv_comm as comm;
pub use hymv_core as core;
pub use hymv_fem as fem;
pub use hymv_gpu as gpu;
pub use hymv_la as la;
pub use hymv_mesh as mesh;
pub use hymv_serve as serve;

/// The commonly-used names in one import.
pub mod prelude {
    pub use hymv_check::{check_exchange, check_maps, check_partition, run_audited, run_perturbed};
    pub use hymv_comm::{
        AuditMode, AuditReport, CommStats, CostModel, Payload, ReduceOp, RunConfig, Universe,
    };
    pub use hymv_core::system::{BuildOptions, FemSystem, Method, PrecondKind, SolverKind};
    pub use hymv_core::{
        AssembledOperator, DistArray, GhostExchange, HymvMaps, HymvOperator, MatFreeOperator,
    };
    pub use hymv_fem::analytic::{BarProblem, PoissonProblem};
    pub use hymv_fem::dirichlet::DirichletSpec;
    pub use hymv_fem::{ElasticityKernel, ElementKernel, PoissonKernel};
    pub use hymv_gpu::{
        DeviceBlas, DeviceJacobi, DeviceSim, GpuModel, GpuScheme, HymvGpuOperator, PetscGpuOperator,
    };
    pub use hymv_la::{
        block_cg, cg, cg_on, pipelined_cg, BlockJacobi, DistCsr, Identity, Jacobi, LinOp,
        MultiLinOp, Multivector, SerialCsr,
    };
    pub use hymv_mesh::partition::{partition_mesh, PartitionStats};
    pub use hymv_mesh::{
        unstructured_hex_mesh, unstructured_tet_mesh, ElementType, GlobalMesh, MeshPartition,
        PartitionMethod, StructuredHexMesh,
    };
    pub use hymv_serve::{BatchMetrics, BatchPolicy, SolveOutcome, SolveService};
}
