//! # hymv-mesh — mesh generation and partitioning substrate
//!
//! The HYMV paper evaluates on structured hexahedral meshes (8-node linear,
//! 20-node serendipity quadratic, 27-node Lagrange quadratic elements) and
//! unstructured tetrahedral meshes generated with Gmsh and partitioned with
//! METIS. This crate supplies from-scratch equivalents:
//!
//! * [`StructuredHexMesh`] — tensor-grid hex meshes over `[0,1]³` (or any
//!   box) for all three hex element types,
//! * [`unstructured_tet_mesh`] — a conforming Kuhn (6-tet) subdivision of a
//!   hex grid with deterministic interior-vertex jitter, producing 4- and
//!   10-node tetrahedra with irregular partition boundaries,
//! * partitioners ([`partition`]) — z-slab (the paper's structured-mesh
//!   partitioning), recursive coordinate bisection, and a greedy
//!   graph-growing partitioner standing in for METIS,
//! * [`partition::partition_mesh`] — owner-contiguous global renumbering
//!   producing per-rank [`MeshPartition`]s: exactly the inputs HYMV
//!   consumes (`|ωi|`, the `E2G` map, and the owned range
//!   `[N_begin, N_end)`).
//!
//! Everything is deterministic (seeded RNG) so experiments are repeatable.

#![forbid(unsafe_code)]

pub mod element;
mod mesh;
pub mod partition;
mod structured;
mod unstructured;
pub mod vtk;

pub use element::ElementType;
pub use mesh::{GlobalMesh, MeshPartition, PartitionedMesh};
pub use partition::{PartitionMethod, PartitionStats};
pub use structured::StructuredHexMesh;
pub use unstructured::{unstructured_hex_mesh, unstructured_tet_mesh};
