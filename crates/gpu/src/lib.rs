//! # hymv-gpu — the GPU execution backend, simulated
//!
//! The paper's HYMV-GPU (§IV-F) uploads the element matrices to the device
//! once at setup and evaluates the SPMV as MAGMA-style **batched EMV**
//! kernels across `Ns` CUDA streams, overlapping H2D transfers, kernel
//! execution, and D2H transfers (Fig 3). The reproduction host has no GPU,
//! so this crate provides a **discrete-event device simulator**
//! ([`DeviceSim`]): operations are scheduled on per-stream and per-engine
//! (H2D copy / compute / D2H copy) timelines with a cost model calibrated
//! to the paper's Quadro RTX 5000 (PCIe 3.0 ×16, Turing FP64 rate, GDDR6
//! bandwidth). Numerics execute on the host bit-exactly; *time* comes from
//! the model and is charged to the rank's virtual clock.
//!
//! What this preserves from the paper (and what it cannot): every
//! scheduling effect — how many streams saturate the copy engines, which
//! overlap scheme wins, where PETSc-GPU pays for its CSR — is reproduced
//! mechanistically; absolute speedups track the calibration constants and
//! are labelled as modeled in EXPERIMENTS.md.
//!
//! Components:
//! * [`model`] — the calibrated cost model;
//! * [`sim`] — streams, engines, event timeline;
//! * [`operator`] — [`HymvGpuOperator`]: Algorithm 3 as an element source
//!   of `hymv-core`'s one schedule, with the GPU/CPU(O) and GPU/GPU(O)
//!   overlap schemes of §V-D; its device events join the merged
//!   `hymv-trace` timeline (Fig 3);
//! * [`resident`] — the device's vector loops and Jacobi for the one CG
//!   core (the GPU-resident CG of §V-F's future work);
//! * [`cusparse`] — the PETSc-GPU (cuSPARSE CSR) baseline of Figs 9/11c.

#![forbid(unsafe_code)]

pub mod cusparse;
pub mod model;
pub mod operator;
pub mod resident;
pub mod sim;

pub use cusparse::PetscGpuOperator;
pub use model::GpuModel;
pub use operator::{GpuScheme, HymvGpuOperator};
pub use resident::{DeviceBlas, DeviceJacobi};
pub use sim::{DeviceSim, EventKind, TraceEvent};
