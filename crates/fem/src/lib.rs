//! # hymv-fem — finite element discretization substrate
//!
//! HYMV consumes *element matrices*; this crate computes them. It implements
//! the discretization machinery the paper's experiments require:
//!
//! * Gauss–Legendre (hex) and Keast (tet) [`quadrature`] rules,
//! * [`shape`] functions and reference gradients for Hex8/Hex20/Hex27 and
//!   Tet4/Tet10 in the canonical node order of `hymv-mesh`,
//! * isoparametric [`mapping`] (Jacobian, physical gradients),
//! * element [`kernel`]s — the Poisson (Laplacian) operator of §V-B and the
//!   linear-elasticity operator of §V-C.2 — producing column-major `Ke`
//!   and load vectors `fe`,
//! * [`dirichlet`] constraint extraction, and
//! * the paper's [`analytic`] verification solutions (sin-product Poisson,
//!   Timoshenko's prismatic bar stretched by its own weight).
//!
//! Element matrices are written **column-major** into caller-provided
//! slices, matching the layout HYMV's vectorized EMV kernel requires
//! (paper §IV-E, equation (4)).

#![deny(unsafe_code)]

pub mod analytic;
pub mod dirichlet;
pub mod kernel;
pub mod mapping;
pub mod quadrature;
pub mod shape;
pub mod traction;

pub use kernel::{ElasticityKernel, ElementKernel, PoissonKernel};
