//! Element operators: the kernels that produce `Ke` and `fe`.
//!
//! The paper's two evaluation operators are implemented:
//!
//! * [`PoissonKernel`] — `(Ke)_ij = ∫ ∇φi · ∇φj dV` (equation (3)),
//! * [`ElasticityKernel`] — isotropic linear elasticity,
//!   `K_{ai,bj} = ∫ λ ∂ᵢNa ∂ⱼNb + μ ∂ⱼNa ∂ᵢNb + μ δᵢⱼ ∇Na·∇Nb dV`.
//!
//! Element matrices are written **column-major** (`ke[col*nd + row]`) — the
//! layout HYMV's SIMD EMV kernel consumes (paper §IV-E). Matrices are
//! symmetric **to the bit** (`ke[j*nd + i].to_bits() == ke[i*nd + j]
//! .to_bits()`, pinned by `every_kernel_ke_is_bitwise_symmetric`): HYMV
//! stores only the lower triangle of such matrices, and falls back to
//! twice the bytes per apply for anything less exact. The symmetry is
//! structural: both kernels accumulate the node blocks `a ≥ b` only and
//! mirror them into the upper triangle once per element
//! ([`mirror_lower`]), with the per-entry operation order of the full
//! double loop, so every bit is the one that loop produces
//! (`half_triangle_ke_matches_full_double_loop_bitwise`).
//!
//! Per-quadrature-point shape data is precomputed once per kernel (it is
//! element-independent); per-element work is Jacobian, physical gradients,
//! and accumulation, which is what the matrix-free baseline re-executes on
//! every SPMV (Algorithm 4) and what HYMV executes once at setup.

use std::sync::Arc;

use hymv_mesh::ElementType;

use crate::mapping::{jacobian, physical_gradients, physical_point};
use crate::quadrature::{hex_rule, tet_rule, QPoint};
use crate::shape::{shape_gradients, shape_values};

/// Precomputed reference-space data at one quadrature point.
struct QpData {
    w: f64,
    /// Shape values, `npe`.
    n: Vec<f64>,
    /// Reference gradients, `npe × 3` node-major.
    dn_ref: Vec<f64>,
}

fn precompute(et: ElementType, rule: &[QPoint]) -> Vec<QpData> {
    let npe = et.nodes_per_elem();
    rule.iter()
        .map(|q| {
            let mut n = vec![0.0; npe];
            let mut dn_ref = vec![0.0; 3 * npe];
            shape_values(et, q.xi, &mut n);
            shape_gradients(et, q.xi, &mut dn_ref);
            QpData { w: q.w, n, dn_ref }
        })
        .collect()
}

/// Default quadrature for an element type: exact for the stiffness of
/// undistorted elements, adequate for mildly distorted ones.
pub fn default_rule(et: ElementType) -> Vec<QPoint> {
    match et {
        ElementType::Hex8 => hex_rule(2),
        ElementType::Hex20 | ElementType::Hex27 => hex_rule(3),
        ElementType::Tet4 => tet_rule(2),
        ElementType::Tet10 => tet_rule(4),
    }
}

/// Reusable per-thread scratch for element computations, to keep the hot
/// (matrix-free) path allocation-free.
#[derive(Default)]
pub struct KernelScratch {
    dn_phys: Vec<f64>,
}

impl KernelScratch {
    fn grads(&mut self, npe: usize) -> &mut [f64] {
        self.dn_phys.resize(3 * npe, 0.0);
        &mut self.dn_phys
    }
}

/// Copy the lower triangle of a column-major `nd × nd` matrix (rows
/// `i > j` of column `j`) onto the upper one.
fn mirror_lower(ke: &mut [f64], nd: usize) {
    for j in 0..nd {
        for i in j + 1..nd {
            ke[i * nd + j] = ke[j * nd + i];
        }
    }
}

/// A PDE operator evaluated element-by-element.
pub trait ElementKernel: Send + Sync {
    /// Degrees of freedom per node (1 for Poisson, 3 for elasticity).
    fn ndof_per_node(&self) -> usize;

    /// The element type this kernel is instantiated for.
    fn elem_type(&self) -> ElementType;

    /// Element matrix dimension `nd = npe × ndof`.
    fn ndof_elem(&self) -> usize {
        self.elem_type().nodes_per_elem() * self.ndof_per_node()
    }

    /// Compute the column-major element matrix (`nd × nd`) for an element
    /// with the given nodal coordinates.
    fn compute_ke(&self, coords: &[[f64; 3]], ke: &mut [f64], scratch: &mut KernelScratch);

    /// Compute the element load vector (`nd`).
    fn compute_fe(&self, coords: &[[f64; 3]], fe: &mut [f64], scratch: &mut KernelScratch);

    /// Analytic floating-point-operation count of one `compute_ke` call,
    /// used by the throughput experiments (Table I, Fig 10).
    fn ke_flops(&self) -> u64;
}

// ---------------------------------------------------------------- Poisson

/// The Laplacian operator of the paper's Poisson experiments, with an
/// optional body-force field for the right-hand side.
pub struct PoissonKernel {
    et: ElementType,
    qp: Vec<QpData>,
    body: Arc<dyn Fn([f64; 3]) -> f64 + Send + Sync>,
}

impl PoissonKernel {
    /// Laplacian with zero body force.
    pub fn new(et: ElementType) -> Self {
        Self::with_body(et, Arc::new(|_| 0.0))
    }

    /// Laplacian with body force `b(x)` (the weak form's `∫ b φj dV`).
    pub fn with_body(et: ElementType, body: Arc<dyn Fn([f64; 3]) -> f64 + Send + Sync>) -> Self {
        let qp = precompute(et, &default_rule(et));
        PoissonKernel { et, qp, body }
    }
}

impl ElementKernel for PoissonKernel {
    fn ndof_per_node(&self) -> usize {
        1
    }

    fn elem_type(&self) -> ElementType {
        self.et
    }

    fn compute_ke(&self, coords: &[[f64; 3]], ke: &mut [f64], scratch: &mut KernelScratch) {
        let npe = self.et.nodes_per_elem();
        debug_assert_eq!(ke.len(), npe * npe);
        debug_assert_eq!(coords.len(), npe);
        ke.fill(0.0);
        for qp in &self.qp {
            let jac = jacobian(coords, &qp.dn_ref);
            let g = scratch.grads(npe);
            physical_gradients(&jac, &qp.dn_ref, g);
            let wd = qp.w * jac.det;
            for j in 0..npe {
                let gj = [g[3 * j], g[3 * j + 1], g[3 * j + 2]];
                // Rows i ≥ j of column j.
                let col = &mut ke[j * npe + j..(j + 1) * npe];
                for (kij, gi) in col.iter_mut().zip(g[3 * j..].chunks_exact(3)) {
                    *kij += wd * (gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2]);
                }
            }
        }
        mirror_lower(ke, npe);
    }

    fn compute_fe(&self, coords: &[[f64; 3]], fe: &mut [f64], scratch: &mut KernelScratch) {
        let npe = self.et.nodes_per_elem();
        debug_assert_eq!(fe.len(), npe);
        let _ = scratch;
        fe.fill(0.0);
        for qp in &self.qp {
            let jac = jacobian(coords, &qp.dn_ref);
            let x = physical_point(coords, &qp.n);
            let wb = qp.w * jac.det * (self.body)(x);
            for i in 0..npe {
                fe[i] += wb * qp.n[i];
            }
        }
    }

    fn ke_flops(&self) -> u64 {
        let npe = self.et.nodes_per_elem() as u64;
        let nq = self.qp.len() as u64;
        // Per qp: Jacobian (18·npe mults+adds), inverse (~50), physical
        // gradients (15·npe), accumulation (7 per node pair a ≥ b).
        nq * (18 * npe + 50 + 15 * npe + 7 * (npe * (npe + 1) / 2))
    }
}

// -------------------------------------------------------------- Elasticity

/// Isotropic linear elasticity (3 dofs per node) with a constant body
/// force (gravity), as in the paper's prismatic-bar experiments.
pub struct ElasticityKernel {
    et: ElementType,
    qp: Vec<QpData>,
    /// Lamé λ.
    lambda: f64,
    /// Lamé μ (shear modulus).
    mu: f64,
    /// Body force per unit volume, `ρ g` (vector).
    body: [f64; 3],
}

impl ElasticityKernel {
    /// Construct from engineering constants. `body` is the body-force
    /// density vector (e.g. `[0, 0, -ρg]` for gravity).
    pub fn new(et: ElementType, young: f64, poisson: f64, body: [f64; 3]) -> Self {
        assert!(young > 0.0, "Young's modulus must be positive");
        assert!(
            (-1.0..0.5).contains(&poisson),
            "Poisson ratio {poisson} outside (-1, 0.5)"
        );
        let lambda = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson));
        let mu = young / (2.0 * (1.0 + poisson));
        let qp = precompute(et, &default_rule(et));
        ElasticityKernel {
            et,
            qp,
            lambda,
            mu,
            body,
        }
    }

    /// Lamé parameters `(λ, μ)`.
    pub fn lame(&self) -> (f64, f64) {
        (self.lambda, self.mu)
    }
}

impl ElementKernel for ElasticityKernel {
    fn ndof_per_node(&self) -> usize {
        3
    }

    fn elem_type(&self) -> ElementType {
        self.et
    }

    fn compute_ke(&self, coords: &[[f64; 3]], ke: &mut [f64], scratch: &mut KernelScratch) {
        let npe = self.et.nodes_per_elem();
        let nd = 3 * npe;
        debug_assert_eq!(ke.len(), nd * nd);
        debug_assert_eq!(coords.len(), npe);
        ke.fill(0.0);
        let (la, mu) = (self.lambda, self.mu);
        for qp in &self.qp {
            let jac = jacobian(coords, &qp.dn_ref);
            let g = scratch.grads(npe);
            physical_gradients(&jac, &qp.dn_ref, g);
            let wd = qp.w * jac.det;
            for b in 0..npe {
                let gb = [g[3 * b], g[3 * b + 1], g[3 * b + 2]];
                for a in b..npe {
                    let ga = [g[3 * a], g[3 * a + 1], g[3 * a + 2]];
                    let dot = ga[0] * gb[0] + ga[1] * gb[1] + ga[2] * gb[2];
                    // 3×3 block for (node a, node b):
                    // K_{ai,bj} = λ ∂ᵢNa ∂ⱼNb + μ ∂ⱼNa ∂ᵢNb + μ δᵢⱼ ∇Na·∇Nb
                    // The gradient products are formed before the Lamé
                    // factors multiply them: swapping (a,i) with (b,j) then
                    // only swaps the operands of commutative products, so
                    // the blocks a < b the mirror fills in hold the bits
                    // this loop would have computed for them, and the
                    // diagonal blocks are symmetric to the bit on their
                    // own (`la * ga[i] * gb[j]` is not).
                    for j in 0..3 {
                        let col = (3 * b + j) * nd;
                        for i in 0..3 {
                            let mut v = la * (ga[i] * gb[j]) + mu * (ga[j] * gb[i]);
                            if i == j {
                                v += mu * dot;
                            }
                            ke[col + 3 * a + i] += wd * v;
                        }
                    }
                }
            }
        }
        mirror_lower(ke, nd);
    }

    fn compute_fe(&self, coords: &[[f64; 3]], fe: &mut [f64], scratch: &mut KernelScratch) {
        let npe = self.et.nodes_per_elem();
        debug_assert_eq!(fe.len(), 3 * npe);
        let _ = scratch;
        fe.fill(0.0);
        for qp in &self.qp {
            let jac = jacobian(coords, &qp.dn_ref);
            let wd = qp.w * jac.det;
            for i in 0..npe {
                for c in 0..3 {
                    fe[3 * i + c] += wd * qp.n[i] * self.body[c];
                }
            }
        }
    }

    fn ke_flops(&self) -> u64 {
        let npe = self.et.nodes_per_elem() as u64;
        let nq = self.qp.len() as u64;
        // Per qp: Jacobian + inverse + physical gradients as in Poisson,
        // plus ~40 flops per node pair a ≥ b for the 3×3 block.
        nq * (18 * npe + 50 + 15 * npe + 40 * (npe * (npe + 1) / 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_hex_coords(et: ElementType, h: f64) -> Vec<[f64; 3]> {
        et.ref_coords()
            .iter()
            .map(|r| {
                [
                    (r[0] + 1.0) / 2.0 * h,
                    (r[1] + 1.0) / 2.0 * h,
                    (r[2] + 1.0) / 2.0 * h,
                ]
            })
            .collect()
    }

    #[test]
    fn poisson_ke_rows_sum_to_zero() {
        // Constant fields are in the Laplacian's null space.
        for et in [
            ElementType::Hex8,
            ElementType::Hex20,
            ElementType::Hex27,
            ElementType::Tet10,
        ] {
            let k = PoissonKernel::new(et);
            let npe = et.nodes_per_elem();
            let coords = if et.is_hex() {
                unit_hex_coords(et, 0.5)
            } else {
                et.ref_coords()
            };
            let mut ke = vec![0.0; npe * npe];
            let mut scratch = KernelScratch::default();
            k.compute_ke(&coords, &mut ke, &mut scratch);
            for i in 0..npe {
                let row_sum: f64 = (0..npe).map(|j| ke[j * npe + i]).sum();
                assert!(row_sum.abs() < 1e-10, "{et:?} row {i}: {row_sum}");
            }
        }
    }

    #[test]
    fn poisson_ke_symmetric_and_psd_diag() {
        let et = ElementType::Hex8;
        let k = PoissonKernel::new(et);
        let coords = unit_hex_coords(et, 1.0);
        let mut ke = vec![0.0; 64];
        let mut scratch = KernelScratch::default();
        k.compute_ke(&coords, &mut ke, &mut scratch);
        for i in 0..8 {
            assert!(ke[i * 8 + i] > 0.0);
            for j in 0..8 {
                assert!((ke[j * 8 + i] - ke[i * 8 + j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn poisson_hex8_known_diagonal() {
        // For a unit cube trilinear element, Ke_ii = 1/3 (classical value).
        let et = ElementType::Hex8;
        let k = PoissonKernel::new(et);
        let coords = unit_hex_coords(et, 1.0);
        let mut ke = vec![0.0; 64];
        k.compute_ke(&coords, &mut ke, &mut KernelScratch::default());
        assert!((ke[0] - 1.0 / 3.0).abs() < 1e-12, "got {}", ke[0]);
    }

    #[test]
    fn poisson_fe_integrates_body() {
        // With b(x) = 1, Σ fe_i = ∫ 1 dV = element volume.
        let et = ElementType::Hex8;
        let k = PoissonKernel::with_body(et, Arc::new(|_| 1.0));
        let h = 0.5;
        let coords = unit_hex_coords(et, h);
        let mut fe = vec![0.0; 8];
        k.compute_fe(&coords, &mut fe, &mut KernelScratch::default());
        let total: f64 = fe.iter().sum();
        assert!((total - h * h * h).abs() < 1e-12);
    }

    #[test]
    fn elasticity_rigid_body_modes_in_null_space() {
        // Translations and infinitesimal rotations produce Ke·u = 0.
        for et in [ElementType::Hex8, ElementType::Hex20, ElementType::Tet10] {
            let k = ElasticityKernel::new(et, 100.0, 0.3, [0.0; 3]);
            let npe = et.nodes_per_elem();
            let nd = 3 * npe;
            let coords = if et.is_hex() {
                unit_hex_coords(et, 1.0)
            } else {
                et.ref_coords()
            };
            let mut ke = vec![0.0; nd * nd];
            k.compute_ke(&coords, &mut ke, &mut KernelScratch::default());

            let modes: Vec<Box<dyn Fn([f64; 3]) -> [f64; 3]>> = vec![
                Box::new(|_| [1.0, 0.0, 0.0]),
                Box::new(|_| [0.0, 1.0, 0.0]),
                Box::new(|_| [0.0, 0.0, 1.0]),
                Box::new(|x| [-x[1], x[0], 0.0]),
                Box::new(|x| [0.0, -x[2], x[1]]),
                Box::new(|x| [x[2], 0.0, -x[0]]),
            ];
            for (m, mode) in modes.iter().enumerate() {
                let u: Vec<f64> = coords.iter().flat_map(|&x| mode(x)).collect();
                for i in 0..nd {
                    let v: f64 = (0..nd).map(|j| ke[j * nd + i] * u[j]).sum();
                    assert!(v.abs() < 1e-9, "{et:?} mode {m} dof {i}: {v}");
                }
            }
        }
    }

    #[test]
    fn elasticity_ke_symmetric() {
        let et = ElementType::Hex8;
        let k = ElasticityKernel::new(et, 210.0, 0.25, [0.0; 3]);
        let coords = unit_hex_coords(et, 0.7);
        let nd = 24;
        let mut ke = vec![0.0; nd * nd];
        k.compute_ke(&coords, &mut ke, &mut KernelScratch::default());
        for i in 0..nd {
            for j in 0..nd {
                assert!((ke[j * nd + i] - ke[i * nd + j]).abs() < 1e-9);
            }
        }
    }

    /// The property HYMV's symmetric-packed slabs depend on: every `Ke`
    /// either kernel produces, on every element type, is symmetric bit for
    /// bit — also on distorted elements, where no entry is a round number.
    /// A kernel edit that breaks this silently doubles the SPMV's memory
    /// traffic (the block plan falls back to full slabs), so it fails here.
    #[test]
    fn every_kernel_ke_is_bitwise_symmetric() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut jitter = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.08
        };
        for et in [
            ElementType::Hex8,
            ElementType::Hex20,
            ElementType::Hex27,
            ElementType::Tet4,
            ElementType::Tet10,
        ] {
            let kernels: [Box<dyn ElementKernel>; 2] = [
                Box::new(PoissonKernel::new(et)),
                Box::new(ElasticityKernel::new(et, 207.3, 0.29, [0.0; 3])),
            ];
            for kernel in &kernels {
                let nd = kernel.ndof_elem();
                let mut ke = vec![0.0; nd * nd];
                let mut scratch = KernelScratch::default();
                for trial in 0..4 {
                    let coords: Vec<[f64; 3]> = et
                        .ref_coords()
                        .iter()
                        .map(|r| {
                            [
                                r[0] * 0.37 + jitter(),
                                r[1] * 0.41 + jitter(),
                                r[2] * 0.43 + jitter(),
                            ]
                        })
                        .collect();
                    kernel.compute_ke(&coords, &mut ke, &mut scratch);
                    assert!(ke.iter().all(|v| v.is_finite()));
                    for i in 0..nd {
                        for j in 0..i {
                            assert_eq!(
                                ke[j * nd + i].to_bits(),
                                ke[i * nd + j].to_bits(),
                                "{et:?} ndof={} trial {trial}: Ke({i},{j}) = {:e} vs Ke({j},{i}) = {:e}",
                                kernel.ndof_per_node(),
                                ke[j * nd + i],
                                ke[i * nd + j]
                            );
                        }
                    }
                }
            }
        }
    }

    /// The full double loop over every node pair that `compute_ke` ran
    /// before it was restricted to `a ≥ b` — the bitwise reference.
    fn poisson_ke_full(k: &PoissonKernel, coords: &[[f64; 3]], ke: &mut [f64]) {
        let npe = k.et.nodes_per_elem();
        let mut g = vec![0.0; 3 * npe];
        ke.fill(0.0);
        for qp in &k.qp {
            let jac = jacobian(coords, &qp.dn_ref);
            physical_gradients(&jac, &qp.dn_ref, &mut g);
            let wd = qp.w * jac.det;
            for j in 0..npe {
                let gj = [g[3 * j], g[3 * j + 1], g[3 * j + 2]];
                for i in 0..npe {
                    ke[j * npe + i] +=
                        wd * (g[3 * i] * gj[0] + g[3 * i + 1] * gj[1] + g[3 * i + 2] * gj[2]);
                }
            }
        }
    }

    fn elasticity_ke_full(k: &ElasticityKernel, coords: &[[f64; 3]], ke: &mut [f64]) {
        let npe = k.et.nodes_per_elem();
        let nd = 3 * npe;
        let mut g = vec![0.0; 3 * npe];
        ke.fill(0.0);
        let (la, mu) = (k.lambda, k.mu);
        for qp in &k.qp {
            let jac = jacobian(coords, &qp.dn_ref);
            physical_gradients(&jac, &qp.dn_ref, &mut g);
            let wd = qp.w * jac.det;
            for b in 0..npe {
                let gb = [g[3 * b], g[3 * b + 1], g[3 * b + 2]];
                for a in 0..npe {
                    let ga = [g[3 * a], g[3 * a + 1], g[3 * a + 2]];
                    let dot = ga[0] * gb[0] + ga[1] * gb[1] + ga[2] * gb[2];
                    for j in 0..3 {
                        for i in 0..3 {
                            let mut v = la * (ga[i] * gb[j]) + mu * (ga[j] * gb[i]);
                            if i == j {
                                v += mu * dot;
                            }
                            ke[(3 * b + j) * nd + 3 * a + i] += wd * v;
                        }
                    }
                }
            }
        }
    }

    /// Restricting the accumulation to node blocks `a ≥ b` and mirroring
    /// changes no bit of any `Ke`: on axis-aligned elements (exact zeros
    /// of either sign among the entries) and on jittered ones, for both
    /// kernels and all five element types. CG iteration counts, the
    /// `hymv-check` certificates and every stored slab rest on this.
    #[test]
    fn half_triangle_ke_matches_full_double_loop_bitwise() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut jitter = |amp: f64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * amp
        };
        for et in [
            ElementType::Hex8,
            ElementType::Hex20,
            ElementType::Hex27,
            ElementType::Tet4,
            ElementType::Tet10,
        ] {
            let poisson = PoissonKernel::new(et);
            let elasticity = ElasticityKernel::new(et, 207.3, 0.29, [0.0; 3]);
            let npe = et.nodes_per_elem();
            let mut scratch = KernelScratch::default();
            let mut exact_zeros = 0;
            // Trial 0 is axis-aligned; the rest are distorted.
            for trial in 0..4 {
                // Axis-aligned edges are powers of two: the arithmetic is
                // exact, terms of either sign of zero occur, and
                // cancelling entries come out as exact zeros.
                let (h, amp) = if trial == 0 {
                    ([0.5, 0.25, 1.0], 0.0)
                } else {
                    ([0.37, 0.41, 0.43], 0.08)
                };
                let coords: Vec<[f64; 3]> = et
                    .ref_coords()
                    .iter()
                    .map(|r| [0, 1, 2].map(|c| r[c] * h[c] + jitter(amp)))
                    .collect();
                for ndof in [1usize, 3] {
                    let nd = npe * ndof;
                    let (mut ke, mut ke_ref) = (vec![f64::NAN; nd * nd], vec![0.0; nd * nd]);
                    if ndof == 1 {
                        poisson.compute_ke(&coords, &mut ke, &mut scratch);
                        poisson_ke_full(&poisson, &coords, &mut ke_ref);
                    } else {
                        elasticity.compute_ke(&coords, &mut ke, &mut scratch);
                        elasticity_ke_full(&elasticity, &coords, &mut ke_ref);
                    }
                    for (at, (x, y)) in ke.iter().zip(&ke_ref).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{et:?} ndof={ndof} trial {trial}: Ke({}, {}) = {x:e} vs {y:e}",
                            at % nd,
                            at / nd
                        );
                    }
                    if trial == 0 {
                        exact_zeros += ke.iter().filter(|v| **v == 0.0).count();
                    }
                }
            }
            if !et.is_hex() {
                assert!(exact_zeros > 0, "{et:?}: the axis-aligned case has none");
            }
        }
    }

    #[test]
    fn elasticity_fe_total_force_is_weight() {
        let et = ElementType::Hex20;
        let rho_g = 9.81 * 2.0;
        let k = ElasticityKernel::new(et, 100.0, 0.3, [0.0, 0.0, -rho_g]);
        let h = 0.5;
        let coords = unit_hex_coords(et, h);
        let mut fe = vec![0.0; 60];
        k.compute_fe(&coords, &mut fe, &mut KernelScratch::default());
        let fz: f64 = (0..20).map(|i| fe[3 * i + 2]).sum();
        assert!((fz + rho_g * h * h * h).abs() < 1e-10, "total weight {fz}");
        let fx: f64 = (0..20).map(|i| fe[3 * i]).sum();
        assert!(fx.abs() < 1e-12);
    }

    #[test]
    fn lame_constants() {
        let k = ElasticityKernel::new(ElementType::Hex8, 200.0, 0.25, [0.0; 3]);
        let (la, mu) = k.lame();
        assert!((la - 80.0).abs() < 1e-12);
        assert!((mu - 80.0).abs() < 1e-12);
    }

    #[test]
    fn flop_counts_positive_and_scale() {
        let p8 = PoissonKernel::new(ElementType::Hex8).ke_flops();
        let p27 = PoissonKernel::new(ElementType::Hex27).ke_flops();
        assert!(
            p27 > 10 * p8,
            "quadratic elements cost much more: {p8} vs {p27}"
        );
        let e8 = ElasticityKernel::new(ElementType::Hex8, 1.0, 0.3, [0.0; 3]).ke_flops();
        assert!(e8 > p8, "elasticity costs more than Poisson");
    }

    #[test]
    #[should_panic(expected = "Poisson ratio")]
    fn invalid_poisson_ratio_rejected() {
        let _ = ElasticityKernel::new(ElementType::Hex8, 1.0, 0.5, [0.0; 3]);
    }
}
