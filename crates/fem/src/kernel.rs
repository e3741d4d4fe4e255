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
//! structural: both kernels compute the node blocks `a ≥ b` only and
//! write each into both triangles, with the per-entry operation order of
//! the full double loop, so every bit is the one that loop produces
//! (`half_triangle_ke_matches_full_double_loop_bitwise`).
//!
//! Per-quadrature-point shape data is precomputed once per kernel (it is
//! element-independent); per-element work is Jacobian, physical gradients,
//! and accumulation, which is what the matrix-free baseline re-executes on
//! every SPMV (Algorithm 4) and what HYMV executes once at setup.
//!
//! Each in-tree kernel has one `Ke` body, generic over a lane count `W`:
//! lane `l` runs element `l`'s scalar operation sequence on [`Lanes`], so
//! every lane computes the bits of the one-element code. [`compute_ke`] is
//! the `W = 1` instance; [`compute_ke_chunk`] runs groups of [`LANES`]
//! elements, compiled for AVX-512F when the CPU has it.
//!
//! [`compute_ke`]: ElementKernel::compute_ke
//! [`compute_ke_chunk`]: ElementKernel::compute_ke_chunk

use std::sync::Arc;

use hymv_mesh::ElementType;

use crate::mapping::{jacobian, jacobian_lanes, physical_gradient_lanes, physical_point, Lanes};
use crate::quadrature::{hex_rule, tet_rule, QPoint};
use crate::shape::{shape_gradients, shape_values};

/// Elements per lane group of [`ElementKernel::compute_ke_chunk`]: one
/// AVX-512 vector of `f64`.
const LANES: usize = 8;

/// The most nodes of any element type (Hex27).
const MAX_NPE: usize = 27;

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
/// (matrix-free) path allocation-free: the buffers grow on first use and
/// are reused after.
#[derive(Default)]
pub struct KernelScratch {
    /// Physical gradients of a lane group, lane-minor (see
    /// [`Lanes::load`]).
    grads: Vec<f64>,
    /// `w · det J` per quadrature point, lane-minor.
    wd: Vec<f64>,
}

/// The first `len` entries of `v`, grown to hold them if needed.
fn sized(v: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if v.len() < len {
        v.resize(len, 0.0);
    }
    &mut v[..len]
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

    /// Compute the matrices of `coords.len()` elements into `kes`,
    /// column-major and back to back (`nd²` each): bitwise what
    /// [`Self::compute_ke`] gives each element. The in-tree kernels run
    /// eight elements at a time; this default runs one.
    ///
    /// # Panics
    /// Panics unless `kes.len() == coords.len() · nd²`.
    fn compute_ke_chunk(
        &self,
        coords: &[&[[f64; 3]]],
        kes: &mut [f64],
        scratch: &mut KernelScratch,
    ) {
        let sz = self.ndof_elem().pow(2);
        assert_eq!(kes.len(), coords.len() * sz, "one nd² matrix per element");
        for (c, ke) in coords.iter().zip(kes.chunks_exact_mut(sz)) {
            self.compute_ke(c, ke, scratch);
        }
    }

    /// Compute the element load vector (`nd`).
    fn compute_fe(&self, coords: &[[f64; 3]], fe: &mut [f64], scratch: &mut KernelScratch);

    /// Analytic floating-point-operation count of one `compute_ke` call,
    /// used by the throughput experiments (Table I, Fig 10).
    fn ke_flops(&self) -> u64;
}

/// An in-tree kernel's one `Ke` body, over `W` elements at once.
trait LaneKe: ElementKernel {
    /// Write the matrices of lanes `0..n` (`n ≤ W`) into `out`,
    /// column-major and back to back. `x[i][r]` is coordinate `r` of node
    /// `i` in every lane.
    fn ke_lanes<const W: usize>(
        &self,
        x: &[[Lanes<W>; 3]],
        out: &mut [f64],
        n: usize,
        scratch: &mut KernelScratch,
    );
}

/// The nodal coordinates of a lane group, lane by lane: lane `l` holds
/// `group[l]`. The idle lanes of a short group repeat `group[0]` — a real
/// element, so no made-up geometry meets the determinant check — and
/// their outputs are dropped.
#[inline(always)]
fn lane_coords<const W: usize>(group: &[&[[f64; 3]]]) -> [[Lanes<W>; 3]; MAX_NPE] {
    let mut x = [[Lanes::splat(0.0); 3]; MAX_NPE];
    for (i, xi) in x.iter_mut().enumerate().take(group[0].len()) {
        for l in 0..W {
            let p = group.get(l).unwrap_or(&group[0])[i];
            for r in 0..3 {
                xi[r].0[l] = p[r];
            }
        }
    }
    x
}

/// [`ElementKernel::compute_ke`] of an in-tree kernel: its body at `W = 1`.
fn ke_one<K: LaneKe>(k: &K, coords: &[[f64; 3]], ke: &mut [f64], scratch: &mut KernelScratch) {
    let npe = k.elem_type().nodes_per_elem();
    assert_eq!(coords.len(), npe, "one point per node");
    assert_eq!(ke.len(), k.ndof_elem().pow(2), "one nd² matrix");
    k.ke_lanes::<1>(&lane_coords(&[coords])[..npe], ke, 1, scratch);
}

/// [`ElementKernel::compute_ke_chunk`] of an in-tree kernel at the codegen
/// of its caller: lane groups of [`LANES`] elements, the last one padded.
#[inline(always)]
fn ke_chunk<K: LaneKe>(
    k: &K,
    coords: &[&[[f64; 3]]],
    kes: &mut [f64],
    scratch: &mut KernelScratch,
) {
    let npe = k.elem_type().nodes_per_elem();
    let sz = k.ndof_elem().pow(2);
    assert_eq!(kes.len(), coords.len() * sz, "one nd² matrix per element");
    assert!(coords.iter().all(|c| c.len() == npe), "one point per node");
    for (group, out) in coords.chunks(LANES).zip(kes.chunks_mut(LANES * sz)) {
        let x = lane_coords::<LANES>(group);
        k.ke_lanes(&x[..npe], out, group.len(), scratch);
    }
}

/// [`ke_chunk`] compiled for AVX-512F when this CPU has it, at baseline
/// codegen otherwise. Only the speed differs: the lanes run the same
/// operations, and Rust contracts no multiply-add into an FMA.
fn ke_chunk_dispatched<K: LaneKe>(
    k: &K,
    coords: &[&[[f64; 3]]],
    kes: &mut [f64],
    scratch: &mut KernelScratch,
) {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx512f")]
        fn avx512<K: LaneKe>(
            k: &K,
            coords: &[&[[f64; 3]]],
            kes: &mut [f64],
            scratch: &mut KernelScratch,
        ) {
            ke_chunk(k, coords, kes, scratch);
        }
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU has AVX-512F, the one feature `avx512` is
            // compiled for.
            #[allow(unsafe_code)]
            unsafe {
                avx512(k, coords, kes, scratch);
            }
            return;
        }
    }
    ke_chunk(k, coords, kes, scratch);
}

/// The physical gradients and `w · det J` of `W` elements at every
/// quadrature point, into `scratch`: returns `(g, wd)`, `g` node-major —
/// node `a`'s gradients at quadrature point `q` are lane vectors
/// `(a*nq + q)*3 + d`, so a node's run over all points is contiguous — and
/// `wd` lane vector `q` for point `q`.
#[inline(always)]
fn lane_gradients<'s, const W: usize>(
    qps: &[QpData],
    x: &[[Lanes<W>; 3]],
    scratch: &'s mut KernelScratch,
) -> (&'s [f64], &'s [f64]) {
    let (npe, nq) = (x.len(), qps.len());
    let g = sized(&mut scratch.grads, npe * nq * 3 * W);
    let wd = sized(&mut scratch.wd, nq * W);
    for (q, qp) in qps.iter().enumerate() {
        let jac = jacobian_lanes(|i| x[i], &qp.dn_ref);
        (Lanes::splat(qp.w) * jac.det).store(wd, q);
        for (a, dn) in qp.dn_ref.chunks_exact(3).enumerate() {
            let ga = physical_gradient_lanes(&jac.inv, dn);
            for d in 0..3 {
                ga[d].store(g, (a * nq + q) * 3 + d);
            }
        }
    }
    (g, wd)
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

impl LaneKe for PoissonKernel {
    /// Each entry `i ≥ j` summed over the quadrature points in a register,
    /// four rows of a column at a time (a column's last pass repeats its
    /// last row as often as it runs short: the same sum, written again),
    /// then written once, with its mirror.
    #[inline(always)]
    fn ke_lanes<const W: usize>(
        &self,
        x: &[[Lanes<W>; 3]],
        out: &mut [f64],
        n: usize,
        scratch: &mut KernelScratch,
    ) {
        let npe = x.len();
        let (g, wd) = lane_gradients(&self.qp, x, scratch);
        let mut write = |i: usize, j: usize, kij: Lanes<W>| {
            for (l, ke) in out.chunks_exact_mut(npe * npe).take(n).enumerate() {
                ke[j * npe + i] = kij.0[l];
                ke[i * npe + j] = kij.0[l];
            }
        };
        for j in 0..npe {
            for i in (j..npe).step_by(4) {
                let rows = [0, 1, 2, 3].map(|r| (i + r).min(npe - 1));
                let k = poisson_entries(g, wd, npe, j, rows);
                for r in 0..4 {
                    write(rows[r], j, k[r]);
                }
            }
        }
    }
}

/// Poisson `Ke` entries `(rows[r], j)` from [`lane_gradients`]' `(g, wd)`,
/// each summed over the quadrature points in its own register: `R`
/// independent sums per pass over the points.
#[inline(always)]
fn poisson_entries<const W: usize, const R: usize>(
    g: &[f64],
    wd: &[f64],
    npe: usize,
    j: usize,
    rows: [usize; R],
) -> [Lanes<W>; R] {
    let len = g.len() / npe;
    let node = |a: usize| &g[a * len..(a + 1) * len];
    let (gj, gi) = (node(j), rows.map(node));
    let mut k = [Lanes::splat(0.0); R];
    for (q, wd) in wd.chunks_exact(W).enumerate() {
        let gj = [0, 1, 2].map(|d| Lanes::<W>::load(gj, 3 * q + d));
        let wd = Lanes::load(wd, 0);
        for r in 0..R {
            let gi = [0, 1, 2].map(|d| Lanes::<W>::load(gi[r], 3 * q + d));
            k[r] += wd * (gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2]);
        }
    }
    k
}

impl ElementKernel for PoissonKernel {
    fn ndof_per_node(&self) -> usize {
        1
    }

    fn elem_type(&self) -> ElementType {
        self.et
    }

    fn compute_ke(&self, coords: &[[f64; 3]], ke: &mut [f64], scratch: &mut KernelScratch) {
        ke_one(self, coords, ke, scratch);
    }

    fn compute_ke_chunk(
        &self,
        coords: &[&[[f64; 3]]],
        kes: &mut [f64],
        scratch: &mut KernelScratch,
    ) {
        ke_chunk_dispatched(self, coords, kes, scratch);
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

impl LaneKe for ElasticityKernel {
    /// The gradients and `w · det J` of every quadrature point first; then
    /// each 3×3 node block `a ≥ b` summed over the quadrature points in
    /// registers — each entry still adds its terms in quadrature order,
    /// from `+0.0` — and written once, with its mirror.
    #[inline(always)]
    fn ke_lanes<const W: usize>(
        &self,
        x: &[[Lanes<W>; 3]],
        out: &mut [f64],
        n: usize,
        scratch: &mut KernelScratch,
    ) {
        let npe = x.len();
        let nd = 3 * npe;
        let (g, wd) = lane_gradients(&self.qp, x, scratch);
        let (la, mu) = (Lanes::splat(self.lambda), Lanes::splat(self.mu));
        let node = |a: usize| g[a * g.len() / npe..(a + 1) * g.len() / npe].chunks_exact(3 * W);
        for b in 0..npe {
            for a in b..npe {
                let mut blk = [[Lanes::splat(0.0); 3]; 3];
                for ((ga, gb), wd) in node(a).zip(node(b)).zip(wd.chunks_exact(W)) {
                    let ga = [0, 1, 2].map(|d| Lanes::<W>::load(ga, d));
                    let gb = [0, 1, 2].map(|d| Lanes::<W>::load(gb, d));
                    let wd = Lanes::load(wd, 0);
                    // Each gradient product once, `pr[i][j] = ga[i] * gb[j]`,
                    // as a literal array: formed inline, the vectorizer
                    // interleaved the lanes of `ga` and `gb` with permutes.
                    let pr = [
                        [ga[0] * gb[0], ga[0] * gb[1], ga[0] * gb[2]],
                        [ga[1] * gb[0], ga[1] * gb[1], ga[1] * gb[2]],
                        [ga[2] * gb[0], ga[2] * gb[1], ga[2] * gb[2]],
                    ];
                    let dot = pr[0][0] + pr[1][1] + pr[2][2];
                    // 3×3 block for (node a, node b):
                    // K_{ai,bj} = λ ∂ᵢNa ∂ⱼNb + μ ∂ⱼNa ∂ᵢNb + μ δᵢⱼ ∇Na·∇Nb
                    // The gradient products are formed before the Lamé
                    // factors multiply them: swapping (a,i) with (b,j) then
                    // only swaps the operands of commutative products, so
                    // the blocks a < b the mirror fills in hold the bits
                    // this loop would have computed for them, and the
                    // diagonal blocks are symmetric to the bit on their
                    // own (`la * ga[i] * gb[j]` is not). `pr[j][i]` is
                    // `ga[j] * gb[i]`, the product the full loop forms.
                    for j in 0..3 {
                        for i in 0..3 {
                            let mut v = la * pr[i][j] + mu * pr[j][i];
                            if i == j {
                                v += mu * dot;
                            }
                            blk[j][i] += wd * v;
                        }
                    }
                }
                for (l, ke) in out.chunks_exact_mut(nd * nd).take(n).enumerate() {
                    for j in 0..3 {
                        // A diagonal block's upper half is its lower half
                        // mirrored.
                        let i0 = if a == b { j } else { 0 };
                        for i in i0..3 {
                            let v = blk[j][i].0[l];
                            ke[(3 * b + j) * nd + 3 * a + i] = v;
                            ke[(3 * a + i) * nd + 3 * b + j] = v;
                        }
                    }
                }
            }
        }
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
        ke_one(self, coords, ke, scratch);
    }

    fn compute_ke_chunk(
        &self,
        coords: &[&[[f64; 3]]],
        kes: &mut [f64],
        scratch: &mut KernelScratch,
    ) {
        ke_chunk_dispatched(self, coords, kes, scratch);
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
    use crate::mapping::physical_gradients;

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

    /// Seventeen elements of `et` for the chunk tests: every fourth
    /// axis-aligned with power-of-two edges (exact arithmetic, zeros of
    /// either sign), the rest jittered.
    fn chunk_pool(et: ElementType) -> Vec<Vec<[f64; 3]>> {
        let mut state = 0x9E6C_63D0_676A_9A99u64;
        let mut jitter = |amp: f64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * amp
        };
        (0..17)
            .map(|k| {
                let (h, amp) = if k % 4 == 0 {
                    ([0.5, 0.25, 1.0], 0.0)
                } else {
                    ([0.37, 0.41, 0.43], 0.08)
                };
                et.ref_coords()
                    .iter()
                    .map(|r| [0, 1, 2].map(|c| r[c] * h[c] + jitter(amp)))
                    .collect()
            })
            .collect()
    }

    /// The two instances of an in-tree kernel's chunk entry: the
    /// dispatched one `compute_ke_chunk` runs, and the same body at
    /// baseline codegen.
    fn chunk_instances<K: LaneKe>(
        k: &K,
        coords: &[&[[f64; 3]]],
        scratch: &mut KernelScratch,
    ) -> [Vec<f64>; 2] {
        let sz = k.ndof_elem().pow(2);
        let mut dispatched = vec![f64::NAN; coords.len() * sz];
        k.compute_ke_chunk(coords, &mut dispatched, scratch);
        let mut baseline = vec![f64::NAN; coords.len() * sz];
        ke_chunk(k, coords, &mut baseline, scratch);
        [dispatched, baseline]
    }

    /// `compute_ke_chunk` writes, for every element of every chunk length
    /// 1..=17 (every padding case of a lane group, and groups after the
    /// first), the bits of the full double loop — for both kernels, all
    /// five element types, axis-aligned and jittered elements in varying
    /// lanes, dispatched and at baseline codegen.
    #[test]
    fn chunk_ke_matches_full_double_loop_bitwise() {
        for et in [
            ElementType::Hex8,
            ElementType::Hex20,
            ElementType::Hex27,
            ElementType::Tet4,
            ElementType::Tet10,
        ] {
            let pool = chunk_pool(et);
            let poisson = PoissonKernel::new(et);
            let elasticity = ElasticityKernel::new(et, 207.3, 0.29, [0.0; 3]);
            let mut scratch = KernelScratch::default();
            for ndof in [1usize, 3] {
                let nd = et.nodes_per_elem() * ndof;
                let sz = nd * nd;
                let reference: Vec<Vec<f64>> = pool
                    .iter()
                    .map(|c| {
                        let mut ke = vec![0.0; sz];
                        if ndof == 1 {
                            poisson_ke_full(&poisson, c, &mut ke);
                        } else {
                            elasticity_ke_full(&elasticity, c, &mut ke);
                        }
                        ke
                    })
                    .collect();
                for len in 1..=17 {
                    let ids: Vec<usize> = (0..len).map(|k| (k + len) % 17).collect();
                    let coords: Vec<&[[f64; 3]]> = ids.iter().map(|&k| &pool[k][..]).collect();
                    let outs = if ndof == 1 {
                        chunk_instances(&poisson, &coords, &mut scratch)
                    } else {
                        chunk_instances(&elasticity, &coords, &mut scratch)
                    };
                    for (instance, kes) in ["dispatched", "baseline"].iter().zip(&outs) {
                        for (lane, (&k, ke)) in ids.iter().zip(kes.chunks_exact(sz)).enumerate() {
                            for (at, (x, y)) in ke.iter().zip(&reference[k]).enumerate() {
                                assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "{et:?} ndof={ndof} {instance} len {len} lane {lane}: \
                                     Ke({}, {}) = {x:e} vs {y:e}",
                                    at % nd,
                                    at / nd
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The panic message of one chunk entry on `coords`, which must panic.
    fn chunk_panic<K: LaneKe>(k: &K, coords: &[&[[f64; 3]]], dispatched: bool) -> String {
        let mut kes = vec![0.0; coords.len() * k.ndof_elem().pow(2)];
        let mut scratch = KernelScratch::default();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if dispatched {
                k.compute_ke_chunk(coords, &mut kes, &mut scratch);
            } else {
                ke_chunk(k, coords, &mut kes, &mut scratch);
            }
        }))
        .expect_err("a degenerate lane must panic");
        err.downcast_ref::<String>()
            .expect("a formatted panic message")
            .clone()
    }

    /// A degenerate element in lane 5 of a chunk stops the chunk with the
    /// scalar code's message: a lane group cannot hide a bad element.
    #[test]
    fn degenerate_element_in_a_lane_panics() {
        let et = ElementType::Hex8;
        let pool = chunk_pool(et);
        let flat: Vec<[f64; 3]> = et.ref_coords().iter().map(|r| [r[0], r[1], 0.0]).collect();
        let mut coords: Vec<&[[f64; 3]]> = pool[..8].iter().map(|c| &c[..]).collect();
        coords[5] = &flat;
        let poisson = PoissonKernel::new(et);
        let elasticity = ElasticityKernel::new(et, 1.0, 0.3, [0.0; 3]);
        for dispatched in [true, false] {
            for msg in [
                chunk_panic(&poisson, &coords, dispatched),
                chunk_panic(&elasticity, &coords, dispatched),
            ] {
                assert!(msg.contains("degenerate or inverted element"), "{msg}");
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
