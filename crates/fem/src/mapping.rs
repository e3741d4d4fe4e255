//! Isoparametric mapping: Jacobians and physical gradients.

/// Jacobian data at one quadrature point.
#[derive(Debug, Clone, Copy)]
pub struct Jacobian {
    /// The 3×3 Jacobian `J[r][c] = ∂x_r / ∂ξ_c`.
    pub j: [[f64; 3]; 3],
    /// `det J` (positive for well-oriented elements).
    pub det: f64,
    /// `J⁻¹`.
    pub inv: [[f64; 3]; 3],
}

/// `W` lanes of `f64`, lane `l` belonging to element `l` of a lane group.
/// Every operator applies the scalar operation lane by lane, so each lane
/// computes exactly the bits the scalar code would (Rust never contracts
/// `a * b + c` into an FMA); at `W = 1` it *is* the scalar code.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lanes<const W: usize>(pub(crate) [f64; W]);

impl<const W: usize> Lanes<W> {
    #[inline(always)]
    pub(crate) fn splat(v: f64) -> Self {
        Lanes([v; W])
    }

    /// Lane vector `k` of a lane-minor buffer (`s[k*W + l]` is lane `l`).
    #[inline(always)]
    pub(crate) fn load(s: &[f64], k: usize) -> Self {
        Lanes(s[k * W..(k + 1) * W].try_into().expect("W lanes"))
    }

    #[inline(always)]
    pub(crate) fn store(self, s: &mut [f64], k: usize) {
        s[k * W..(k + 1) * W].copy_from_slice(&self.0);
    }
}

macro_rules! lanewise {
    ($trait:ident, $f:ident, $op:tt) => {
        impl<const W: usize> std::ops::$trait for Lanes<W> {
            type Output = Self;
            #[inline(always)]
            fn $f(self, o: Self) -> Self {
                let mut r = self.0;
                for l in 0..W {
                    r[l] = self.0[l] $op o.0[l];
                }
                Lanes(r)
            }
        }
    };
}
lanewise!(Add, add, +);
lanewise!(Sub, sub, -);
lanewise!(Mul, mul, *);
lanewise!(Div, div, /);

impl<const W: usize> std::ops::AddAssign for Lanes<W> {
    #[inline(always)]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

/// [`Jacobian`] of `W` elements at once.
pub(crate) struct LaneJacobian<const W: usize> {
    pub(crate) j: [[Lanes<W>; 3]; 3],
    pub(crate) det: Lanes<W>,
    pub(crate) inv: [[Lanes<W>; 3]; 3],
}

/// [`jacobian`] of `W` elements at once: `x(i)[r]` is coordinate `r` of
/// node `i` in every lane, `dn` the `npe × 3` reference gradients. The one
/// Jacobian body — [`jacobian`] is its `W = 1` instance.
///
/// # Panics
/// Panics if any lane's element is degenerate or inverted.
#[inline(always)]
pub(crate) fn jacobian_lanes<const W: usize>(
    x: impl Fn(usize) -> [Lanes<W>; 3],
    dn: &[f64],
) -> LaneJacobian<W> {
    let mut j = [[Lanes::splat(0.0); 3]; 3];
    for i in 0..dn.len() / 3 {
        let x = x(i);
        for r in 0..3 {
            for c in 0..3 {
                j[r][c] += x[r] * Lanes::splat(dn[3 * i + c]);
            }
        }
    }
    let det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
    for det in det.0 {
        assert!(det > 1e-14, "degenerate or inverted element: det J = {det}");
    }
    let inv_det = Lanes::splat(1.0) / det;
    let inv = [
        [
            (j[1][1] * j[2][2] - j[1][2] * j[2][1]) * inv_det,
            (j[0][2] * j[2][1] - j[0][1] * j[2][2]) * inv_det,
            (j[0][1] * j[1][2] - j[0][2] * j[1][1]) * inv_det,
        ],
        [
            (j[1][2] * j[2][0] - j[1][0] * j[2][2]) * inv_det,
            (j[0][0] * j[2][2] - j[0][2] * j[2][0]) * inv_det,
            (j[0][2] * j[1][0] - j[0][0] * j[1][2]) * inv_det,
        ],
        [
            (j[1][0] * j[2][1] - j[1][1] * j[2][0]) * inv_det,
            (j[0][1] * j[2][0] - j[0][0] * j[2][1]) * inv_det,
            (j[0][0] * j[1][1] - j[0][1] * j[1][0]) * inv_det,
        ],
    ];
    LaneJacobian { j, det, inv }
}

/// Compute the Jacobian from nodal coordinates and reference gradients.
///
/// `coords` is `npe` points; `dn` is `npe × 3` node-major reference
/// gradients (as produced by [`crate::shape::shape_gradients`]).
///
/// # Panics
/// Panics if the element is degenerate or inverted (`det J ≤ 0`) — a mesh
/// bug that must not be silently integrated over.
pub fn jacobian(coords: &[[f64; 3]], dn: &[f64]) -> Jacobian {
    debug_assert_eq!(dn.len(), 3 * coords.len());
    let jac = jacobian_lanes(|i| coords[i].map(|v| Lanes([v])), dn);
    let scalar = |m: [[Lanes<1>; 3]; 3]| m.map(|row| row.map(|v| v.0[0]));
    Jacobian {
        j: scalar(jac.j),
        det: jac.det.0[0],
        inv: scalar(jac.inv),
    }
}

/// [`physical_gradients`] of one node of `W` elements at once, from its
/// reference gradient `dn` (3 entries). Each sum starts at `-0.0`, the
/// identity of the `Iterator::sum` [`physical_gradients`] uses: a sum of
/// three `-0.0` products stays `-0.0`, as it would not from `+0.0`.
#[inline(always)]
pub(crate) fn physical_gradient_lanes<const W: usize>(
    inv: &[[Lanes<W>; 3]; 3],
    dn: &[f64],
) -> [Lanes<W>; 3] {
    [0, 1, 2].map(|d| {
        Lanes::splat(-0.0)
            + inv[0][d] * Lanes::splat(dn[0])
            + inv[1][d] * Lanes::splat(dn[1])
            + inv[2][d] * Lanes::splat(dn[2])
    })
}

/// Transform reference gradients to physical gradients:
/// `dx[i] = J⁻ᵀ dξ[i]`. Both buffers are `npe × 3` node-major; in-place
/// operation is not supported (distinct slices required).
pub fn physical_gradients(jac: &Jacobian, dn_ref: &[f64], dn_phys: &mut [f64]) {
    debug_assert_eq!(dn_ref.len(), dn_phys.len());
    let npe = dn_ref.len() / 3;
    for i in 0..npe {
        for d in 0..3 {
            // (J⁻ᵀ)[d][c] = inv[c][d]
            dn_phys[3 * i + d] = (0..3).map(|c| jac.inv[c][d] * dn_ref[3 * i + c]).sum();
        }
    }
}

/// Interpolate the physical position of a reference point.
pub fn physical_point(coords: &[[f64; 3]], n: &[f64]) -> [f64; 3] {
    debug_assert_eq!(n.len(), coords.len());
    let mut x = [0.0; 3];
    for (i, c) in coords.iter().enumerate() {
        for d in 0..3 {
            x[d] += n[i] * c[d];
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{shape_gradients, shape_values};
    use hymv_mesh::ElementType;

    #[test]
    fn unit_cube_jacobian() {
        // A hex8 spanning [0,h]³ has J = (h/2) I, det = (h/2)³.
        let h = 0.25;
        let et = ElementType::Hex8;
        let coords: Vec<[f64; 3]> = et
            .ref_coords()
            .iter()
            .map(|r| {
                [
                    (r[0] + 1.0) / 2.0 * h,
                    (r[1] + 1.0) / 2.0 * h,
                    (r[2] + 1.0) / 2.0 * h,
                ]
            })
            .collect();
        let mut dn = vec![0.0; 24];
        shape_gradients(et, [0.1, -0.2, 0.4], &mut dn);
        let jac = jacobian(&coords, &dn);
        assert!((jac.det - (h / 2.0f64).powi(3)).abs() < 1e-14);
        for r in 0..3 {
            for c in 0..3 {
                let want = if r == c { h / 2.0 } else { 0.0 };
                assert!((jac.j[r][c] - want).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn inverse_is_inverse() {
        // Sheared hex: J should still satisfy J · J⁻¹ = I.
        let et = ElementType::Hex8;
        let coords: Vec<[f64; 3]> = et
            .ref_coords()
            .iter()
            .map(|r| [r[0] + 0.3 * r[1], r[1] - 0.1 * r[2], r[2] + 0.2 * r[0]])
            .collect();
        let mut dn = vec![0.0; 24];
        shape_gradients(et, [0.0, 0.0, 0.0], &mut dn);
        let jac = jacobian(&coords, &dn);
        for r in 0..3 {
            for c in 0..3 {
                let prod: f64 = (0..3).map(|k| jac.j[r][k] * jac.inv[k][c]).sum();
                let want = if r == c { 1.0 } else { 0.0 };
                assert!((prod - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn physical_gradients_of_linear_field_are_exact() {
        // f(x) = a·x ⇒ ∇f = a, computed as Σ f(x_i) ∇N_i.
        let a = [1.5, -2.0, 0.7];
        for et in [ElementType::Hex8, ElementType::Hex27, ElementType::Tet10] {
            let npe = et.nodes_per_elem();
            // Distorted but valid element.
            let coords: Vec<[f64; 3]> = et
                .ref_coords()
                .iter()
                .map(|r| {
                    [
                        r[0] + 0.05 * r[1] * r[1],
                        r[1] - 0.04 * r[2],
                        r[2] + 0.03 * r[0],
                    ]
                })
                .collect();
            let xi = if et.is_hex() {
                [0.2, -0.3, 0.1]
            } else {
                [0.2, 0.3, 0.2]
            };
            let mut dn_ref = vec![0.0; 3 * npe];
            let mut dn_phys = vec![0.0; 3 * npe];
            shape_gradients(et, xi, &mut dn_ref);
            let jac = jacobian(&coords, &dn_ref);
            physical_gradients(&jac, &dn_ref, &mut dn_phys);
            for d in 0..3 {
                let grad: f64 = (0..npe)
                    .map(|i| {
                        let f = a[0] * coords[i][0] + a[1] * coords[i][1] + a[2] * coords[i][2];
                        f * dn_phys[3 * i + d]
                    })
                    .sum();
                assert!(
                    (grad - a[d]).abs() < 1e-10,
                    "{et:?} dim {d}: {grad} vs {}",
                    a[d]
                );
            }
        }
    }

    #[test]
    fn physical_point_interpolates() {
        let et = ElementType::Hex8;
        let coords: Vec<[f64; 3]> = et
            .ref_coords()
            .iter()
            .map(|r| [2.0 * r[0], 3.0 * r[1], r[2]])
            .collect();
        let mut n = vec![0.0; 8];
        shape_values(et, [0.5, -0.5, 0.0], &mut n);
        let x = physical_point(&coords, &n);
        assert!((x[0] - 1.0).abs() < 1e-14);
        assert!((x[1] + 1.5).abs() < 1e-14);
        assert!(x[2].abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "degenerate or inverted")]
    fn inverted_element_detected() {
        let et = ElementType::Hex8;
        // Mirror the element in x → negative Jacobian.
        let coords: Vec<[f64; 3]> = et
            .ref_coords()
            .iter()
            .map(|r| [-r[0], r[1], r[2]])
            .collect();
        let mut dn = vec![0.0; 24];
        shape_gradients(et, [0.0, 0.0, 0.0], &mut dn);
        let _ = jacobian(&coords, &dn);
    }
}
