//! Preconditioners: Jacobi and block-Jacobi (per-rank ILU(0) block),
//! the configurations the paper evaluates in Fig 11.

use hymv_comm::Comm;

use crate::csr::SerialCsr;

/// A preconditioner: `z ≈ A⁻¹ r` on owned-dof slices.
pub trait Precond {
    /// Apply the preconditioner.
    fn apply(&mut self, comm: &mut Comm, r: &[f64], z: &mut [f64]);
}

/// No preconditioning (`z = r`).
pub struct Identity;

impl Precond for Identity {
    fn apply(&mut self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Point-Jacobi: `z = D⁻¹ r` with the owned diagonal of the global matrix.
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// Build from the owned diagonal entries.
    ///
    /// # Panics
    /// Panics on zero diagonal entries — an SPD system never has them, so
    /// one indicates an assembly bug.
    pub fn new(diag: &[f64]) -> Self {
        let inv_diag = diag
            .iter()
            .map(|&d| {
                assert!(d != 0.0, "zero diagonal entry in Jacobi preconditioner");
                1.0 / d
            })
            .collect();
        Jacobi { inv_diag }
    }

    /// `z = D⁻¹ r`, the pointwise loop alone: [`Precond::apply`] charges
    /// it to the host clock, a device preconditioner as its own kernel.
    pub fn scale(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.inv_diag.len());
        for i in 0..r.len() {
            z[i] = r[i] * self.inv_diag[i];
        }
    }
}

impl Precond for Jacobi {
    /// [`Jacobi::scale`], charged to the virtual clock like every other
    /// vector loop of an iteration.
    fn apply(&mut self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        comm.work(|| self.scale(r, z));
    }
}

/// Block-Jacobi with one block per rank, each approximately inverted with
/// an ILU(0) factorization — PETSc's `-pc_type bjacobi` with the default
/// ILU sub-preconditioner, the configuration of Fig 11b.
///
/// HYMV builds the block from its stored element matrices restricted to
/// owned dofs (the paper notes HYMV "needs to assemble the diagonal block
/// matrix" for this preconditioner).
pub struct BlockJacobi {
    /// Combined LU factors in one CSR (strict lower = L with unit diagonal
    /// implied; diagonal + strict upper = U).
    lu: SerialCsr,
    /// Index of the diagonal entry within each row of `lu`.
    diag_idx: Vec<usize>,
}

impl BlockJacobi {
    /// Factor the owned diagonal block (square CSR over owned dofs).
    ///
    /// # Panics
    /// Panics if a structural or numerical zero pivot is encountered.
    pub fn ilu0(block: &SerialCsr) -> Self {
        assert_eq!(block.n_rows(), block.n_cols(), "block must be square");
        let n = block.n_rows();
        let mut lu = block.clone();

        let mut diag_idx = vec![usize::MAX; n];
        for r in 0..n {
            for idx in lu.ptr[r]..lu.ptr[r + 1] {
                if lu.cols[idx] as usize == r {
                    diag_idx[r] = idx;
                }
            }
            assert!(
                diag_idx[r] != usize::MAX,
                "row {r} has no diagonal entry for ILU(0)"
            );
        }

        // IKJ-ordered ILU(0): for each row i, eliminate with rows k < i
        // that appear in i's sparsity pattern.
        // Scatter buffer for the current row.
        let mut pos: Vec<isize> = vec![-1; n];
        for i in 0..n {
            let (start, end) = (lu.ptr[i], lu.ptr[i + 1]);
            for idx in start..end {
                pos[lu.cols[idx] as usize] = isize::try_from(idx).expect("nnz index fits in isize");
            }
            for idx in start..end {
                let k = lu.cols[idx] as usize;
                if k >= i {
                    break; // cols sorted: the rest is the U part
                }
                let pivot = lu.vals[diag_idx[k]];
                assert!(pivot != 0.0, "zero pivot at row {k} in ILU(0)");
                let factor = lu.vals[idx] / pivot;
                lu.vals[idx] = factor;
                // Row_i -= factor * U-part of row_k (within pattern).
                for kidx in diag_idx[k] + 1..lu.ptr[k + 1] {
                    let col = lu.cols[kidx] as usize;
                    let p = pos[col];
                    if p >= 0 {
                        lu.vals[p as usize] -= factor * lu.vals[kidx];
                    }
                }
            }
            for idx in start..end {
                pos[lu.cols[idx] as usize] = -1;
            }
        }
        BlockJacobi { lu, diag_idx }
    }

    /// Solve `LU z = r` (forward + backward substitution).
    fn solve(&self, r: &[f64], z: &mut [f64]) {
        let n = self.lu.n_rows();
        // Forward: L y = r (unit diagonal).
        for i in 0..n {
            let mut s = r[i];
            for idx in self.lu.ptr[i]..self.diag_idx[i] {
                s -= self.lu.vals[idx] * z[self.lu.cols[idx] as usize];
            }
            z[i] = s;
        }
        // Backward: U z = y.
        for i in (0..n).rev() {
            let mut s = z[i];
            for idx in self.diag_idx[i] + 1..self.lu.ptr[i + 1] {
                s -= self.lu.vals[idx] * z[self.lu.cols[idx] as usize];
            }
            z[i] = s / self.lu.vals[self.diag_idx[i]];
        }
    }
}

impl Precond for BlockJacobi {
    /// The two triangular solves, charged to the virtual clock like
    /// [`Jacobi::apply`].
    fn apply(&mut self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.lu.n_rows());
        comm.work(|| self.solve(r, z));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;

    #[test]
    fn jacobi_inverts_diagonal() {
        let out = Universe::run(1, |comm| {
            let mut pc = Jacobi::new(&[2.0, 4.0, 0.5]);
            let mut z = vec![0.0; 3];
            pc.apply(comm, &[2.0, 2.0, 2.0], &mut z);
            z
        });
        assert_eq!(out[0], vec![1.0, 0.5, 4.0]);
    }

    /// The host Jacobi is charged its loop's CPU time: one apply on a
    /// large vector advances the rank's virtual clock.
    #[test]
    fn jacobi_apply_advances_virtual_time() {
        let out = Universe::run(1, |comm| {
            let n = 1 << 20;
            let mut pc = Jacobi::new(&vec![2.0; n]);
            let r = vec![1.0; n];
            let mut z = vec![0.0; n];
            let vt0 = comm.vt();
            pc.apply(comm, &r, &mut z);
            (comm.vt() - vt0, z[n - 1])
        });
        let (dt, z) = out[0];
        assert_eq!(z, 0.5);
        assert!(dt > 0.0, "Jacobi::apply charged {dt} s");
    }

    /// The host block-Jacobi is charged its triangular solves: one apply
    /// on a large diagonal block advances the rank's virtual clock.
    #[test]
    fn block_jacobi_apply_advances_virtual_time() {
        let n = 1 << 18;
        let t = (0..n as u32).map(|i| (i, i, 2.0)).collect();
        let a = SerialCsr::from_triples(n, n, t);
        let out = Universe::run(1, |comm| {
            let mut pc = BlockJacobi::ilu0(&a);
            let r = vec![1.0; n];
            let mut z = vec![0.0; n];
            let vt0 = comm.vt();
            pc.apply(comm, &r, &mut z);
            (comm.vt() - vt0, z[n - 1])
        });
        let (dt, z) = out[0];
        assert_eq!(z, 0.5);
        assert!(dt > 0.0, "BlockJacobi::apply charged {dt} s");
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn jacobi_rejects_zero_diag() {
        let _ = Jacobi::new(&[1.0, 0.0]);
    }

    #[test]
    fn ilu0_exact_for_tridiagonal() {
        // ILU(0) on a tridiagonal matrix has no fill, so LU is exact and
        // the preconditioner is a direct solve.
        let n = 10;
        let mut t = Vec::new();
        for i in 0..n as u32 {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        let a = SerialCsr::from_triples(n, n, t);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b, false);

        let out = Universe::run(1, |comm| {
            let mut pc = BlockJacobi::ilu0(&a);
            let mut z = vec![0.0; n];
            pc.apply(comm, &b, &mut z);
            z
        });
        for (got, want) in out[0].iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn ilu0_approximates_inverse_on_sparse_spd() {
        // 2D 5-point Laplacian on a 5×5 grid: ILU(0) is inexact (fill is
        // dropped) but ‖z − A⁻¹r‖ must be much smaller than ‖r − A·r‖.
        let g = 5usize;
        let n = g * g;
        let mut t = Vec::new();
        for j in 0..g {
            for i in 0..g {
                let r = (j * g + i) as u32;
                t.push((r, r, 4.0));
                if i > 0 {
                    t.push((r, r - 1, -1.0));
                }
                if i + 1 < g {
                    t.push((r, r + 1, -1.0));
                }
                if j > 0 {
                    t.push((r, r - g as u32, -1.0));
                }
                if j + 1 < g {
                    t.push((r, r + g as u32, -1.0));
                }
            }
        }
        let a = SerialCsr::from_triples(n, n, t);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b, false);

        let out = Universe::run(1, |comm| {
            let mut pc = BlockJacobi::ilu0(&a);
            let mut z = vec![0.0; n];
            pc.apply(comm, &b, &mut z);
            z
        });
        // Residual of the preconditioned solve vs the trivial guess z = b.
        let res = |z: &[f64]| {
            let mut az = vec![0.0; n];
            a.spmv(z, &mut az, false);
            az.iter()
                .zip(&b)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0, f64::max)
        };
        assert!(
            res(&out[0]) < 0.2 * res(&b),
            "ILU(0) {} vs identity {}",
            res(&out[0]),
            res(&b)
        );
    }

    #[test]
    #[should_panic(expected = "no diagonal entry")]
    fn ilu0_requires_diagonal() {
        let a = SerialCsr::from_triples(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        let _ = BlockJacobi::ilu0(&a);
    }

    #[test]
    fn identity_copies() {
        let out = Universe::run(1, |comm| {
            let mut z = vec![0.0; 2];
            Identity.apply(comm, &[5.0, -1.0], &mut z);
            z
        });
        assert_eq!(out[0], vec![5.0, -1.0]);
    }
}
