//! The distributed array (DA): HYMV's partitioned-vector representation.
//!
//! Memory layout (paper Fig 2): `[pre-ghost | owned | post-ghost]` nodes,
//! each carrying `ndof` interleaved components. Elemental extraction and
//! accumulation (`ue ← u(E2L[e])`, `v(E2L[e]) += ve`) are the two hot
//! indexing operations of Algorithm 2.
//!
//! A DA of `nvec > 1` columns is the operand of the SpMM: the same
//! `[pre | owned | post]` dof order, but every dof slot widens to `nvec`
//! contiguous column values (`data[dof·nvec + c]`). That interleaving
//! makes the multivector gather/scatter a contiguous `nvec`-copy per table
//! entry and lets the ghost exchange ship all columns of a fragment in one
//! envelope — the exchange and Algorithm 2 only ever see the row stride
//! `ndof·nvec`.

use hymv_la::Multivector;

use crate::maps::HymvMaps;

/// A partitioned vector (`nvec = 1`) or multivector in DA layout.
#[derive(Debug, Clone)]
pub struct DistArray {
    /// Flat values, `n_total_nodes × ndof × nvec`.
    pub data: Vec<f64>,
    /// Components per node.
    pub ndof: usize,
    /// Vector columns per dof.
    pub nvec: usize,
    /// Pre-ghost node count.
    n_pre: usize,
    /// Owned node count.
    n_owned: usize,
}

impl DistArray {
    /// Zero-initialized single-vector DA matching `maps`.
    pub fn new(maps: &HymvMaps, ndof: usize) -> Self {
        Self::new_mv(maps, ndof, 1)
    }

    /// Zero-initialized DA of `nvec` columns matching `maps`.
    pub fn new_mv(maps: &HymvMaps, ndof: usize, nvec: usize) -> Self {
        assert!(nvec > 0, "a DA must have at least one column");
        DistArray {
            data: vec![0.0; maps.n_total() * ndof * nvec],
            ndof,
            nvec,
            n_pre: maps.gpre.len(),
            n_owned: maps.n_owned(),
        }
    }

    /// Values per node: `ndof · nvec`, the exchange's row stride.
    pub(crate) fn stride(&self) -> usize {
        self.ndof * self.nvec
    }

    /// Owned-dof slice (the vector the solver sees; row-major over the
    /// columns when `nvec > 1`).
    pub fn owned(&self) -> &[f64] {
        let s = self.stride();
        &self.data[self.n_pre * s..(self.n_pre + self.n_owned) * s]
    }

    /// Mutable owned-dof slice.
    pub fn owned_mut(&mut self) -> &mut [f64] {
        let s = self.stride();
        &mut self.data[self.n_pre * s..(self.n_pre + self.n_owned) * s]
    }

    /// Copy an owned-dof vector in.
    pub fn set_owned(&mut self, x: &[f64]) {
        self.owned_mut().copy_from_slice(x);
    }

    /// Zero everything (start of an SPMV accumulation).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Transpose a column-major owned multivector into the owned block,
    /// row by row: one contiguous stream of rows out, `nvec` column
    /// streams in. The solver boundary is column-major ([`Multivector`]);
    /// the transposes happen once per SpMM at the owned block and are
    /// O(`n·nvec`) against the O(`nd²·bw`) elemental work they bracket.
    pub fn set_owned_mv(&mut self, x: &Multivector) {
        assert_eq!(x.nrows(), self.n_owned * self.ndof, "owned row mismatch");
        assert_eq!(x.nvec(), self.nvec, "column-count mismatch");
        let (nrows, nvec) = (x.nrows(), self.nvec);
        let cols = x.as_slice();
        for (i, row) in self.owned_mut().chunks_exact_mut(nvec).enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = cols[c * nrows + i];
            }
        }
    }

    /// Transpose the owned block out into a column-major multivector, row
    /// by row: one contiguous stream of rows in, `nvec` column streams out.
    pub fn copy_owned_to(&self, y: &mut Multivector) {
        assert_eq!(y.nrows(), self.n_owned * self.ndof, "owned row mismatch");
        assert_eq!(y.nvec(), self.nvec, "column-count mismatch");
        let (nrows, nvec) = (y.nrows(), self.nvec);
        let cols = y.as_mut_slice();
        for (i, row) in self.owned().chunks_exact(nvec).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                cols[c * nrows + i] = v;
            }
        }
    }

    /// Extract the element vector `ue ← u(E2L[e])` into `ue`
    /// (`npe × ndof`, node-major) from a single-vector DA.
    pub fn extract_elem(&self, local_nodes: &[u32], ue: &mut [f64]) {
        let ndof = self.ndof;
        debug_assert_eq!((self.nvec, ue.len()), (1, local_nodes.len() * ndof));
        for (m, &l) in local_nodes.iter().enumerate() {
            let src = l as usize * ndof;
            ue[m * ndof..(m + 1) * ndof].copy_from_slice(&self.data[src..src + ndof]);
        }
    }

    /// Accumulate the element vector `v(E2L[e]) += ve` into a
    /// single-vector DA.
    pub fn accumulate_elem(&mut self, local_nodes: &[u32], ve: &[f64]) {
        let ndof = self.ndof;
        debug_assert_eq!((self.nvec, ve.len()), (1, local_nodes.len() * ndof));
        for (m, &l) in local_nodes.iter().enumerate() {
            let dst = l as usize * ndof;
            for c in 0..ndof {
                self.data[dst + c] += ve[m * ndof + c];
            }
        }
    }

    /// Pre-ghost node count.
    pub fn n_pre(&self) -> usize {
        self.n_pre
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_mesh::{ElementType, MeshPartition};

    fn two_ghost_maps() -> HymvMaps {
        // 1 element referencing pre-ghost 0, owned 5,6, post-ghost 9.
        let part = MeshPartition {
            rank: 1,
            elem_type: ElementType::Tet4,
            e2g: vec![0, 5, 6, 9],
            node_range: (5, 7),
            elem_coords: vec![[0.0; 3]; 4],
            elem_global_ids: vec![0],
            n_global_nodes: 10,
        };
        HymvMaps::build(&part)
    }

    #[test]
    fn layout_regions() {
        let maps = two_ghost_maps();
        let mut da = DistArray::new(&maps, 2);
        assert_eq!(da.data.len(), 8); // 4 nodes × 2 dofs
        da.set_owned(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(da.owned(), &[1.0, 2.0, 3.0, 4.0]);
        // Pre-ghost region untouched.
        assert_eq!(&da.data[..2], &[0.0, 0.0]);
        da.fill_zero();
        assert!(da.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn extract_and_accumulate_round_trip() {
        let maps = two_ghost_maps();
        let mut da = DistArray::new(&maps, 1);
        da.data.copy_from_slice(&[10.0, 20.0, 30.0, 40.0]); // pre, o, o, post
        let nodes = maps.elem_local_nodes(0);
        let mut ue = vec![0.0; 4];
        da.extract_elem(nodes, &mut ue);
        assert_eq!(ue, vec![10.0, 20.0, 30.0, 40.0]);

        da.accumulate_elem(nodes, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(da.data, vec![11.0, 21.0, 31.0, 41.0]);
    }

    #[test]
    fn multivector_da_owned_round_trip() {
        let maps = two_ghost_maps();
        // 2 owned nodes × 2 dofs × 3 columns.
        let mut mda = DistArray::new_mv(&maps, 2, 3);
        assert_eq!(mda.data.len(), 4 * 2 * 3);
        let x = Multivector::from_columns(&[
            vec![1.0, 2.0, 3.0, 4.0],
            vec![5.0, 6.0, 7.0, 8.0],
            vec![9.0, 10.0, 11.0, 12.0],
        ]);
        mda.set_owned_mv(&x);
        // Owned dof 0 (node 1 in DA order) holds its 3 column values
        // contiguously.
        let base = mda.n_pre() * 2 * 3;
        assert_eq!(&mda.data[base..base + 3], &[1.0, 5.0, 9.0]);
        let mut y = Multivector::new(4, 3);
        mda.copy_owned_to(&mut y);
        assert_eq!(y, x);
        // Ghost regions untouched by set_owned.
        assert!(mda.data[..base].iter().all(|&v| v == 0.0));
    }

    /// Column-outer transposes (one strided access per element, column by
    /// column): the bitwise references.
    fn set_owned_reference(da: &mut DistArray, x: &Multivector) {
        let base = da.n_pre * da.ndof;
        for c in 0..da.nvec {
            for (i, &v) in x.col(c).iter().enumerate() {
                da.data[(base + i) * da.nvec + c] = v;
            }
        }
    }

    fn copy_owned_to_reference(da: &DistArray, y: &mut Multivector) {
        let base = da.n_pre * da.ndof;
        for c in 0..da.nvec {
            for (i, v) in y.col_mut(c).iter_mut().enumerate() {
                *v = da.data[(base + i) * da.nvec + c];
            }
        }
    }

    /// Row-outer transposes move the same values to the same slots as the
    /// column-outer loops, behind a pre-ghost region, for one, three and
    /// eight columns — and leave the ghost regions alone.
    #[test]
    fn row_outer_transposes_equal_the_column_outer_loops() {
        let maps = two_ghost_maps();
        let ndof = 2;
        for nvec in [1usize, 3, 8] {
            let n = maps.n_owned() * ndof;
            let cols: Vec<Vec<f64>> = (0..nvec)
                .map(|c| (0..n).map(|i| (c * 31 + i) as f64 * 0.37 - 1.0).collect())
                .collect();
            let x = Multivector::from_columns(&cols);
            let mut got = DistArray::new_mv(&maps, ndof, nvec);
            let mut want = got.clone();
            got.data.iter_mut().for_each(|v| *v = -2.5);
            want.data.iter_mut().for_each(|v| *v = -2.5);
            got.set_owned_mv(&x);
            set_owned_reference(&mut want, &x);
            assert!(got.n_pre() > 0);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.data), bits(&want.data), "nvec={nvec}");

            for (i, v) in got.data.iter_mut().enumerate() {
                *v = i as f64 * 1.5 - 3.0;
            }
            let (mut y, mut y_ref) = (Multivector::new(n, nvec), Multivector::new(n, nvec));
            got.copy_owned_to(&mut y);
            copy_owned_to_reference(&got, &mut y_ref);
            assert_eq!(bits(y.as_slice()), bits(y_ref.as_slice()), "nvec={nvec}");
        }
    }

    #[test]
    fn multi_dof_interleaving() {
        let maps = two_ghost_maps();
        let mut da = DistArray::new(&maps, 3);
        let nodes = maps.elem_local_nodes(0);
        // Put node-id-dependent values via accumulate.
        let ve: Vec<f64> = (0..12).map(|i| i as f64).collect();
        da.accumulate_elem(nodes, &ve);
        // Node 1 of the element is owned node 5 → local node 1 → dofs 3..6.
        assert_eq!(&da.data[3..6], &[3.0, 4.0, 5.0]);
        let mut ue = vec![0.0; 12];
        da.extract_elem(nodes, &mut ue);
        assert_eq!(ue, ve);
    }
}
