//! The adaptive-matrix path (XFEM/AMR): updating a subset of stored
//! element matrices must be exactly equivalent to a full rebuild with the
//! modified operator — at a fraction of the cost.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hymv::core::block::BlockPlan;
use hymv::core::operator::HymvOperator;
use hymv::fem::kernel::KernelScratch;
use hymv::prelude::*;

/// A kernel that scales another kernel's matrices (a crude "enrichment").
struct Scaled {
    inner: Arc<dyn ElementKernel>,
    factor: f64,
}

impl ElementKernel for Scaled {
    fn ndof_per_node(&self) -> usize {
        self.inner.ndof_per_node()
    }
    fn elem_type(&self) -> ElementType {
        self.inner.elem_type()
    }
    fn compute_ke(
        &self,
        coords: &[[f64; 3]],
        ke: &mut [f64],
        scratch: &mut hymv::fem::kernel::KernelScratch,
    ) {
        self.inner.compute_ke(coords, ke, scratch);
        for v in ke {
            *v *= self.factor;
        }
    }
    fn compute_fe(
        &self,
        coords: &[[f64; 3]],
        fe: &mut [f64],
        scratch: &mut hymv::fem::kernel::KernelScratch,
    ) {
        self.inner.compute_fe(coords, fe, scratch);
    }
    fn ke_flops(&self) -> u64 {
        self.inner.ke_flops()
    }
}

#[test]
fn local_update_equals_full_rebuild() {
    let mesh = unstructured_tet_mesh(3, ElementType::Tet4, 0.1, 8);
    let p = 3;
    let pm = partition_mesh(&mesh, p, PartitionMethod::GreedyGraph);
    let ok = Universe::run(p, |comm| {
        let part = &pm.parts[comm.rank()];
        let base: Arc<dyn ElementKernel> = Arc::new(PoissonKernel::new(ElementType::Tet4));
        let soft = Scaled {
            inner: Arc::clone(&base),
            factor: 0.01,
        };

        // Operator A: setup with base, then update a subset in place.
        let (mut a, _) = HymvOperator::setup(comm, part, &*base);
        // "Crack" every element whose original global id is divisible by 7.
        let cracked: Vec<usize> = (0..part.n_elems())
            .filter(|&le| part.elem_global_ids[le] % 7 == 0)
            .collect();
        a.update_elements(comm, part, &soft, &cracked);

        // Operator B: fresh setup with a kernel that is soft exactly on
        // those elements. (Per-element kernels are emulated by a manual
        // post-pass: recompute and scale.)
        let (mut b, _) = HymvOperator::setup(comm, part, &*base);
        for &le in &cracked {
            for v in b.ke_mut(le) {
                *v *= 0.01;
            }
        }

        let x: Vec<f64> = (0..a.n_owned())
            .map(|i| ((i * 5 % 13) as f64) - 6.0)
            .collect();
        let mut ya = vec![0.0; a.n_owned()];
        let mut yb = vec![0.0; b.n_owned()];
        a.matvec(comm, &x, &mut ya);
        b.matvec(comm, &x, &mut yb);
        ya.iter().zip(&yb).all(|(p, q)| (p - q).abs() < 1e-11)
    });
    assert!(ok.iter().all(|&b| b));
}

fn is_packed(op: &HymvOperator) -> bool {
    op.block_plan().expect("batched path").is_packed()
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: dof {i}: {x} vs {y}");
    }
}

/// A symmetric store streams lower-triangle slabs; the result must be the
/// bits of the full-layout kernels on the same matrices. The full-layout
/// twin is made without touching a matrix value: one asymmetric write is
/// flushed (demoting that operator's plan for good) and then undone.
#[test]
fn packed_slabs_match_full_slabs_bitwise() {
    let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
    for p in [1usize, 2] {
        let pm = partition_mesh(&mesh, p, PartitionMethod::GreedyGraph);
        Universe::run(p, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernels: [Box<dyn ElementKernel>; 2] = [
                Box::new(PoissonKernel::new(ElementType::Hex8)),
                Box::new(ElasticityKernel::new(ElementType::Hex8, 1.0, 0.3, [0.0; 3])),
            ];
            for kernel in &kernels {
                let (mut packed, _) = HymvOperator::setup(comm, part, kernel.as_ref());
                let (mut full, _) = HymvOperator::setup(comm, part, kernel.as_ref());
                let n = packed.n_owned();
                let x: Vec<f64> = (0..n)
                    .map(|i| ((i * 7 % 23) as f64) * 0.125 - 1.0)
                    .collect();
                let mut y = vec![0.0; n];

                let saved = full.store().ke(0)[1];
                full.ke_mut(0)[1] = saved + 1.0;
                full.matvec(comm, &x, &mut y);
                full.ke_mut(0)[1] = saved;
                assert!(is_packed(&packed), "FEM kernels give bitwise-symmetric Ke");
                assert!(!is_packed(&full));
                assert_eq!(packed.store().as_slice(), full.store().as_slice());
                assert!(packed.storage_bytes() < full.storage_bytes());
                assert_eq!(packed.flops_per_apply(), full.flops_per_apply());

                let mut y_full = vec![0.0; n];
                packed.matvec(comm, &x, &mut y);
                full.matvec(comm, &x, &mut y_full);
                assert_bitwise(&y, &y_full, "matvec");

                for nvec in [3usize, 8] {
                    let cols: Vec<Vec<f64>> = (0..nvec)
                        .map(|c| {
                            (0..n)
                                .map(|i| ((i * 13 + c * 5) % 19) as f64 - 9.0)
                                .collect()
                        })
                        .collect();
                    let xs = Multivector::from_columns(&cols);
                    let (mut ys, mut ys_full) =
                        (Multivector::new(n, nvec), Multivector::new(n, nvec));
                    packed.matvec_mv(comm, &xs, &mut ys);
                    full.matvec_mv(comm, &xs, &mut ys_full);
                    for c in 0..nvec {
                        assert_bitwise(ys.col(c), ys_full.col(c), "matvec_mv");
                    }
                }
            }
        });
    }
}

/// `ke_mut` may write anything. An asymmetric matrix demotes the plan to
/// full slabs at the next apply — a documented cliff, never a wrong
/// answer — and whatever the update history, the operator equals a fresh
/// setup on the same store to the bit.
#[test]
fn asymmetric_update_demotes_and_equals_fresh_setup() {
    let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build(); // 27 elems: ragged tail
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    Universe::run(1, |comm| {
        let part = &pm.parts[0];
        let kernel = PoissonKernel::new(ElementType::Hex8);
        let (mut a, _) = HymvOperator::setup(comm, part, &kernel);
        let n = a.n_owned();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let (mut y, mut y_ref) = (vec![0.0; n], vec![0.0; n]);
        a.matvec(comm, &x, &mut y);
        assert!(is_packed(&a));

        // Entry (1,0) of element 5 only: its mirror (0,1) keeps the old value.
        let saved = a.store().ke(5)[1];
        a.ke_mut(5)[1] = saved + 0.25;
        a.matvec(comm, &x, &mut y);
        assert!(!is_packed(&a), "asymmetric Ke must demote");

        // Against the per-element loop on the same store ...
        a.set_batch_width(1);
        a.matvec(comm, &x, &mut y_ref);
        for (p, q) in y.iter().zip(&y_ref) {
            assert!((p - q).abs() < 1e-12, "{p} vs {q}");
        }
        // ... and a rebuilt plan keeps the layout the data asks for.
        a.set_batch_width(8);
        assert!(!is_packed(&a));
        a.matvec(comm, &x, &mut y_ref);
        assert_bitwise(&y, &y_ref, "rebuilt full plan");

        // A fresh setup brought to the same store, bit for bit.
        let (mut b, _) = HymvOperator::setup(comm, part, &kernel);
        b.ke_mut(5)[1] = saved + 0.25;
        b.matvec(comm, &x, &mut y_ref);
        assert_bitwise(&y, &y_ref, "demoted vs fresh");

        // Undoing the write does not re-pack (one-way) ...
        a.ke_mut(5)[1] = saved;
        a.matvec(comm, &x, &mut y);
        assert!(!is_packed(&a));
        // ... until the plan is rebuilt from the now-symmetric store, by a
        // width change or by LFLR repair of this rank.
        a.repair(comm, &[0]);
        assert!(is_packed(&a));
        a.matvec(comm, &x, &mut y_ref);
        assert_bitwise(&y, &y_ref, "full vs re-packed");
        a.ke_mut(5)[1] = saved + 0.25;
        a.matvec(comm, &x, &mut y);
        a.ke_mut(5)[1] = saved;
        a.set_batch_width(4);
        assert!(is_packed(&a));
    });
}

/// Symmetric updates keep the packed layout, and any sequence of them
/// leaves the operator bitwise equal to a fresh setup that went straight
/// to the final matrices.
#[test]
fn symmetric_update_sequence_equals_fresh_setup_bitwise() {
    let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
    let p = 2;
    let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
    Universe::run(p, |comm| {
        let part = &pm.parts[comm.rank()];
        let base: Arc<dyn ElementKernel> = Arc::new(ElasticityKernel::new(
            ElementType::Hex8,
            3.0,
            0.25,
            [0.0; 3],
        ));
        let soft = Scaled {
            inner: Arc::clone(&base),
            factor: 0.01,
        };
        let every = |k: usize| -> Vec<usize> { (0..part.n_elems()).step_by(k).collect() };
        let n_elems = part.n_elems();

        // A: soften every 3rd element, apply, restore every 6th, apply.
        let (mut a, _) = HymvOperator::setup(comm, part, &*base);
        let n = a.n_owned();
        let x: Vec<f64> = (0..n).map(|i| ((i * 5 % 13) as f64) - 6.0).collect();
        let (mut ya, mut yb) = (vec![0.0; n], vec![0.0; n]);
        a.update_elements(comm, part, &soft, &every(3));
        a.matvec(comm, &x, &mut ya);
        a.update_elements(comm, part, &*base, &every(6));
        a.matvec(comm, &x, &mut ya);

        // B: fresh setup, softened exactly where A still is.
        let (mut b, _) = HymvOperator::setup(comm, part, &*base);
        let still_soft: Vec<usize> = (0..n_elems).filter(|e| e % 3 == 0 && e % 6 != 0).collect();
        b.update_elements(comm, part, &soft, &still_soft);
        b.matvec(comm, &x, &mut yb);

        assert!(is_packed(&a) && is_packed(&b));
        assert_eq!(a.store().as_slice(), b.store().as_slice());
        assert_bitwise(&ya, &yb, "updated vs fresh");
    });
}

/// A Poisson kernel with a hook run on every matrix it computes.
struct Hooked<F> {
    inner: PoissonKernel,
    after: F,
}

impl<F: Fn(&[[f64; 3]], &mut [f64]) + Send + Sync> ElementKernel for Hooked<F> {
    fn ndof_per_node(&self) -> usize {
        1
    }
    fn elem_type(&self) -> ElementType {
        self.inner.elem_type()
    }
    fn compute_ke(&self, coords: &[[f64; 3]], ke: &mut [f64], scratch: &mut KernelScratch) {
        self.inner.compute_ke(coords, ke, scratch);
        (self.after)(coords, ke);
    }
    fn compute_fe(&self, coords: &[[f64; 3]], fe: &mut [f64], scratch: &mut KernelScratch) {
        self.inner.compute_fe(coords, fe, scratch);
    }
    fn ke_flops(&self) -> u64 {
        self.inner.ke_flops()
    }
}

/// The cost of an update is the touched elements and nothing else:
/// exactly that many matrices are recomputed and exactly that many slab
/// lanes re-interleaved, whether 1 % of the mesh or all of it. Counted,
/// not timed — tier-1 does not read a clock.
#[test]
fn update_cost_scales_with_touched_fraction() {
    let mesh = StructuredHexMesh::unit(8, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    let part = &pm.parts[0];
    let n_elems = part.n_elems();
    let touch = |elems: Vec<usize>| {
        let calls = AtomicUsize::new(0);
        let kernel = Hooked {
            inner: PoissonKernel::new(ElementType::Hex8),
            after: |_: &[[f64; 3]], _: &mut [f64]| {
                calls.fetch_add(1, Ordering::Relaxed);
            },
        };
        let cfg = RunConfig {
            trace: true,
            ..RunConfig::default()
        };
        let session = hymv_trace::TraceSession::begin();
        Universe::run_configured(cfg, 1, |comm| {
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            assert_eq!(calls.swap(0, Ordering::Relaxed), n_elems);
            op.update_elements(comm, part, &kernel, &elems);
        });
        let report = session.finish();
        assert_eq!(calls.load(Ordering::Relaxed), elems.len());
        assert_eq!(
            report.metrics.counter_total("hymv_block_refresh_total"),
            elems.len() as u64
        );
        assert_eq!(
            report.metrics.counter_total("hymv_block_demotions_total"),
            0
        );
    };
    touch((0..n_elems).step_by(100).collect());
    touch((0..n_elems).collect());
}

/// A rejected update writes nothing: every id is checked before the first
/// matrix is recomputed, so an out-of-range id at the end of the list
/// leaves store, slabs and the next apply as they were, to the bit.
#[test]
fn rejected_update_leaves_operator_unchanged() {
    let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    Universe::run(1, |comm| {
        let part = &pm.parts[0];
        let base: Arc<dyn ElementKernel> = Arc::new(PoissonKernel::new(ElementType::Hex8));
        let soft = Scaled {
            inner: Arc::clone(&base),
            factor: 0.01,
        };
        let (mut op, _) = HymvOperator::setup(comm, part, &*base);
        let n = op.n_owned();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let (mut y0, mut y1) = (vec![0.0; n], vec![0.0; n]);
        op.matvec(comm, &x, &mut y0);
        let store0 = op.store().as_slice().to_vec();
        let slabs0 = slabs(&op);

        let bad = [0usize, 5, part.n_elems()];
        let rejected = catch_unwind(AssertUnwindSafe(|| {
            op.update_elements(comm, part, &soft, &bad);
        }));
        assert!(rejected.is_err(), "out-of-range id must be rejected");
        // A kernel of another dimension is rejected the same way.
        let elastic = ElasticityKernel::new(ElementType::Hex8, 1.0, 0.3, [0.0; 3]);
        let rejected = catch_unwind(AssertUnwindSafe(|| {
            op.update_elements(comm, part, &elastic, &[0]);
        }));
        assert!(rejected.is_err(), "kernel of another nd must be rejected");

        assert_bitwise(op.store().as_slice(), &store0, "store");
        assert_eq!(slabs(&op), slabs0);
        op.matvec(comm, &x, &mut y1);
        assert_bitwise(&y1, &y0, "matvec after rejected update");
    });
}

/// Every slab of the operator's plan, as bits (empty on the per-element
/// path).
fn slabs(op: &HymvOperator) -> Vec<u64> {
    op.block_plan().map_or_else(Vec::new, plan_slabs)
}

fn plan_slabs(plan: &BlockPlan) -> Vec<u64> {
    let mut bits = Vec::new();
    for dependent in [false, true] {
        let set = plan.set(dependent);
        for k in 0..set.n_blocks() {
            bits.extend(set.keb(k).iter().map(|v| v.to_bits()));
        }
    }
    bits
}

/// `matvec` and an `nvec = 8` `matvec_mv` of the operator, as one vector.
fn applies(comm: &mut hymv::comm::Comm, op: &mut HymvOperator) -> Vec<f64> {
    let n = op.n_owned();
    let cols: Vec<Vec<f64>> = (0..8)
        .map(|c| {
            (0..n)
                .map(|i| ((i * 13 + c * 5) % 19) as f64 * 0.25 - 2.0)
                .collect()
        })
        .collect();
    let mut y = vec![0.0; n];
    op.matvec(comm, &cols[0], &mut y);
    let xs = Multivector::from_columns(&cols);
    let mut ys = Multivector::new(n, 8);
    op.matvec_mv(comm, &xs, &mut ys);
    y.extend_from_slice(ys.as_slice());
    y
}

/// Setup and update are one routine: a fresh setup, an operator brought
/// to the same matrices by updating every element, and a plan attached to
/// the finished store in one pass agree in every bit of store, slabs,
/// `matvec` and `matvec_mv` — batched and per-element, p ∈ {1, 2}.
#[test]
fn fresh_setup_equals_update_of_every_element_bitwise() {
    // 125 elements: several chunks of the compute/interleave loop on
    // either rank count, the last one ragged.
    let mesh = StructuredHexMesh::unit(5, ElementType::Hex8).build();
    for p in [1usize, 2] {
        let pm = partition_mesh(&mesh, p, PartitionMethod::GreedyGraph);
        Universe::run(p, |comm| {
            let part = &pm.parts[comm.rank()];
            let base: Arc<dyn ElementKernel> = Arc::new(ElasticityKernel::new(
                ElementType::Hex8,
                3.0,
                0.25,
                [0.0; 3],
            ));
            let soft = Scaled {
                inner: Arc::clone(&base),
                factor: 0.01,
            };
            let all: Vec<usize> = (0..part.n_elems()).collect();
            for bw in [8usize, 1] {
                let (mut fresh, t) = HymvOperator::setup(comm, part, &*base);
                assert!(t.emat_compute_s > 0.0 && t.local_copy_s > 0.0);
                fresh.set_batch_width(bw);
                let (mut updated, _) = HymvOperator::setup(comm, part, &soft);
                updated.set_batch_width(bw);
                updated.update_elements(comm, part, &*base, &all);

                assert_eq!(fresh.block_plan().is_some_and(BlockPlan::is_packed), bw > 1);
                assert_bitwise(
                    fresh.store().as_slice(),
                    updated.store().as_slice(),
                    "store",
                );
                assert_eq!(slabs(&fresh), slabs(&updated), "bw={bw}: slabs");
                if bw > 1 {
                    let mut attached = BlockPlan::build(fresh.maps(), fresh.ndof(), bw);
                    attached.attach_store(fresh.store());
                    assert_eq!(slabs(&fresh), plan_slabs(&attached), "attach_store");
                }
                let y = applies(comm, &mut fresh);
                assert_bitwise(&y, &applies(comm, &mut updated), "applies");
            }
        });
    }
}

/// A kernel that turns asymmetric part-way through setup (element 41: the
/// second chunk, packed slabs already half filled) demotes the plan inside
/// that chunk. The finished operator is the full-layout plan of its store
/// to the bit, and agrees with the per-element path.
#[test]
fn asymmetric_matrix_mid_setup_demotes_to_the_full_layout() {
    let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    Universe::run(1, |comm| {
        let part = &pm.parts[0];
        // Symmetric everywhere except on the element whose first node is `at`.
        let at = part.elem_node_coords(41)[0];
        let kernel = Hooked {
            inner: PoissonKernel::new(ElementType::Hex8),
            after: |coords: &[[f64; 3]], ke: &mut [f64]| {
                if coords[0] == at {
                    ke[1] += 0.25;
                }
            },
        };
        let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
        assert!(!is_packed(&op), "one asymmetric Ke keeps every slab full");
        let ke = op.store().ke(41);
        assert_ne!(ke[1].to_bits(), ke[8].to_bits());

        let mut full = BlockPlan::build(op.maps(), 1, op.batch_width());
        full.attach_store(op.store());
        assert!(!full.is_packed());
        assert_eq!(slabs(&op), plan_slabs(&full));

        let y = applies(comm, &mut op);
        op.set_batch_width(1);
        for (a, b) in y.iter().zip(&applies(comm, &mut op)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    });
}

#[test]
fn solve_after_enrichment_changes_solution() {
    // Physical sanity: softening a region increases displacement there.
    let bar = BarProblem::default_unit();
    let (lo, hi) = bar.bbox();
    let mesh = StructuredHexMesh::new(6, 6, 6, ElementType::Hex8, lo, hi).build();
    let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
    let out = Universe::run(2, |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = Arc::new(ElasticityKernel::new(
            ElementType::Hex8,
            bar.young,
            bar.poisson,
            bar.body_force(),
        ));
        let mut sys = FemSystem::build(
            comm,
            part,
            Arc::clone(&kernel) as Arc<dyn ElementKernel>,
            &bar.dirichlet(),
            BuildOptions::new(Method::Hymv),
        );
        let (u0, r0) = sys.solve(comm, PrecondKind::Jacobi, 1e-10, 50_000);
        assert!(r0.converged);
        let max_u0 = u0.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        comm.allreduce_max_f64(max_u0)
    });
    assert!(out[0] > 0.0, "the bar must deform under its own weight");
}
