//! Failure injection: malformed inputs must fail loudly and precisely, not
//! corrupt results. These tests pin the error behaviour documented on the
//! public API.

use std::sync::Arc;

use hymv::mesh::partition::partition_mesh_with;
use hymv::prelude::*;

#[test]
fn mesh_validation_catches_corruption() {
    let mut mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
    assert!(mesh.validate().is_ok());
    // Out-of-range node reference.
    let saved = mesh.connectivity[0];
    mesh.connectivity[0] = 10_000;
    assert!(mesh.validate().is_err());
    mesh.connectivity[0] = saved;
    // Duplicate node within an element.
    mesh.connectivity[1] = mesh.connectivity[0];
    assert!(mesh.validate().is_err());
}

#[test]
fn partition_validation_catches_bad_ranges() {
    let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
    let mut part = pm.parts[0].clone();
    part.node_range = (10, 5);
    assert!(part.validate().is_err());
    let mut part = pm.parts[0].clone();
    part.node_range = (0, 1_000_000);
    assert!(part.validate().is_err());
}

#[test]
#[should_panic(expected = "part id out of range")]
fn partition_mesh_with_rejects_bad_assignment() {
    let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
    let bad = vec![9usize; mesh.n_elems()];
    let _ = partition_mesh_with(&mesh, &bad, 2);
}

#[test]
#[should_panic(expected = "one part id per element")]
fn partition_mesh_with_rejects_wrong_length() {
    let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
    let _ = partition_mesh_with(&mesh, &[0usize; 3], 1);
}

#[test]
#[should_panic(expected = "degenerate or inverted")]
fn inverted_element_detected_during_setup() {
    let mut mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
    // Collapse an element: all nodes at the same point.
    let p0 = mesh.coords[mesh.connectivity[0] as usize];
    for i in 0..8 {
        let n = mesh.connectivity[i] as usize;
        mesh.coords[n] = p0;
    }
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    let _ = Universe::run(1, |comm| {
        let kernel = Arc::new(PoissonKernel::new(ElementType::Hex8));
        let _ = FemSystem::build(
            comm,
            &pm.parts[0],
            kernel,
            &DirichletSpec::none(1),
            BuildOptions::new(Method::Hymv),
        );
    });
}

#[test]
#[should_panic(expected = "dof count must match")]
fn mismatched_dirichlet_spec_rejected() {
    let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    let _ = Universe::run(1, |comm| {
        let kernel = Arc::new(PoissonKernel::new(ElementType::Hex8)); // ndof = 1
        let spec = DirichletSpec::none(3); // ndof = 3 — wrong
        let _ = FemSystem::build(
            comm,
            &pm.parts[0],
            kernel,
            &spec,
            BuildOptions::new(Method::Hymv),
        );
    });
}

#[test]
#[should_panic(expected = "positive-definite")]
fn cg_rejects_indefinite_operator() {
    // CG on a negative-definite operator must fail loudly, not loop.
    struct Negative;
    impl LinOp for Negative {
        fn n_owned(&self) -> usize {
            4
        }
        fn apply(&mut self, _c: &mut hymv::comm::Comm, x: &[f64], y: &mut [f64]) {
            for (a, b) in y.iter_mut().zip(x) {
                *a = -b;
            }
        }
    }
    let _ = Universe::run(1, |comm| {
        let mut op = Negative;
        let mut x = vec![0.0; 4];
        let _ = cg(comm, &mut op, &mut Identity, &[1.0; 4], &mut x, 1e-8, 100);
    });
}

#[test]
fn cg_reports_non_convergence_honestly() {
    let mesh = unstructured_hex_mesh(5, 5, 5, ElementType::Hex8, [0.0; 3], [1.0; 3], 0.2, 1);
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    let out = Universe::run(1, |comm| {
        let kernel = Arc::new(PoissonKernel::with_body(
            ElementType::Hex8,
            PoissonProblem::body(),
        ));
        let mut sys = FemSystem::build(
            comm,
            &pm.parts[0],
            kernel,
            &PoissonProblem::dirichlet(),
            BuildOptions::new(Method::Hymv),
        );
        let (_, res) = sys.solve(comm, PrecondKind::None, 1e-30, 2);
        res
    });
    assert!(!out[0].converged);
    assert_eq!(out[0].iterations, 2);
    assert!(out[0].rel_residual > 1e-30);
}

#[test]
#[should_panic(expected = "element 999999 out of range")]
fn adaptive_update_bounds_checked() {
    let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    let _ = Universe::run(1, |comm| {
        let kernel = PoissonKernel::new(ElementType::Hex8);
        let (mut op, _) = hymv::core::HymvOperator::setup(comm, &pm.parts[0], &kernel);
        op.update_elements(comm, &pm.parts[0], &kernel, &[999_999]);
    });
}

#[test]
#[should_panic(expected = "more partitions")]
fn too_many_ranks_rejected() {
    let mesh = StructuredHexMesh::unit(1, ElementType::Hex8).build();
    let _ = partition_mesh(&mesh, 50, PartitionMethod::Rcb);
}

/// With the fault injector disabled (the default), the envelope wire
/// format is pure framing: the full HYMV SPMV stays bitwise deterministic
/// across 8 schedule-perturbation seeds (the `hymv-chaos` baseline
/// requirement — `certify_spmv_determinism` panics on any divergence).
#[test]
fn envelope_transport_is_deterministic_across_eight_seeds() {
    let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 3, PartitionMethod::GreedyGraph);
    let seeds: Vec<u64> = (1..=8).collect();
    let _ = hymv::check::certify_spmv_determinism(&pm, ParallelMode::Serial, &seeds);
}

/// Bench guard: the sequence-numbered/checksummed envelope on the
/// fault-free SPMV path must cost < 5% in max-over-ranks virtual time
/// against the raw pre-`hymv-chaos` wire format (`set_raw_exchange`).
/// Virtual time folds the modeled α–β cost of the 32-byte header and the
/// measured CPU cost of pack/checksum/unpack — both tiny next to the
/// elemental kernels.
///
/// A ratio of measured times, so not part of the deterministic tier-1
/// suite (it failed about one run in four under parallel test load, and
/// tightens whenever the SPMV denominator gets faster): `ci.sh` runs it
/// on its own, in release mode, as
/// `cargo test --release -- --ignored envelope_overhead`.
#[test]
#[ignore = "wall-clock bench guard; run by ci.sh in release mode"]
fn envelope_overhead_under_five_percent() {
    // 12³ elements: compute volume grows cubically against the quadratic
    // ghost surface, as in any production-size SPMV; on the tiny meshes
    // the unit tests favor, framing cost is inflated by the degenerate
    // surface-to-volume ratio.
    let mesh = StructuredHexMesh::unit(12, ElementType::Hex8).build();
    let p = 2;
    let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
    // Release-mode applies of this mesh take tens of microseconds: time
    // enough of them per window that timer granularity and scheduling
    // jitter stay well under the 5% being asserted.
    let rounds = 100;
    let ratios = Universe::run(p, |comm| {
        let kernel = PoissonKernel::new(ElementType::Hex8);
        let (mut op, _) = hymv::core::HymvOperator::setup(comm, &pm.parts[comm.rank()], &kernel);
        let n = op.n_owned();
        let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) * 0.25 - 1.0).collect();
        let mut y = vec![0.0; n];
        let mut time = |op: &mut hymv::core::HymvOperator, comm: &mut hymv::comm::Comm| {
            // Warm caches and drain straggling traffic before the window.
            op.matvec(comm, &x, &mut y);
            comm.barrier();
            let t0 = comm.vt();
            for _ in 0..rounds {
                op.matvec(comm, &x, &mut y);
            }
            comm.barrier();
            comm.vt() - t0
        };
        // Interleaved repetitions, median of the paired ratios: virtual
        // time folds measured per-thread CPU, so a window's length drifts
        // with cache and clock state by more than the 5% under test. A
        // pair measured back to back shares that state, and the median
        // over enough pairs ignores the windows a neighbour disturbed.
        let mut paired: Vec<f64> = (0..41)
            .map(|_| {
                op.set_raw_exchange(false);
                let env_s = time(&mut op, comm);
                op.set_raw_exchange(true);
                let raw_s = time(&mut op, comm);
                // Max-over-ranks: the solver's critical path.
                comm.allreduce_max_f64(env_s) / comm.allreduce_max_f64(raw_s)
            })
            .collect();
        paired.sort_by(f64::total_cmp);
        paired[paired.len() / 2]
    });
    let ratio = ratios[0];
    eprintln!("envelope / raw virtual time: {ratio:.4}");
    assert!(
        ratio < 1.05,
        "envelope transport costs {:.1}% over raw (budget 5%)",
        (ratio - 1.0) * 100.0
    );
}
