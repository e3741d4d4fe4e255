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

/// A thread count of 0 is refused at build, for any method — never
/// clamped to 1.
#[test]
#[should_panic(expected = "thread count 0 is invalid")]
fn zero_thread_build_option_rejected() {
    let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    let _ = Universe::run(1, |comm| {
        let kernel = Arc::new(PoissonKernel::new(ElementType::Hex8));
        let mut opts = BuildOptions::new(Method::Assembled);
        opts.threads = 0;
        let _ = FemSystem::build(comm, &pm.parts[0], kernel, &DirichletSpec::none(1), opts);
    });
}

/// The GPU operator's modeled host threads: 0 is refused at setup.
#[test]
#[should_panic(expected = "thread count 0 is invalid")]
fn zero_gpu_host_threads_rejected() {
    let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    let _ = Universe::run(1, |comm| {
        let kernel = PoissonKernel::new(ElementType::Hex8);
        let _ = HymvGpuOperator::setup(
            comm,
            &pm.parts[0],
            &kernel,
            GpuModel::default(),
            4,
            GpuScheme::Blocking,
            0,
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

/// Run the certificate rows `pats` names and require every case to hold.
fn certify(pats: &[&str]) {
    let cases = hymv::check::run_rows(&hymv::check::select(pats), None);
    assert!(!cases.is_empty(), "{pats:?} selects no row");
    assert_eq!(hymv::check::failures(&cases), None);
}

/// With the fault injector disabled (the default), the envelope wire
/// format is pure framing: the full HYMV SPMV stays bitwise deterministic
/// across 8 schedule-perturbation seeds.
#[test]
fn envelope_transport_is_deterministic_across_eight_seeds() {
    certify(&["sched/hex8-greedy"]);
}

/// The degraded schedule, end to end: one lost envelope degrades its
/// receiver to the blocking schedule for good, and CG through HYMV and
/// through the matrix-free operator still heals to the fault-free
/// solution and residual history, bitwise.
#[test]
fn degraded_cg_heals_bitwise() {
    certify(&["degrade/hymv/cg", "degrade/matfree/cg"]);
}

/// The degraded SpMM, end to end: block CG on four right-hand sides
/// through HYMV's `matvec_mv` heals to the fault-free solution panel and
/// residual history, bitwise.
#[test]
fn degraded_block_cg_heals_bitwise() {
    certify(&["degrade/hymv/block_cg"]);
}

/// The envelope's framing, counted: on the fault-free SPMV path every
/// ghost scatter and gather message carries its payload (8 B per ghost
/// value) plus exactly one 32-byte header — nothing else rides the ghost
/// tags — and on a 12³ Hex8 mesh the framing stays under 5 % of the
/// payload bytes. The envelope's CPU cost (pack, checksum, unpack) is in
/// every timed SPMV, since the envelope is the only wire format.
#[test]
fn envelope_framing_is_one_header_per_message() {
    use hymv::core::exchange::{TAG_GATHER, TAG_SCATTER};
    const HEADER_BYTES: u64 = 32;
    let (p, applies) = (2, 4u64);
    let mesh = StructuredHexMesh::unit(12, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
    let per_rank = Universe::run(p, |comm| {
        let kernel = PoissonKernel::new(ElementType::Hex8);
        let (mut op, _) = hymv::core::HymvOperator::setup(comm, &pm.parts[comm.rank()], &kernel);
        let x: Vec<f64> = (0..op.n_owned())
            .map(|i| ((i % 13) as f64) * 0.25 - 1.0)
            .collect();
        let mut y = vec![0.0; x.len()];
        comm.reset_ledger();
        for _ in 0..applies {
            op.matvec(comm, &x, &mut y);
        }
        // Per apply, scatter ships the LNSM to each neighbour and gather
        // the GNGM to each owner.
        let ex = op.exchange();
        let mut bytes = (0, 0);
        for (tag, values, msgs) in [
            (TAG_SCATTER, ex.n_scatter_nodes(), ex.send_plan().len()),
            (TAG_GATHER, ex.n_gather_nodes(), ex.recv_plan().len()),
        ] {
            let (msgs, payload) = (msgs as u64 * applies, values as u64 * 8 * applies);
            let t = comm
                .ledger()
                .tag_stats()
                .get(&tag)
                .copied()
                .unwrap_or_default();
            let rank = comm.rank();
            assert_eq!(t.msgs_sent, msgs, "rank {rank} tag {tag:#x}: messages");
            assert_eq!(
                t.bytes_sent,
                payload + msgs * HEADER_BYTES,
                "rank {rank} tag {tag:#x}"
            );
            bytes = (bytes.0 + payload, bytes.1 + msgs * HEADER_BYTES);
        }
        bytes
    });
    let payload: u64 = per_rank.iter().map(|b| b.0).sum();
    let framing: u64 = per_rank.iter().map(|b| b.1).sum();
    assert!(payload > 0, "no ghost traffic");
    let frac = framing as f64 / payload as f64;
    assert!(
        frac < 0.05,
        "envelope framing is {:.2} % of payload bytes",
        frac * 100.0
    );
}
