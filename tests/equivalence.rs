//! The golden equivalence property, end-to-end: for every element type,
//! operator, partitioner, and rank count, the three SPMV methods (and the
//! GPU backend) apply the *same* global operator.

use std::sync::Arc;

use hymv::prelude::*;

/// Apply each method's operator to a deterministic vector and compare.
fn check_equivalence(
    mesh: &GlobalMesh,
    kernel_factory: &(dyn Fn() -> Arc<dyn ElementKernel> + Sync),
    p: usize,
    pm_method: PartitionMethod,
) {
    let pm = partition_mesh(mesh, p, pm_method);
    let outs: Vec<Vec<Vec<f64>>> = [Method::Hymv, Method::MatFree, Method::Assembled]
        .iter()
        .map(|&method| {
            Universe::run(p, |comm| {
                let part = &pm.parts[comm.rank()];
                let ndof = kernel_factory().ndof_per_node();
                let mut sys = FemSystem::build(
                    comm,
                    part,
                    kernel_factory(),
                    &DirichletSpec::none(ndof),
                    BuildOptions::new(method),
                );
                let n = sys.n_owned();
                let lo = part.node_range.0 as usize * ndof;
                let x: Vec<f64> = (0..n)
                    .map(|i| (((lo + i) * 31 % 101) as f64) * 0.02 - 1.0)
                    .collect();
                let mut y = vec![0.0; n];
                sys.op.apply(comm, &x, &mut y);
                y
            })
        })
        .collect();
    for m in 1..outs.len() {
        for (r, (a, b)) in outs[0].iter().zip(&outs[m]).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(
                    (x - y).abs() < 1e-8 * (1.0 + x.abs()),
                    "method {m} rank {r} dof {i}: {x} vs {y} (p={p}, {pm_method:?})"
                );
            }
        }
    }
}

#[test]
fn poisson_hex8_all_partitioners() {
    let mesh = StructuredHexMesh::unit(5, ElementType::Hex8).build();
    for method in [
        PartitionMethod::Slabs,
        PartitionMethod::Rcb,
        PartitionMethod::GreedyGraph,
    ] {
        check_equivalence(
            &mesh,
            &|| Arc::new(PoissonKernel::new(ElementType::Hex8)),
            3,
            method,
        );
    }
}

#[test]
fn poisson_hex20_and_hex27() {
    for et in [ElementType::Hex20, ElementType::Hex27] {
        let mesh = StructuredHexMesh::unit(3, et).build();
        check_equivalence(
            &mesh,
            &move || Arc::new(PoissonKernel::new(et)),
            2,
            PartitionMethod::Rcb,
        );
    }
}

#[test]
fn poisson_unstructured_tets() {
    for et in [ElementType::Tet4, ElementType::Tet10] {
        let mesh = unstructured_tet_mesh(3, et, 0.15, 99);
        check_equivalence(
            &mesh,
            &move || Arc::new(PoissonKernel::new(et)),
            4,
            PartitionMethod::GreedyGraph,
        );
    }
}

#[test]
fn elasticity_structured_and_jittered() {
    let cases = vec![
        StructuredHexMesh::unit(3, ElementType::Hex8).build(),
        unstructured_hex_mesh(3, 3, 3, ElementType::Hex20, [0.0; 3], [1.0; 3], 0.15, 5),
    ];
    for mesh in cases {
        let et = mesh.elem_type;
        check_equivalence(
            &mesh,
            &move || Arc::new(ElasticityKernel::new(et, 200.0, 0.3, [0.0, 0.0, -9.8])),
            3,
            PartitionMethod::GreedyGraph,
        );
    }
}

#[test]
fn gpu_backends_match_cpu() {
    let mesh = unstructured_hex_mesh(3, 3, 3, ElementType::Hex8, [0.0; 3], [1.0; 3], 0.1, 7);
    let p = 2;
    let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
    let out = Universe::run(p, |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = ElasticityKernel::new(ElementType::Hex8, 100.0, 0.25, [0.0, 0.0, -1.0]);
        let (mut cpu, _) = hymv::core::HymvOperator::setup(comm, part, &kernel);
        let x: Vec<f64> = (0..cpu.n_owned())
            .map(|i| (i as f64 * 0.13).sin())
            .collect();
        let mut y_ref = vec![0.0; cpu.n_owned()];
        cpu.matvec(comm, &x, &mut y_ref);

        // Every GPU scheme produces the CPU operator's bits.
        let mut all_match = true;
        for scheme in [
            GpuScheme::Blocking,
            GpuScheme::OverlapCpu,
            GpuScheme::OverlapGpu,
        ] {
            let (mut gpu, _) =
                HymvGpuOperator::setup(comm, part, &kernel, GpuModel::default(), 4, scheme, 2);
            let mut y = vec![0.0; gpu.n_owned()];
            gpu.matvec(comm, &x, &mut y);
            all_match &= y
                .iter()
                .zip(&y_ref)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        }
        let (mut pg, _) = PetscGpuOperator::setup(comm, part, &kernel, GpuModel::default());
        let mut y = vec![0.0; pg.n_owned()];
        pg.apply(comm, &x, &mut y);
        all_match &= y.iter().zip(&y_ref).all(|(a, b)| (a - b).abs() < 1e-9);
        all_match
    });
    assert!(out.iter().all(|&b| b));
}

#[test]
fn solution_independent_of_rank_count() {
    // The discrete solution (gathered globally) must not depend on p.
    let mesh = StructuredHexMesh::unit(5, ElementType::Hex8).build();
    let mut reference: Option<Vec<f64>> = None;
    for p in [1usize, 2, 5] {
        let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
        let out = Universe::run(p, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = Arc::new(PoissonKernel::with_body(
                ElementType::Hex8,
                PoissonProblem::body(),
            ));
            let mut sys = FemSystem::build(
                comm,
                part,
                kernel,
                &PoissonProblem::dirichlet(),
                BuildOptions::new(Method::Hymv),
            );
            let (x, res) = sys.solve(comm, PrecondKind::Jacobi, 1e-12, 10_000);
            assert!(res.converged);
            x
        });
        // With slab partitioning the renumbering is the identity, so
        // concatenation by rank reconstructs the global vector.
        let flat: Vec<f64> = out.into_iter().flatten().collect();
        match &reference {
            None => reference = Some(flat),
            Some(r) => {
                for (a, b) in r.iter().zip(&flat) {
                    assert!((a - b).abs() < 1e-8, "p={p}: {a} vs {b}");
                }
            }
        }
    }
}

/// Everything one rank computes at a given modeled thread count: the SPMV,
/// the SpMM at `nvec` 8 and 3 (as bits), and a Jacobi-CG solve's solution
/// bits and iteration count.
fn run_at_threads(pm: &hymv::mesh::PartitionedMesh, threads: usize) -> Vec<(Vec<u64>, usize)> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    Universe::run(pm.n_parts(), |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = Arc::new(PoissonKernel::with_body(
            ElementType::Hex20,
            PoissonProblem::body(),
        ));
        let (mut op, _) = HymvOperator::setup(comm, part, kernel.as_ref());
        op.set_threads(threads);
        let n = op.n_owned();
        let col = |c: usize| -> Vec<f64> {
            (0..n)
                .map(|i| ((i * 7 + c * 3) as f64 * 0.29).sin() * [1e-2, 0.1, 1.0, 10.0, 1e2][i % 5])
                .collect()
        };
        let mut out = Vec::new();
        let mut y = vec![0.0; n];
        op.matvec(comm, &col(0), &mut y);
        out.extend(bits(&y));
        for nvec in [8, 3] {
            let x = Multivector::from_columns(&(0..nvec).map(col).collect::<Vec<_>>());
            let mut y = Multivector::new(n, nvec);
            op.matvec_mv(comm, &x, &mut y);
            out.extend(bits(y.as_slice()));
        }

        let mut opts = BuildOptions::new(Method::Hymv);
        opts.threads = threads;
        let mut sys = FemSystem::build(comm, part, kernel, &PoissonProblem::dirichlet(), opts);
        let (x, res) = sys.solve(comm, PrecondKind::Jacobi, 1e-10, 10_000);
        assert!(res.converged);
        out.extend(bits(&x));
        (out, res.iterations)
    })
}

/// The modeled thread count is charged, never computed with: at p ∈ {1, 2}
/// the SPMV, the SpMM at nvec 8 and 3, and a Jacobi-CG solve (solution and
/// iteration count) are bitwise equal at 1, 4 and 14 threads.
#[test]
fn results_bitwise_independent_of_thread_count() {
    let mesh = StructuredHexMesh::unit(4, ElementType::Hex20).build();
    for p in [1usize, 2] {
        let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
        let one = run_at_threads(&pm, 1);
        for threads in [4usize, 14] {
            assert!(
                run_at_threads(&pm, threads) == one,
                "p={p}: {threads} threads differ from 1 thread"
            );
        }
    }
}
