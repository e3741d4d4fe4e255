//! Criterion benches of the ghost scatter/gather (LNSM/GNGM traffic) and
//! the element-matrix setup paths — the communication and setup costs the
//! scalability figures decompose.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hymv_comm::Universe;
use hymv_core::da::DistArray;
use hymv_core::exchange::GhostExchange;
use hymv_core::maps::HymvMaps;
use hymv_core::operator::HymvOperator;
use hymv_fem::{ElasticityKernel, PoissonKernel};
use hymv_mesh::partition::{partition_mesh, PartitionMethod};
use hymv_mesh::{ElementType, StructuredHexMesh};

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("ghost_exchange");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    // The one wire format: sequence-numbered, checksummed envelopes (the
    // framing's bytes are pinned by a count test in
    // `tests/failure_injection.rs`).
    for p in [2usize, 4] {
        let mesh = StructuredHexMesh::unit(12, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
        group.bench_with_input(BenchmarkId::new("scatter_gather", p), &p, |b, &p| {
            // Criterion times rank 0; it broadcasts each batch's round
            // count so all ranks run matched exchanges (round count 0
            // ends the session).
            let b = std::sync::Mutex::new(b);
            Universe::run(p, |comm| {
                let maps = HymvMaps::build(&pm.parts[comm.rank()]);
                let ex = GhostExchange::build(comm, &maps);
                let mut da = DistArray::new(&maps, 1);
                for (i, v) in da.data.iter_mut().enumerate() {
                    *v = i as f64;
                }
                let round = |comm: &mut hymv_comm::Comm, da: &mut DistArray| {
                    ex.scatter_begin(comm, da);
                    ex.scatter_end(comm, da);
                    ex.gather_begin(comm, da);
                    ex.gather_end(comm, da);
                };
                if comm.rank() == 0 {
                    let mut guard = b.lock().expect("only rank 0 locks");
                    let b = &mut **guard;
                    b.iter_custom(|iters| {
                        for r in 1..comm.size() {
                            comm.isend(r, 0x98, hymv_comm::Payload::from_u64(vec![iters]));
                        }
                        let t0 = std::time::Instant::now();
                        for _ in 0..iters {
                            round(comm, &mut da);
                        }
                        t0.elapsed()
                    });
                    for r in 1..comm.size() {
                        comm.isend(r, 0x98, hymv_comm::Payload::from_u64(vec![0]));
                    }
                } else {
                    loop {
                        let n = comm.recv(0, 0x98).into_u64()[0];
                        if n == 0 {
                            break;
                        }
                        for _ in 0..n {
                            round(comm, &mut da);
                        }
                    }
                }
            });
        });
    }
    group.finish();
}

fn bench_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("operator_setup");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let mesh = StructuredHexMesh::unit(8, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    group.bench_function("hymv_setup_hex8_poisson", |b| {
        let b = std::sync::Mutex::new(b);
        Universe::run(1, |comm| {
            let mut guard = b.lock().expect("single rank");
            let b = &mut **guard;
            let kernel = PoissonKernel::new(ElementType::Hex8);
            b.iter(|| {
                let (op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
                std::hint::black_box(op.store().bytes())
            });
        });
    });
    let mesh20 = StructuredHexMesh::unit(4, ElementType::Hex20).build();
    let pm20 = partition_mesh(&mesh20, 1, PartitionMethod::Slabs);
    group.bench_function("hymv_setup_hex20_elasticity", |b| {
        let b = std::sync::Mutex::new(b);
        Universe::run(1, |comm| {
            let mut guard = b.lock().expect("single rank");
            let b = &mut **guard;
            let kernel = ElasticityKernel::new(ElementType::Hex20, 100.0, 0.3, [0.0, 0.0, -1.0]);
            b.iter(|| {
                let (op, _) = HymvOperator::setup(comm, &pm20.parts[0], &kernel);
                std::hint::black_box(op.store().bytes())
            });
        });
    });
    group.finish();
}

criterion_group!(benches, bench_exchange, bench_setup);
criterion_main!(benches);
