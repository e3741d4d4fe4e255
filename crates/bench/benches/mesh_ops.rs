//! Criterion benches of the mesh-side setup machinery: partitioners (the
//! METIS stand-in's cost), map construction (Algorithm 1), and the
//! unstructured generators.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hymv_core::maps::HymvMaps;
use hymv_mesh::partition::{partition_elems, partition_mesh, PartitionMethod};
use hymv_mesh::{unstructured_tet_mesh, ElementType, StructuredHexMesh};

fn bench_partitioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioners");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let mesh = unstructured_tet_mesh(8, ElementType::Tet4, 0.15, 7);
    for method in [
        PartitionMethod::Slabs,
        PartitionMethod::Rcb,
        PartitionMethod::GreedyGraph,
    ] {
        group.bench_with_input(
            BenchmarkId::new(format!("{method:?}"), mesh.n_elems()),
            &method,
            |b, &method| {
                b.iter(|| partition_elems(std::hint::black_box(&mesh), 16, method));
            },
        );
    }
    group.finish();
}

fn bench_maps(c: &mut Criterion) {
    let mut group = c.benchmark_group("maps");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let mesh = StructuredHexMesh::unit(16, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 4, PartitionMethod::Slabs);
    group.bench_function("e2l_algorithm1", |b| {
        b.iter(|| HymvMaps::build(std::hint::black_box(&pm.parts[1])));
    });
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesh_generators");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("structured_hex20_12cubed", |b| {
        b.iter(|| StructuredHexMesh::unit(12, ElementType::Hex20).build());
    });
    group.bench_function("unstructured_tet10_6cubed", |b| {
        b.iter(|| unstructured_tet_mesh(6, ElementType::Tet10, 0.15, 3));
    });
    group.finish();
}

criterion_group!(benches, bench_partitioners, bench_maps, bench_generators);
criterion_main!(benches);
