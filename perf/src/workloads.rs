//! The four workloads: what each one is, why it is there, and how its
//! inputs are generated from the seed.

use std::sync::Arc;

use hymv_fem::analytic::{BarProblem, PoissonProblem};
use hymv_fem::dirichlet::DirichletSpec;
use hymv_fem::{ElasticityKernel, ElementKernel, PoissonKernel};
use hymv_mesh::partition::PartitionMethod;
use hymv_mesh::{unstructured_tet_mesh, ElementType, GlobalMesh, StructuredHexMesh};
use hymv_serve::BatchPolicy;

/// Element batch width and multivector width the benchmark measures.
/// They are the library defaults; the runner refuses `HYMV_*` overrides
/// and asserts these on every operator and service it builds.
pub const BATCH_WIDTH: usize = 8;
pub const NVEC: usize = 8;

/// Batch formation of every service the benchmark builds: dispatch when
/// `NVEC` requests are queued (the deadline never fires in a closed loop
/// of `NVEC` callers).
pub const SERVICE_POLICY: BatchPolicy = BatchPolicy {
    max_width: NVEC,
    deadline_s: 1e-3,
};

/// Share of a rank's elements one adaptive step marks dirty.
pub const DIRTY_FRAC: f64 = 0.05;
/// Operator applications per adaptive step (the first one flushes).
pub const APPLIES_PER_STEP: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hex20Solve,
    Tet10Solve,
    Hex8Adaptive,
    Hex8Service,
}

/// One workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Grid resolution of the mesh generator.
    pub n: usize,
    /// Ranks (threads); never above the host's two cores.
    pub p: usize,
    pub method: PartitionMethod,
    /// Relative residual the solve runs to.
    pub rtol: f64,
    /// Per repetition: steady-state applies, adaptive steps, and full
    /// service batches (service workload only).
    pub spmv_per_rep: usize,
    pub steps_per_rep: usize,
    pub batches_per_rep: usize,
    /// Largest accepted infinity-norm error against the analytic field
    /// (`None`: the workload has no analytic gate).
    pub max_err: Option<f64>,
}

pub const NAMES: [&str; 4] = [
    "hex20_elasticity_solve",
    "tet10_unstructured_solve",
    "hex8_adaptive_steps",
    "hex8_multirhs_service",
];

/// The workload table. `smoke` shrinks every mesh to a toy size that
/// still runs every code path.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let pick = |full: usize, toy: usize| if smoke { toy } else { full };
    Some(match name {
        "hex20_elasticity_solve" => Spec {
            name: NAMES[0],
            why: "paper's winning regime (Fig 6): nd=60, an apply is ~90% emv_batch streaming Ke; setup is mostly compute_ke",
            kind: Kind::Hex20Solve,
            n: pick(16, 3),
            p: 2,
            method: PartitionMethod::Slabs,
            rtol: 1e-6,
            spmv_per_rep: pick(20, 3),
            steps_per_rep: pick(4, 2),
            batches_per_rep: 0,
            // Hex20 captures the quadratic bar field exactly; what is left
            // is the CG tolerance (EXPERIMENTS.md: < 1e-8 at rtol 1e-10).
            max_err: Some(1e-5),
        },
        "tet10_unstructured_solve" => Spec {
            name: NAMES[1],
            why: "standing loss of Fig 7: nd=10, little kernel work per element, so gather/scatter, maps/plan build and the irregular ghost exchange dominate",
            kind: Kind::Tet10Solve,
            n: pick(26, 4),
            p: 2,
            method: PartitionMethod::GreedyGraph,
            rtol: 1e-8,
            spmv_per_rep: pick(20, 3),
            steps_per_rep: pick(4, 2),
            batches_per_rep: 0,
            // Quadratic tets on the sin-product field; the toy mesh is
            // four cells per wavelength.
            max_err: Some(pick(1, 100) as f64 * 1e-4),
        },
        "hex8_adaptive_steps" => Spec {
            name: NAMES[2],
            why: "paper's headline feature: writes the store and BlockPlan the others only read; plain single-threaded run where comm does nothing",
            kind: Kind::Hex8Adaptive,
            n: pick(24, 6),
            p: 1,
            method: PartitionMethod::Slabs,
            // The paper's solver tolerance (§V-F): an adaptive code solves
            // after every update, loosely.
            rtol: 1e-3,
            spmv_per_rep: pick(20, 3),
            steps_per_rep: pick(10, 3),
            batches_per_rep: 0,
            max_err: None,
        },
        "hex8_multirhs_service" => Spec {
            name: NAMES[3],
            why: "same SPMV layer as SpMM (matvec_mv, nvec=8) with Gram allreduces and coalesced ghost envelopes; closed loop, 8 callers",
            kind: Kind::Hex8Service,
            n: pick(40, 6),
            p: 2,
            method: PartitionMethod::Rcb,
            rtol: 1e-8,
            spmv_per_rep: pick(10, 3),
            steps_per_rep: pick(4, 2),
            batches_per_rep: 1,
            max_err: None,
        },
        _ => return None,
    })
}

/// SplitMix64: the benchmark's only source of randomness, so the same
/// seed gives the same inputs on every machine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub type ExactField = Arc<dyn Fn([f64; 3]) -> Vec<f64> + Send + Sync>;

/// The generated inputs of one run, shared read-only by all ranks.
pub struct Problem {
    pub mesh: GlobalMesh,
    pub kernel: Arc<dyn ElementKernel>,
    pub dirichlet: DirichletSpec,
    pub exact: Option<ExactField>,
    /// Seeds the per-rank vectors, load cases and dirty-window paths.
    pub seed: u64,
}

/// A bar whose stiffness and density vary ±10 % with the seed: different
/// element matrices and loads, the same amount of work.
fn seeded_bar(rng: &mut Rng) -> BarProblem {
    let mut bar = BarProblem::default_unit();
    bar.young *= 0.9 + 0.2 * rng.unit();
    bar.rho *= 0.9 + 0.2 * rng.unit();
    bar
}

fn bar_problem(et: ElementType, n: usize, seed: u64) -> Problem {
    let mut rng = Rng::new(seed);
    let bar = seeded_bar(&mut rng);
    let (lo, hi) = bar.bbox();
    Problem {
        mesh: StructuredHexMesh::new(n, n, n, et, lo, hi).build(),
        kernel: Arc::new(ElasticityKernel::new(
            et,
            bar.young,
            bar.poisson,
            bar.body_force(),
        )),
        dirichlet: bar.dirichlet(),
        exact: Some(Arc::new(move |x| bar.exact(x).to_vec())),
        seed: rng.next_u64(),
    }
}

pub fn problem(spec: &Spec, seed: u64) -> Problem {
    match spec.kind {
        Kind::Hex20Solve => bar_problem(ElementType::Hex20, spec.n, seed),
        Kind::Hex8Adaptive => bar_problem(ElementType::Hex8, spec.n, seed),
        Kind::Tet10Solve => Problem {
            // The seed moves every interior vertex (jitter as in fig7).
            mesh: unstructured_tet_mesh(spec.n, ElementType::Tet10, 0.18, seed),
            kernel: Arc::new(PoissonKernel::with_body(
                ElementType::Tet10,
                PoissonProblem::body(),
            )),
            dirichlet: PoissonProblem::dirichlet(),
            exact: Some(Arc::new(|x| vec![PoissonProblem::exact(x)])),
            seed: Rng::new(seed).next_u64(),
        },
        Kind::Hex8Service => Problem {
            mesh: StructuredHexMesh::unit(spec.n, ElementType::Hex8).build(),
            kernel: Arc::new(PoissonKernel::new(ElementType::Hex8)),
            dirichlet: PoissonProblem::dirichlet(),
            // The load cases are seeded and deliberately not the
            // sin-product eigenvector, so there is no analytic field.
            exact: None,
            seed: Rng::new(seed).next_u64(),
        },
    }
}

/// A seeded, non-constant owned-dof vector (SPMV input, load case `k`):
/// a pure function of the *global* dof id, so every partition of the same
/// problem sees the same global vector. The seed sets phases only — the
/// frequencies, and with them the spectral content that decides how many
/// iterations a solve takes, depend on `k` alone.
pub fn seeded_vector(seed: u64, k: u64, first_global_dof: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let tau = std::f64::consts::TAU;
    let (a, b) = (tau * rng.unit(), tau * rng.unit());
    let (fast, slow) = (0.37 + 0.05 * k as f64, 0.011 + 0.002 * k as f64);
    (0..n as u64)
        .map(|i| {
            let g = (first_global_dof + i) as f64;
            (g * fast + a).sin() + 0.5 * (g * slow + b).cos()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_has_a_spec_at_both_sizes() {
        for name in NAMES {
            for smoke in [false, true] {
                let s = spec(name, smoke).expect("named workload exists");
                assert_eq!(s.name, name);
                assert!(s.p <= 2 && s.why.len() <= 200 && !s.why.contains('\n'));
            }
        }
        assert!(spec("nope", false).is_none());
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(seeded_vector(7, 1, 10, 32), seeded_vector(7, 1, 10, 32));
        assert_ne!(seeded_vector(7, 1, 10, 32), seeded_vector(8, 1, 10, 32));
        assert_ne!(seeded_vector(7, 1, 10, 32), seeded_vector(7, 2, 10, 32));
        let s = spec("tet10_unstructured_solve", true).expect("exists");
        assert_eq!(problem(&s, 5).mesh.coords, problem(&s, 5).mesh.coords);
        assert_ne!(problem(&s, 5).mesh.coords, problem(&s, 6).mesh.coords);
    }
}
