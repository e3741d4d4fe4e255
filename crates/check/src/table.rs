//! The certificate table: every bitwise certificate of the stack as one
//! row `(problem, run, perturbation, seeds, expected verdict)`.
//!
//! Algorithm 2 overlaps the ghost scatter/gather with element work, so its
//! answer must not depend on message arrival order, on healed transport
//! faults, or on a recovered rank crash. Each row names one such claim:
//! run the row's program once unperturbed and once per seed under the
//! perturbation, and hold every perturbed run to the expected verdict.
//! [`crate::runner`] runs the rows; the `hymv-check` CLI selects them by
//! name (`--only sched,chaos/crash`).

use std::sync::Arc;

use hymv_comm::FaultPlan;
use hymv_core::Method;
use hymv_fem::{ElasticityKernel, ElementKernel, PoissonKernel};
use hymv_mesh::partition::partition_mesh;
use hymv_mesh::{
    unstructured_tet_mesh, ElementType, PartitionMethod, PartitionedMesh, StructuredHexMesh,
};

/// Which element kernel the problem's operator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Physics {
    /// Scalar Poisson: `nd` = nodes per element.
    Poisson,
    /// Linear elasticity: `nd` = 3 × nodes per element (24 on Hex8, 60 on
    /// Hex20).
    Elasticity,
}

/// The mesh, partition and kernel a row runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Problem {
    /// Element type (tets are meshed unstructured, hexes structured).
    pub elem: ElementType,
    /// Element kernel.
    pub physics: Physics,
    /// Elements per edge of the unit cube.
    pub n: usize,
    /// Rank count.
    pub p: usize,
    /// Partitioner.
    pub partition: PartitionMethod,
}

impl Problem {
    /// Build the mesh and partition it.
    pub fn build(&self) -> PartitionedMesh {
        let mesh = match self.elem {
            ElementType::Tet4 | ElementType::Tet10 => {
                unstructured_tet_mesh(self.n, self.elem, 0.0, 1)
            }
            _ => StructuredHexMesh::unit(self.n, self.elem).build(),
        };
        partition_mesh(&mesh, self.p, self.partition)
    }

    /// The element kernel. Poisson's forcing is a polynomial, not the
    /// manufactured eigenfunction: on a uniform grid that one's nodal
    /// vector is an eigenvector of the Jacobi-preconditioned stencil, and
    /// CG would converge in one iteration with almost no ghost traffic
    /// for a perturbation to hit.
    pub fn make_kernel(&self) -> Arc<dyn ElementKernel> {
        match self.physics {
            Physics::Poisson => Arc::new(PoissonKernel::with_body(
                self.elem,
                Arc::new(|x: [f64; 3]| 1.0 + x[0] - 2.0 * x[1] * x[1] + x[0] * x[1] * x[2]),
            )),
            Physics::Elasticity => {
                Arc::new(ElasticityKernel::new(self.elem, 1.0, 0.3, [0.0, 0.0, -1.0]))
            }
        }
    }
}

impl Problem {
    /// Row-name component: `[elast-]<element>-<partitioner>`.
    pub fn slug(&self) -> String {
        let physics = if self.physics == Physics::Elasticity {
            "elast-"
        } else {
            ""
        };
        let partition = match self.partition {
            PartitionMethod::Slabs => "slabs",
            PartitionMethod::Rcb => "rcb",
            PartitionMethod::GreedyGraph => "greedy",
        };
        format!("{physics}{:?}-{partition}", self.elem).to_lowercase()
    }
}

/// An enum whose variants are row-name components, with the list of all
/// of them.
macro_rules! named {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $v:ident = $s:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name { $($(#[$vdoc])* $v,)* }

        impl $name {
            /// Every variant.
            pub const ALL: &'static [$name] = &[$($name::$v,)*];

            /// Row-name component.
            pub fn name(self) -> &'static str {
                match self { $($name::$v => $s,)* }
            }
        }
    };
}

named! {
    /// Which solver a solve row drives.
    Driver {
        /// Single-vector CG (`resilient_cg`).
        Cg = "cg",
        /// Block CG on four right-hand sides, one SpMM per iteration.
        BlockCg = "block_cg",
        /// The batched solve service: four requests, two per batch.
        Service = "service",
    }
}

named! {
    /// One injected transport-fault scenario.
    Scenario {
        /// 10% of envelopes are dropped (timeout + retransmit path).
        Drop = "drop",
        /// 10% of envelopes are delivered twice (dedup path).
        Duplicate = "duplicate",
        /// 10% of envelopes take a single-bit flip (checksum path).
        Corrupt = "corrupt",
        /// Half of all envelopes are delivered out of order (sequencing).
        Reorder = "reorder",
        /// 10% of envelopes arrive with 8× modeled latency (stragglers).
        Delay = "delay",
        /// The last rank's data plane dies after its third envelope.
        Crash = "crash",
    }
}

named! {
    /// Where in an armed solve the injected crash lands. The injector
    /// kills the last rank's data plane after a number of envelope sends;
    /// the runner first calibrates that rank's send counter at the
    /// setup/solve boundary and at completion, and each window places its
    /// trigger inside the solve-phase range — so placement tracks mesh,
    /// rank count and driver.
    CrashWindow {
        /// The first post-setup envelope: the initial ghost scatter,
        /// before any checkpoint — recovery restarts the solve.
        Scatter = "scatter-window",
        /// About a third into the solve, between the dot-product
        /// collectives — recovery rolls back to a committed checkpoint.
        Allreduce = "allreduce",
        /// About two thirds in, in the later exchange traffic — several
        /// checkpoint rounds exist and the newest consistent one must win.
        BlockRefresh = "block-refresh",
    }
}

/// What a row runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// One HYMV SPMV (`nvec == 1`) or SpMM on a fixed input, the block
    /// plan at `batch` lanes (`None` = the operator's default), on one
    /// modeled thread per rank unless the perturbation says otherwise.
    Apply { batch: Option<usize>, nvec: usize },
    /// A Jacobi-preconditioned Poisson solve to `1e-9`, LFLR buddy
    /// checkpoints every `ckpt_every` iterations when set.
    Solve {
        method: Method,
        driver: Driver,
        ckpt_every: Option<usize>,
    },
}

impl Scenario {
    /// The seeded fault plan this scenario injects on a `size`-rank run.
    pub fn plan(self, seed: u64, size: usize) -> FaultPlan {
        let plan = FaultPlan::new(seed);
        match self {
            Scenario::Drop => plan.with_drop(0.10),
            Scenario::Duplicate => plan.with_duplicate(0.10),
            Scenario::Corrupt => plan.with_corrupt(0.10),
            Scenario::Reorder => plan.with_reorder(0.5),
            Scenario::Delay => plan.with_delay(0.10, 8.0),
            Scenario::Crash => plan.with_crash(size - 1, 3),
        }
    }
}

impl CrashWindow {
    /// The victim's envelope-send budget before its data plane dies,
    /// placed inside the calibrated `[setup, total]` send range.
    pub fn place(self, setup: u64, total: u64) -> u64 {
        let solve = total.saturating_sub(setup);
        match self {
            CrashWindow::Scatter => setup,
            CrashWindow::Allreduce => setup + (solve * 35 / 100).max(1),
            CrashWindow::BlockRefresh => setup + (solve * 70 / 100).max(2),
        }
    }
}

/// What each seeded case changes against the unperturbed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Seeded legal reordering of message delivery plus virtual-time
    /// jitter, under the protocol audit.
    Schedule,
    /// [`Perturbation::Schedule`] on an operator of this many modeled
    /// threads: the thread count is charged, never computed with.
    Threads(usize),
    /// A seeded transport-fault scenario.
    Chaos(Scenario),
    /// A rank crash inside a calibrated window of the solve.
    Crash(CrashWindow),
    /// 20% seeded envelope drops on a channel that degrades its receiver
    /// to the blocking schedule at the first loss, for good.
    DegradeAtFirstLoss,
}

/// What every perturbed case of a row must come out as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every rank completes with the baseline's bits.
    BitEqual,
    /// Every rank terminates with a typed fault report — never a hang,
    /// never a silently wrong answer.
    TypedAbort,
    /// Every rank completes with the baseline's solution bits after at
    /// least one LFLR recovery.
    Recovered,
}

/// One certificate.
#[derive(Debug, Clone)]
pub struct Row {
    /// `/`-separated name, the handle `--only` selects by.
    pub name: String,
    /// Mesh, partition and kernel.
    pub problem: Problem,
    /// The program every run executes.
    pub run: Run,
    /// What each seeded case changes.
    pub perturbation: Perturbation,
    /// Default seeds (`--seeds` overrides them).
    pub seeds: Vec<u64>,
    /// Required verdict of every case.
    pub expect: Verdict,
}

impl Row {
    /// True iff `pat` names this row or a `/`-prefix of its name.
    pub fn matches(&self, pat: &str) -> bool {
        self.name
            .strip_prefix(pat)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/') || pat.ends_with('/'))
    }
}

impl Perturbation {
    /// The verdict its cases owe: a typed abort for the unarmed crash,
    /// a recovery for an LFLR crash window, the baseline's bits otherwise.
    fn verdict(self) -> Verdict {
        match self {
            Perturbation::Chaos(Scenario::Crash) => Verdict::TypedAbort,
            Perturbation::Crash(_) => Verdict::Recovered,
            _ => Verdict::BitEqual,
        }
    }
}

fn method_name(m: Method) -> String {
    format!("{m:?}").to_lowercase()
}

/// Every certificate, in run order.
pub fn table() -> Vec<Row> {
    use ElementType::{Hex20, Hex8, Tet10};
    use PartitionMethod::{GreedyGraph, Rcb, Slabs};
    use Physics::{Elasticity, Poisson};

    let mut rows = Vec::new();
    let mut row = |name: String, problem, run, perturbation: Perturbation, seeds: &[u64]| {
        let (seeds, expect) = (seeds.to_vec(), perturbation.verdict());
        rows.push(Row {
            name,
            problem,
            run,
            perturbation,
            seeds,
            expect,
        });
    };
    let mesh = |elem, physics, n, p, partition| Problem {
        elem,
        physics,
        n,
        p,
        partition,
    };
    let apply = |batch, nvec| Run::Apply { batch, nvec };
    let solve = |method, driver, ckpt_every| Run::Solve {
        method,
        driver,
        ckpt_every,
    };
    let eight: Vec<u64> = (1..=8).collect();

    // Schedule determinism of the SPMV/SpMM, one row per element-loop
    // body: the default plan, the width-1 plan on the scalar lane, the
    // fixed- and run-time-width SpMM, and the run-time-nd kernel body at
    // Poisson nd = 20 and elasticity nd = 24 and 60.
    let rcb4 = mesh(Hex8, Poisson, 4, 4, Rcb);
    let greedy3 = |elem, physics| mesh(elem, physics, 4, 3, GreedyGraph);
    for (problem, batch, nvec) in [
        (rcb4, None, 1),
        (rcb4, Some(1), 1),
        (greedy3(Hex8, Poisson), None, 1),
        (greedy3(Hex8, Poisson), Some(8), 8),
        (greedy3(Hex8, Poisson), Some(8), 3),
        (greedy3(Hex20, Poisson), None, 1),
        (greedy3(Hex20, Poisson), Some(8), 3),
        (greedy3(Tet10, Poisson), None, 1),
        (greedy3(Hex8, Elasticity), None, 1),
        (greedy3(Hex8, Elasticity), None, 3),
        (greedy3(Hex20, Elasticity), None, 1),
        (greedy3(Hex20, Elasticity), None, 3),
    ] {
        let tag = |t, v: Option<usize>| v.map_or(String::new(), |v| format!("-{t}{v}"));
        let (b, v) = (tag("b", batch), tag("nvec", (nvec > 1).then_some(nvec)));
        let name = format!("sched/{}{b}{v}", problem.slug());
        row(
            name,
            problem,
            apply(batch, nvec),
            Perturbation::Schedule,
            &eight,
        );
    }
    let (name, t4) = ("threads/hex8-slabs-t4", Perturbation::Threads(4));
    let slabs4 = mesh(Hex8, Poisson, 4, 4, Slabs);
    row(name.into(), slabs4, apply(None, 1), t4, &eight);

    // Transport faults under unarmed CG through every operator:
    // recoverable scenarios heal to the fault-free solution and residual
    // history, a crash aborts typed on every rank.
    for method in [Method::Hymv, Method::MatFree, Method::Assembled] {
        for &scenario in Scenario::ALL {
            let name = format!("chaos/{}/{}", scenario.name(), method_name(method));
            let run = solve(method, Driver::Cg, None);
            let problem = mesh(Hex8, Poisson, 3, 2, GreedyGraph);
            row(name, problem, run, Perturbation::Chaos(scenario), &[1, 2]);
        }
    }

    // Armed LFLR: a rank crash in each window of each driver recovers to
    // the fault-free solution bits, across 8 fault seeds at p = 8 and at
    // p = 32.
    let p8 = (3, 8, CrashWindow::ALL, Driver::ALL, &eight[..]);
    let late = &[CrashWindow::Allreduce, CrashWindow::BlockRefresh][..];
    let p32 = (4, 32, late, &[Driver::Cg, Driver::Service][..], &[1][..]);
    for (n, p, windows, drivers, seeds) in [p8, p32] {
        for &driver in drivers {
            for &window in windows {
                let name = format!("lflr/p{p}/{}/{}", window.name(), driver.name());
                let run = solve(Method::Hymv, driver, Some(4));
                let problem = mesh(Hex8, Poisson, n, p, GreedyGraph);
                row(name, problem, run, Perturbation::Crash(window), seeds);
            }
        }
    }

    // The degraded (blocking) schedule heals to the overlapped one's bits:
    // CG through HYMV and matrix-free, block CG through HYMV's SpMM.
    for (method, driver) in [
        (Method::Hymv, Driver::Cg),
        (Method::MatFree, Driver::Cg),
        (Method::Hymv, Driver::BlockCg),
    ] {
        let name = format!("degrade/{}/{}", method_name(method), driver.name());
        let problem = mesh(Hex8, Poisson, 4, 2, Slabs);
        let run = solve(method, driver, None);
        row(name, problem, run, Perturbation::DegradeAtFirstLoss, &[11]);
    }
    rows
}

/// The rows any of `pats` selects (see [`Row::matches`]), in table order;
/// every row when `pats` is empty.
pub fn select(pats: &[&str]) -> Vec<Row> {
    table()
        .into_iter()
        .filter(|r| pats.is_empty() || pats.iter().any(|p| r.matches(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_select_by_prefix() {
        let rows = table();
        let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len(), "duplicate row names");
        assert_eq!(select(&["sched/hex8-greedy"]).len(), 1);
        assert_eq!(select(&["lflr/p32"]).len(), 4);
        assert_eq!(select(&["chaos/crash", "degrade"]).len(), 6);
        assert!(select(&["sched/hex8-gr"]).is_empty(), "a partial component");
        assert_eq!(select(&[]).len(), rows.len());
    }

    #[test]
    fn crash_windows_place_in_order_inside_the_solve() {
        let at: Vec<u64> = CrashWindow::ALL.iter().map(|w| w.place(10, 110)).collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{at:?}");
        assert!(at.iter().all(|&a| (10..=110).contains(&a)), "{at:?}");
    }
}
