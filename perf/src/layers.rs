//! The per-layer ledger: every layer timed from outside, through its
//! public calls, on the workload's own data, in a universe of its own
//! (tracing off). All ranks run each loop at the same time, so a layer is
//! measured under the same core and memory contention as inside an
//! apply; rank 0's barrier-to-barrier wall clock is the value, counts
//! are summed over ranks.

use std::collections::BTreeMap;
use std::time::Instant;

use hymv_comm::{Comm, Payload, Universe};
use hymv_core::assemble::jacobi_diagonal;
use hymv_core::{
    AssembledOperator, BlockPlan, BlockSet, DirichletOp, DistArray, GhostExchange, HymvMaps,
    HymvOperator,
};
use hymv_fem::kernel::KernelScratch;
use hymv_la::dense::{
    emv_batch_flops, emv_batch_mv_flops, select_batch_kernel, select_batch_mv_kernel,
};
use hymv_la::solver::cg;
use hymv_la::{block_cg, Jacobi, LinOp, MultiLinOp, Multivector, RecoveryPolicy};
use hymv_mesh::MeshPartition;
use hymv_serve::SolveService;

use crate::body::{Ctx, Scaffold, MAX_ITER};
use crate::machine::with_idle_cores_busy;
use crate::stats::median;
use crate::workloads::{seeded_vector, Kind, BATCH_WIDTH, NVEC, SERVICE_POLICY};

/// Tag of the ping-pong messages (any valid user tag).
const TAG_PING: u32 = 0x0BE7;

pub type Ledger = BTreeMap<&'static str, f64>;

/// Barrier → `reps × f` → barrier; seconds per call on this rank's clock.
fn timed(comm: &mut Comm, reps: usize, mut f: impl FnMut(&mut Comm)) -> f64 {
    comm.barrier();
    let t0 = Instant::now();
    for _ in 0..reps {
        f(comm);
    }
    comm.barrier();
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Median over `trials` of [`timed`].
fn timed_median(comm: &mut Comm, trials: usize, reps: usize, mut f: impl FnMut(&mut Comm)) -> f64 {
    let t: Vec<f64> = (0..trials).map(|_| timed(comm, reps, &mut f)).collect();
    median(&t)
}

/// Times `f` once to size the loop, then takes the median of `trials`
/// loops of about `target_s` seconds each.
fn auto_timed(
    comm: &mut Comm,
    trials: usize,
    target_s: f64,
    cap: usize,
    mut f: impl FnMut(&mut Comm),
) -> f64 {
    let one = timed(comm, 1, &mut f);
    let reps = reps_for(comm, one, target_s, cap);
    timed_median(comm, trials, reps, f)
}

/// Repetitions that make a loop of `one_s` seconds per call run about
/// `target_s` (at least 1, at most `cap`). Collective: every rank gets
/// the count of the slowest one, so loops with communication inside
/// stay matched.
fn reps_for(comm: &mut Comm, one_s: f64, target_s: f64, cap: usize) -> usize {
    let one_s = comm.allreduce_max_f64(one_s);
    ((target_s / one_s.max(1e-9)) as usize).clamp(1, cap)
}

/// Every block of both element sets (independent first), once.
fn for_each_block(plan: &BlockPlan, mut f: impl FnMut(&BlockSet, usize)) {
    for dependent in [false, true] {
        let set = plan.set(dependent);
        for k in 0..set.n_blocks() {
            f(set, k);
        }
    }
}

fn rank_ledger(ctx: &Ctx, comm: &mut Comm, part: &MeshPartition) -> Ledger {
    let mut out = Ledger::new();
    let kernel = &*ctx.problem.kernel;
    let ndof = kernel.ndof_per_node();
    let nd = kernel.ndof_elem();
    let p = comm.size();
    let n_elems = part.n_elems();
    let mut scaf = Scaffold::build(ctx, comm, part);

    // ---- setup pieces, each through its own public constructor.
    out.insert(
        "core.maps.build_s",
        timed_median(comm, 3, 1, |_| drop(HymvMaps::build(part))),
    );
    let maps = HymvMaps::build(part);
    out.insert(
        "core.exchange.build_s",
        timed_median(comm, 3, 1, |c| drop(GhostExchange::build(c, &maps))),
    );
    let mut ke = vec![0.0; nd * nd];
    let mut scratch = KernelScratch::default();
    let ke_s = timed_median(comm, 3, 1, |_| {
        for e in 0..n_elems {
            kernel.compute_ke(part.elem_node_coords(e), &mut ke, &mut scratch);
        }
        std::hint::black_box(&ke);
    });
    let elems_all = comm.allreduce_sum_u64(n_elems as u64) as f64;
    out.insert("fem.compute_ke.us_per_elem", ke_s * 1e6 / n_elems as f64);
    out.insert(
        "fem.compute_ke.gflops",
        kernel.ke_flops() as f64 * elems_all / ke_s / 1e9,
    );

    comm.barrier();
    let t0 = Instant::now();
    let (mut op, _) = HymvOperator::setup(comm, part, kernel);
    comm.barrier();
    let hymv_setup_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        op.batch_width(),
        BATCH_WIDTH,
        "benchmark pins the batch width"
    );

    let mut my_plan = BlockPlan::build(&maps, ndof, BATCH_WIDTH);
    out.insert(
        "core.block.plan_build_s",
        timed_median(comm, 3, 1, |_| {
            my_plan = BlockPlan::build(&maps, ndof, BATCH_WIDTH);
            my_plan.attach_store(op.store());
        }),
    );

    // ---- sizes and exact counts.
    let plan = &my_plan;
    let slab_bytes = comm.allreduce_sum_u64(plan.bytes() as u64) as f64;
    let store_bytes = comm.allreduce_sum_u64(op.store().bytes() as u64) as f64;
    let flops_apply = comm.allreduce_sum_u64(op.flops_per_apply()) as f64;
    let dep_elems = comm.allreduce_sum_u64(maps.dependent.len() as u64) as f64;
    out.insert("core.block.slab_bytes", slab_bytes);
    out.insert("core.operator.store_bytes", store_bytes);
    out.insert("core.operator.flops_per_apply", flops_apply);
    out.insert("core.block.dep_elem_frac", dep_elems / elems_all);
    let ghosts = comm.allreduce_sum_u64((maps.n_total() - maps.n_owned()) as u64) as f64;
    let totals = comm.allreduce_sum_u64(maps.n_total() as u64) as f64;
    out.insert("mesh.ghost_node_frac", ghosts / totals);
    let max_elems = comm.allreduce_max_u64(n_elems as u64) as f64;
    out.insert("mesh.imbalance", max_elems * p as f64 / elems_all);
    out.insert(
        "core.exchange.neighbors",
        comm.allreduce_max_u64(op.exchange().n_neighbors() as u64) as f64,
    );

    // ---- the blocked engine, piece by piece, on a plan built like the
    // operator's own (which cannot be borrowed while the operator updates).
    let bw = BATCH_WIDTH;
    let mut u = DistArray::new(&maps, ndof);
    u.set_owned(&scaf.x);
    let mut v = DistArray::new(&maps, ndof);
    let (mut ue, mut ve) = (vec![0.5; nd * bw], vec![0.0; nd * bw]);
    let kern = select_batch_kernel(bw);
    let n_blocks = plan.n_blocks_total();
    let emv_s = auto_timed(comm, 3, 0.05, 200, |_| {
        for_each_block(plan, |set, k| kern(set.keb(k), &ue, &mut ve, nd, bw));
    });
    std::hint::black_box(&ve);
    let blocks_all = comm.allreduce_sum_u64(n_blocks as u64) as f64;
    let emv_flops = emv_batch_flops(nd, bw) as f64 * blocks_all;
    // Computed bytes: every slab (matrices and index tables) read once.
    out.insert("la.dense.emv_batch.s", emv_s);
    out.insert("la.dense.emv_batch.gflops", emv_flops / emv_s / 1e9);
    out.insert("la.dense.emv_batch.gbps", slab_bytes / emv_s / 1e9);
    out.insert("la.dense.emv_batch.flops_per_byte", emv_flops / slab_bytes);

    let kern_mv = select_batch_mv_kernel(NVEC);
    let (ue_mv, mut ve_mv) = (vec![0.5; nd * bw * NVEC], vec![0.0; nd * bw * NVEC]);
    let mv_s = auto_timed(comm, 3, 0.05, 200, |_| {
        for_each_block(plan, |set, k| {
            kern_mv(set.keb(k), &ue_mv, &mut ve_mv, nd, bw, NVEC);
        });
    });
    std::hint::black_box(&ve_mv);
    out.insert(
        "la.dense.emv_batch_mv.gflops",
        emv_batch_mv_flops(nd, bw, NVEC) as f64 * blocks_all / mv_s / 1e9,
    );

    let lanes_all = comm.allreduce_sum_u64((plan.n_lanes_total() * nd) as u64) as f64;
    let gather_s = auto_timed(comm, 3, 0.03, 500, |_| {
        for_each_block(plan, |set, k| {
            set.gather(k, &u.data, &mut ue);
            std::hint::black_box(&ue);
        });
    });
    out.insert(
        "core.block.gather_ns_per_dof",
        gather_s * 1e9 * p as f64 / lanes_all,
    );
    let scatter_s = auto_timed(comm, 3, 0.03, 500, |_| {
        for_each_block(plan, |set, k| {
            set.scatter_with(k, &ve, |i, val| v.data[i] += val);
        });
    });
    out.insert(
        "core.block.scatter_ns_per_dof",
        scatter_s * 1e9 * p as f64 / lanes_all,
    );
    for (name, dependent) in [
        ("core.block.run_indep_s", false),
        ("core.block.run_dep_s", true),
    ] {
        let s = auto_timed(comm, 3, 0.03, 500, |_| {
            plan.run_serial(dependent, &u, &mut v, kern, &mut ue, &mut ve)
        });
        out.insert(name, s);
    }

    // ---- the write side: recompute, then re-interleave, a 5 % window.
    let trials = 6;
    let mut upd = Vec::new();
    let mut refr = Vec::new();
    let mut y = vec![0.0; op.n_owned()];
    for _ in 0..trials {
        let window = scaf.next_window(n_elems);
        let w32: Vec<u32> = window.iter().map(|&e| e as u32).collect();
        let s = timed(comm, 1, |c| {
            op.update_elements(c, part, kernel, &window);
        });
        upd.push(s * 1e6 / window.len() as f64);
        let s = timed(comm, 1, |_| my_plan.refresh(op.store(), &w32));
        refr.push(s * 1e6 / window.len() as f64);
        // Flush the operator's own dirty list outside any timed loop.
        op.matvec(comm, &scaf.x, &mut y);
    }
    out.insert("core.operator.update_us_per_elem", median(&upd));
    out.insert("core.block.refresh_us_per_elem", median(&refr));

    // ---- ghost exchange alone, then whole applies with exact traffic.
    let one = timed(comm, 1, |c| {
        op.exchange().scatter_begin(c, &u);
        op.exchange().scatter_end(c, &mut u);
    });
    let ex_reps = reps_for(comm, one, 0.03, 500);
    out.insert(
        "core.exchange.scatter_s",
        timed_median(comm, 5, ex_reps, |c| {
            op.exchange().scatter_begin(c, &u);
            op.exchange().scatter_end(c, &mut u);
        }),
    );
    out.insert(
        "core.exchange.gather_s",
        timed_median(comm, 5, ex_reps, |c| {
            v.fill_zero();
            op.exchange().gather_begin(c, &v);
            op.exchange().gather_end(c, &mut v);
        }),
    );

    let one = timed(comm, 2, |c| op.matvec(c, &scaf.x, &mut y));
    let mv_reps = reps_for(comm, one, 0.06, 200);
    let (mut overlapped, mut blocking) = (Vec::new(), Vec::new());
    let (mut msgs, mut bytes, mut wait) = (0u64, 0u64, 0.0f64);
    for _ in 0..3 {
        // Counters are read inside the barriers: only the applies count.
        comm.barrier();
        let (t0, st0) = (Instant::now(), comm.stats());
        for _ in 0..mv_reps {
            op.matvec(comm, &scaf.x, &mut y);
        }
        let st1 = comm.stats();
        comm.barrier();
        overlapped.push(t0.elapsed().as_secs_f64() / mv_reps as f64);
        msgs += st1.msgs_sent - st0.msgs_sent;
        bytes += st1.bytes_sent - st0.bytes_sent;
        wait += st1.comm_wait_s - st0.comm_wait_s;
        blocking.push(timed(comm, mv_reps, |c| {
            op.matvec_blocking(c, &scaf.x, &mut y)
        }));
    }
    out.insert(
        "core.operator.overlap_gain",
        median(&blocking) / median(&overlapped),
    );
    let applies = (3 * mv_reps) as f64;
    out.insert(
        "core.exchange.msgs_per_spmv",
        comm.allreduce_sum_u64(msgs) as f64 / applies,
    );
    out.insert(
        "core.exchange.bytes_per_spmv",
        comm.allreduce_sum_u64(bytes) as f64 / applies,
    );
    out.insert(
        "comm.modeled_wait_s_per_spmv",
        comm.allreduce_max_f64(wait) / applies,
    );

    comm_primitives(comm, &mut out);

    // ---- the multivector path and the Krylov layer above it.
    let mut diag = jacobi_diagonal(comm, op.maps(), op.exchange(), op.store(), ndof);
    let mut dop = DirichletOp::new(op, scaf.constrained.clone());
    dop.mask_diagonal(&mut diag);
    let mut pc = Jacobi::new(&diag);
    let n = dop.n_owned();
    let cols: Vec<Vec<f64>> = (0..NVEC as u64)
        .map(|k| seeded_vector(ctx.problem.seed, 100 + k, 0, n))
        .collect();
    let xm = Multivector::from_columns(&cols);
    let mut ym = Multivector::new(n, NVEC);
    // The first call allocates the operator's multivector workspace.
    dop.apply_mv(comm, &xm, &mut ym);
    let mv_apply_s = auto_timed(comm, 3, 0.05, 100, |c| dop.apply_mv(c, &xm, &mut ym));
    out.insert("core.operator.matvec_mv.col_s", mv_apply_s / NVEC as f64);

    if ctx.spec.kind == Kind::Hex8Service {
        service_three_ways(ctx, comm, &mut dop, &mut pc, &scaf.loads, &mut out);
    } else {
        // No service on this workload: the layer is not exercised.
        out.insert("serve.overhead_frac", 0.0);
        out.insert("serve.width8_speedup", 0.0);
    }

    // ---- the assembled reference, once per process.
    let op = dop.inner_mut();
    comm.barrier();
    let t0 = Instant::now();
    let (mut asm, _) = AssembledOperator::setup(comm, part, kernel);
    comm.barrier();
    let asm_setup_s = t0.elapsed().as_secs_f64();
    let one = timed(comm, 2, |c| asm.apply(c, &scaf.x, &mut y));
    let reps = reps_for(comm, one, 0.06, 200);
    // Interleaved with HYMV applies so both see the same machine state.
    let mut asm_t = Vec::new();
    let mut hymv_t = Vec::new();
    for _ in 0..3 {
        asm_t.push(timed(comm, reps, |c| asm.apply(c, &scaf.x, &mut y)));
        hymv_t.push(timed(comm, reps, |c| op.matvec(c, &scaf.x, &mut y)));
    }
    let asm_spmv_s = median(&asm_t);
    out.insert("core.assembled.setup_s", asm_setup_s);
    out.insert("core.assembled.spmv_s", asm_spmv_s);
    out.insert(
        "ratio.assembled_over_hymv.setup",
        asm_setup_s / hymv_setup_s,
    );
    out.insert(
        "ratio.assembled_over_hymv.spmv",
        asm_spmv_s / median(&hymv_t),
    );
    out
}

/// The substrate's own primitives: barrier, allreduce, ping-pong.
fn comm_primitives(comm: &mut Comm, out: &mut Ledger) {
    out.insert(
        "comm.barrier_s",
        timed_median(comm, 5, 2000, |c| c.barrier()),
    );
    out.insert(
        "comm.allreduce_s",
        timed_median(comm, 5, 2000, |c| {
            std::hint::black_box(c.allreduce_sum_f64(1.0));
        }),
    );
    let (pp8, pp1m) = if comm.size() >= 2 {
        let pingpong = |c: &mut Comm, len: usize, reps: usize| {
            timed_median(c, 5, reps, |c| match c.rank() {
                0 => {
                    c.send(1, TAG_PING, Payload::from_f64(vec![1.0; len]));
                    std::hint::black_box(c.recv(1, TAG_PING));
                }
                1 => {
                    let got = c.recv(0, TAG_PING);
                    c.send(0, TAG_PING, got);
                }
                _ => {}
            })
        };
        let small = pingpong(comm, 1, 1000);
        let mib = 1usize << 20;
        let large = pingpong(comm, mib / 8, 20);
        (small / 2.0, 2.0 * mib as f64 / large / 1e9)
    } else {
        // One rank has no peer: the layer does nothing on this workload.
        (0.0, 0.0)
    };
    out.insert("comm.pingpong_8b_s", pp8);
    out.insert("comm.pingpong_1mib_gbps", pp1m);
}

/// The same eight requests three ways — one batch through the service,
/// one direct block-CG call, eight CG solves in a row — interleaved, so
/// the three see the same machine state.
fn service_three_ways(
    ctx: &Ctx,
    comm: &mut Comm,
    dop: &mut DirichletOp<HymvOperator>,
    pc: &mut Jacobi,
    loads: &[Vec<f64>],
    out: &mut Ledger,
) {
    let rtol = ctx.spec.rtol;
    let b = Multivector::from_columns(loads);
    let n = b.nrows();
    let recovery = RecoveryPolicy::default();
    let (mut batch_t, mut direct_t, mut seq_s) = (Vec::new(), Vec::new(), 0.0);
    for round in 0..3 {
        batch_t.push({
            let mut svc = SolveService::new(dop, pc, rtol, MAX_ITER, SERVICE_POLICY);
            timed(comm, 1, |c| {
                for f in loads {
                    svc.submit(c, f.clone());
                }
                assert_eq!(svc.step(c).len(), NVEC, "a full queue dispatches");
            })
        });
        direct_t.push(timed(comm, 1, |c| {
            let mut x = Multivector::new(n, NVEC);
            block_cg(c, dop, pc, &b, &mut x, rtol, MAX_ITER, &recovery)
                .expect("fault-free block-CG");
        }));
        // Eight solves take as long as two batches: once is enough.
        if round == 1 {
            seq_s = timed(comm, 1, |c| {
                for f in loads {
                    let mut x = vec![0.0; n];
                    cg(c, dop, pc, f, &mut x, rtol, MAX_ITER);
                }
            });
        }
    }
    let (batch_s, direct_s) = (median(&batch_t), median(&direct_t));
    out.insert("serve.overhead_frac", 1.0 - direct_s / batch_s);
    out.insert("serve.width8_speedup", seq_s / batch_s);
}

/// The ledger of one workload (rank 0's view).
pub fn run(ctx: &Ctx) -> Ledger {
    let mut outs = with_idle_cores_busy(ctx.spec.p, || {
        Universe::run(ctx.spec.p, |comm| {
            rank_ledger(ctx, comm, &ctx.pm.parts[comm.rank()])
        })
    });
    outs.swap_remove(0)
}
