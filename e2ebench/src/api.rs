//! Every call the benchmark makes into the library lives in this module.
//!
//! The workloads and the traced run see only the types and functions
//! below, so a change to the public drivers edits this file and nothing
//! else. All runs use [`Mode::Scheduled`] and one kernel thread per rank.

use crate::trace::RankTrace;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use symtensor_core::seq::sttsv_sym;
use symtensor_core::storage::packed_index;
use symtensor_core::{random_symmetric, HopmOptions};
use symtensor_mpsim::{Comm, Universe};
use symtensor_parallel::hopm::parallel_shifted_hopm_planned;
use symtensor_parallel::{
    bounds, parallel_sttsv_planned, parallel_sttsv_serve, CommSchedule, Mode, PlanWorkspace,
    RankContext, ServeRequest, TetraPartition,
};
use symtensor_steiner::spherical;

pub use symtensor_core::SymTensor3;
pub use symtensor_mpsim::CostReport;
pub use symtensor_parallel::RequestRecord;

const MODE: Mode = Mode::Scheduled;
const THREADS: usize = 1;
/// The S-HOPM shift of the `solve` workload.
const ALPHA: f64 = 1.0;

/// The host-side set-up shared by every call: the Steiner system, the
/// tetrahedral partition and the point-to-point schedule.
pub struct Host {
    pub q: usize,
    pub n: usize,
    part: TetraPartition,
    schedule: CommSchedule,
}

/// Wall time of each host set-up step, in milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct HostTimes {
    pub steiner_ms: f64,
    pub partition_ms: f64,
    pub schedule_ms: f64,
}

impl Host {
    /// Builds `spherical(q)`, the partition of dimension `n` and its
    /// schedule, timing each step.
    pub fn build(q: usize, n: usize) -> (Host, HostTimes) {
        let t0 = Instant::now();
        let system = spherical(q as u64);
        let t1 = Instant::now();
        let part = TetraPartition::new(system, n).expect("benchmark sizes satisfy q(q+1) | b");
        let t2 = Instant::now();
        let schedule = CommSchedule::build(&part);
        let t3 = Instant::now();
        let times = HostTimes {
            steiner_ms: ms(t1 - t0),
            partition_ms: ms(t2 - t1),
            schedule_ms: ms(t3 - t2),
        };
        (Host { q, n, part, schedule }, times)
    }

    /// Number of ranks `P = q(q²+1)`.
    pub fn procs(&self) -> usize {
        self.part.num_procs()
    }

    /// Rounds of one exchange phase in the built schedule.
    pub fn schedule_rounds(&self) -> usize {
        self.schedule.num_rounds()
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A uniformly random symmetric tensor with entries in `[-1, 1)`.
pub fn random_tensor(n: usize, rng: &mut StdRng) -> SymTensor3 {
    random_symmetric(n, rng)
}

/// A vector with entries in `[-1, 1)`.
pub fn random_vector(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect()
}

/// Adds the rank-one term `λ v∘v∘v` to `t`.
pub fn plant(t: &mut SymTensor3, lambda: f64, v: &[f64]) {
    let data = t.packed_mut();
    for i in 0..v.len() {
        for j in 0..=i {
            for k in 0..=j {
                data[packed_index(i, j, k)] += lambda * v[i] * v[j] * v[k];
            }
        }
    }
}

/// The packed entries of a tensor, for comparing two generated inputs.
pub fn tensor_entries(t: &SymTensor3) -> &[f64] {
    t.packed()
}

/// The sequential oracle `y = 𝓐 ×₂ x ×₃ x`.
pub fn oracle(t: &SymTensor3, x: &[f64]) -> Vec<f64> {
    sttsv_sym(t, x).0
}

/// The paper's predictions for one configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Predictions {
    /// §7.2.2: `2(n(q+1)/(q²+1) − n/P)` words per rank per vector.
    pub words_per_vec: u64,
    /// §7.2.2: `q³/2 + 3q²/2 − 1` rounds per exchange phase.
    pub steps: u64,
    /// §7.1: ternary products of the heaviest rank per vector.
    pub ternary_max: u64,
    /// Theorem 5.2's lower bound on words per rank per vector.
    pub lower_bound_words: f64,
}

pub fn predictions(q: usize, n: usize) -> Predictions {
    let b = n / (q * q + 1);
    Predictions {
        words_per_vec: bounds::scheduled_words_total(n, q) as u64,
        steps: (q * q * q / 2 + 3 * q * q / 2 - 1) as u64,
        ternary_max: bounds::comp_cost_upper(q, b),
        lower_bound_words: bounds::lower_bound_words(n, bounds::spherical_procs(q)),
    }
}

/// A driver call's outputs: one assembled vector per input.
pub struct Run {
    pub ys: Vec<Vec<f64>>,
    pub report: CostReport,
    pub ternary_per_rank: Vec<u64>,
}

/// One `parallel_sttsv_planned` call.
pub fn oneshot(t: &SymTensor3, host: &Host, x: &[f64]) -> Run {
    let run = parallel_sttsv_planned(t, &host.part, x, MODE, THREADS);
    Run { ys: vec![run.y], report: run.report, ternary_per_rank: run.ternary_per_rank }
}

/// A solve's outputs.
pub struct Solve {
    pub lambda: f64,
    pub residual: f64,
    pub x: Vec<f64>,
    pub iters: usize,
    /// Ternary products summed over ranks and iterations.
    pub ternary: u64,
    pub report: CostReport,
}

/// One `parallel_shifted_hopm_planned` solve of exactly `iters` iterations
/// (`tol = 0` never stops early).
pub fn solve(t: &SymTensor3, host: &Host, x0: &[f64], iters: usize) -> Solve {
    let opts = HopmOptions { tol: 0.0, max_iters: iters };
    let (res, report) =
        parallel_shifted_hopm_planned(t, &host.part, x0, ALPHA, opts, MODE, THREADS);
    Solve {
        lambda: res.lambda,
        residual: res.residual,
        x: res.x,
        iters: res.iters,
        ternary: res.ops.ternary_mults,
        report,
    }
}

/// A burst's outputs and per-request records.
pub struct Served {
    pub run: Run,
    pub records: Vec<RequestRecord>,
}

/// One `parallel_sttsv_serve` burst; request `i` carries `xs[i]`.
pub fn serve(t: &SymTensor3, host: &Host, xs: &[Vec<f64>], cap: usize) -> Result<Served, String> {
    let requests: Vec<ServeRequest> =
        xs.iter().enumerate().map(|(i, x)| ServeRequest::new(i as u64, x.clone())).collect();
    let run = parallel_sttsv_serve(t, &host.part, &requests, MODE, THREADS, cap)
        .map_err(|e| e.to_string())?;
    Ok(Served {
        run: Run { ys: run.ys, report: run.report, ternary_per_rank: run.ternary_per_rank },
        records: run.records,
    })
}

/// The rank part of set-up: one universe whose ranks extract their blocks
/// and compile their plans. Returns each rank's arena bytes.
pub fn rank_setup(t: &SymTensor3, host: &Host) -> Vec<usize> {
    let (arena, _) = Universe::new(host.procs()).run(|comm| {
        let p = comm.rank();
        let ctx = RankContext::new(t, &host.part, p, MODE, Some(&host.schedule)).with_plan();
        ctx.compile(p).arena_bytes()
    });
    arena
}

/// The scalar all-reduces of one `iters`-iteration solve, run alone: one
/// for the start norm, then two per iteration.
pub fn allreduce_report(procs: usize, iters: usize) -> CostReport {
    Universe::new(procs)
        .run(|comm| {
            comm.all_reduce(vec![0.0]).expect("norm all-reduce");
            for _ in 0..iters {
                comm.all_reduce(vec![0.0; 3]).expect("stage-1 all-reduce");
                comm.all_reduce(vec![0.0; 2]).expect("stage-2 all-reduce");
            }
        })
        .1
}

/// Wall time of an empty-body `Universe::run` over `procs` ranks.
pub fn spawn_empty(procs: usize) -> Duration {
    let t0 = Instant::now();
    Universe::new(procs).run(|_| ());
    t0.elapsed()
}

/// `reps` round trips of a `words`-word message between two ranks. Each
/// side packs from a source buffer and unpacks into a destination, as the
/// exchange does. Returns rank 0's round-trip times in nanoseconds.
pub fn pingpong(words: usize, reps: usize) -> Vec<f64> {
    const TAG: u64 = 7;
    let (mut out, _) = Universe::new(2).run(|comm| {
        let src = vec![1.0f64; words];
        let mut dst = vec![0.0f64; words];
        let peer = 1 - comm.rank();
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            if comm.rank() == 0 {
                let t0 = Instant::now();
                comm.send(peer, TAG, src.to_vec());
                dst.copy_from_slice(&comm.recv(peer, TAG).expect("pong"));
                times.push(t0.elapsed().as_nanos() as f64);
            } else {
                dst.copy_from_slice(&comm.recv(peer, TAG).expect("ping"));
                comm.send(peer, TAG, src.to_vec());
            }
        }
        std::hint::black_box(&dst);
        times
    });
    out.swap_remove(0)
}

/// What the traced run composes: the pieces behind one driver call.
#[derive(Clone, Copy)]
pub enum Shape<'x> {
    /// `parallel_sttsv_planned` on one vector.
    Oneshot(&'x [f64]),
    /// `parallel_shifted_hopm_planned` for exactly `iters` iterations.
    Solve { x0: &'x [f64], iters: usize },
    /// `parallel_sttsv_serve` over `xs` in batches of `cap`.
    Serve { xs: &'x [Vec<f64>], cap: usize },
}

/// One rank's part of a composed call.
pub struct RankOut {
    /// Output shards per vector, `[v][t]`.
    shards: Vec<Vec<Vec<f64>>>,
    lambda: f64,
    residual: f64,
    /// Ternary products of the call itself (the probe excluded).
    ternary: u64,
    /// Ternary products of one vector in the kernel probe.
    pub probe_ternary_per_vec: u64,
    /// Vectors in the kernel probe.
    pub probe_batch: usize,
    pub arena_bytes: usize,
    pub owned_words: usize,
    /// When this rank finished its last call (before the probe).
    pub ready: Instant,
    /// When this rank finished its probe; teardown starts after the last.
    pub probed: Instant,
    pub trace: RankTrace,
}

/// A composed call: the same outputs a driver returns, plus each rank's
/// spans and sizes.
pub struct Composed {
    pub ys: Vec<Vec<f64>>,
    pub lambda: f64,
    pub residual: f64,
    pub report: CostReport,
    pub ternary_per_rank: Vec<u64>,
    pub ranks: Vec<RankOut>,
}

/// Composes one driver call from the public pieces: `Universe::run`, then
/// per rank `RankContext::new(..).with_plan()`, `compile`, `sttsv` or
/// `sttsv_multi`, and finally, once every rank has finished its call, a
/// `RankPlan::compute` pass over the rank's own plan that times the kernel
/// alone. Spans are recorded around each piece under `call`.
pub fn compose(t: &SymTensor3, host: &Host, shape: Shape<'_>, call: u32) -> Composed {
    let part = &host.part;
    // Hold every kernel probe until the last rank has finished its call,
    // and every rank's teardown until the last probe has ended. They are
    // not `Comm` barriers, so the `CostReport` stays the driver's.
    let calls_done = Barrier::new(host.procs());
    let probes_done = Barrier::new(host.procs());
    // The probes run one rank at a time: ranks share the CPUs, so a probe
    // running beside others would time their slices as well as its own.
    let one_probe = Mutex::new(());
    let rank_main = |comm: &Comm| {
        let p = comm.rank();
        let mut tr = RankTrace::new(call, p);
        let s = tr.begin("blocks.extract");
        let ctx = RankContext::new(t, part, p, MODE, Some(&host.schedule)).with_plan();
        tr.end(s);
        let s = tr.begin("plan.compile");
        let plan = ctx.compile(p);
        tr.end(s);
        let mut lambda = 0.0;
        let mut residual = 0.0;
        let (shards, ternary) = match shape {
            Shape::Oneshot(x) => {
                let mine = my_shards(part, p, x);
                let s = tr.begin("exchange.call");
                let (y, ternary) = ctx.sttsv(comm, &mine);
                tr.end(s);
                (vec![y], ternary)
            }
            Shape::Solve { x0, iters } => {
                let out = rank_hopm(comm, &ctx, my_shards(part, p, x0), iters, &mut tr);
                lambda = out.lambda;
                residual = out.residual;
                (vec![out.x_shards], out.ternary)
            }
            Shape::Serve { xs, cap } => {
                let mut ys = Vec::with_capacity(xs.len());
                let mut ternary = 0;
                for batch in xs.chunks(cap) {
                    let s = tr.begin("serve.batch_form");
                    let mine: Vec<Vec<Vec<f64>>> =
                        batch.iter().map(|x| my_shards(part, p, x)).collect();
                    tr.end(s);
                    let s = tr.begin("exchange.call");
                    let (batch_ys, count) = ctx.sttsv_multi(comm, &mine);
                    tr.end(s);
                    ys.extend(batch_ys);
                    ternary += count;
                }
                (ys, ternary)
            }
        };
        let ready = Instant::now();
        calls_done.wait();

        // The kernel alone, on the rank's own plan and the call's inputs.
        let probe: Vec<&[f64]> = match shape {
            Shape::Oneshot(x) => vec![x],
            Shape::Solve { x0, .. } => vec![x0],
            Shape::Serve { xs, cap } => xs[..cap.min(xs.len())].iter().map(Vec::as_slice).collect(),
        };
        let probe_ternary = {
            let _alone = one_probe.lock().unwrap_or_else(|e| e.into_inner());
            let mut ws = PlanWorkspace::new();
            plan.ensure_capacity(&mut ws, probe.len());
            for (v, x) in probe.iter().enumerate() {
                let full: Vec<Vec<f64>> =
                    part.r_set(p).iter().map(|&i| x[part.block_range(i)].to_vec()).collect();
                plan.load_full(&mut ws, v, &full);
            }
            let s = tr.begin("kernel.compute");
            let count = plan.compute(&mut ws, probe.len(), None);
            tr.end(s);
            std::hint::black_box(plan.output_slab(&ws, 0));
            count
        };
        let probed = Instant::now();
        probes_done.wait();

        RankOut {
            shards,
            lambda,
            residual,
            ternary,
            probe_ternary_per_vec: probe_ternary / probe.len() as u64,
            probe_batch: probe.len(),
            arena_bytes: plan.arena_bytes(),
            owned_words: ctx.owned.words(),
            ready,
            probed,
            trace: tr,
        }
    };
    let (ranks, report) = Universe::new(host.procs()).run(rank_main);

    let vectors = ranks[0].shards.len();
    let mut ys = vec![vec![0.0; host.n]; vectors];
    for (p, out) in ranks.iter().enumerate() {
        for (v, shards) in out.shards.iter().enumerate() {
            for (t, &i) in part.r_set(p).iter().enumerate() {
                let global = part.block_range(i);
                let local = part.shard_range(i, p);
                ys[v][global.start + local.start..global.start + local.end]
                    .copy_from_slice(&shards[t]);
            }
        }
    }
    Composed {
        ys,
        lambda: ranks[0].lambda,
        residual: ranks[0].residual,
        report,
        ternary_per_rank: ranks.iter().map(|r| r.ternary).collect(),
        ranks,
    }
}

/// Rank `p`'s shards of `x`, one per owned row block.
fn my_shards(part: &TetraPartition, p: usize, x: &[f64]) -> Vec<Vec<f64>> {
    part.r_set(p).iter().map(|&i| x[part.block_range(i)][part.shard_range(i, p)].to_vec()).collect()
}

struct HopmOut {
    x_shards: Vec<Vec<f64>>,
    lambda: f64,
    residual: f64,
    ternary: u64,
}

/// The shifted power iteration of `parallel_shifted_hopm_planned`, step for
/// step, with `tol = 0` and a span around each iteration and its STTSV.
/// Any change to the arithmetic here breaks the bit-identity check.
fn rank_hopm(
    comm: &Comm,
    ctx: &RankContext<'_>,
    mut x_shards: Vec<Vec<f64>>,
    iters: usize,
    tr: &mut RankTrace,
) -> HopmOut {
    let local_sq: f64 = x_shards.iter().flatten().map(|&v| v * v).sum();
    let norm0 = comm.all_reduce(vec![local_sq]).expect("norm all-reduce")[0].sqrt();
    for shard in &mut x_shards {
        for v in shard.iter_mut() {
            *v /= norm0;
        }
    }
    let mut lambda = 0.0;
    let mut residual = 0.0;
    let mut ternary = 0u64;
    for _ in 0..iters {
        let it = tr.begin("hopm.iter");
        let s = tr.begin("exchange.call");
        let (mut y_raw, count) = ctx.sttsv(comm, &x_shards);
        tr.end(s);
        ternary += count;
        let raw_sq: f64 = y_raw.iter().flatten().map(|&v| v * v).sum();
        let x_dot_raw: f64 =
            x_shards.iter().flatten().zip(y_raw.iter().flatten()).map(|(&a, &b)| a * b).sum();
        for (shard, xs) in y_raw.iter_mut().zip(&x_shards) {
            for (v, &xv) in shard.iter_mut().zip(xs) {
                *v += ALPHA * xv;
            }
        }
        let shift_sq: f64 = y_raw.iter().flatten().map(|&v| v * v).sum();
        let global =
            comm.all_reduce(vec![shift_sq, x_dot_raw, raw_sq]).expect("stage-1 all-reduce");
        let y_norm = global[0].sqrt();
        lambda = global[1];
        residual = (global[2] - lambda * lambda).max(0.0).sqrt();
        if y_norm == 0.0 {
            tr.end(it);
            break;
        }
        let mut diff_pos = 0.0;
        let mut diff_neg = 0.0;
        let mut new_shards = y_raw;
        for (shard, old) in new_shards.iter_mut().zip(&x_shards) {
            for (v, &o) in shard.iter_mut().zip(old) {
                *v /= y_norm;
                diff_pos += (o - *v) * (o - *v);
                diff_neg += (o + *v) * (o + *v);
            }
        }
        comm.all_reduce(vec![diff_pos, diff_neg]).expect("stage-2 all-reduce");
        x_shards = new_shards;
        tr.end(it);
    }
    HopmOut { x_shards, lambda, residual, ternary }
}
