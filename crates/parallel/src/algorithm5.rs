//! Algorithm 5: communication-optimal parallel STTSV.
//!
//! Each processor starts with its tetrahedral tensor blocks and `n/P` words
//! of `x`, and ends with `n/P` words of `y`. The algorithm is three phases:
//!
//! 1. **Gather x** — for every owned row block `i ∈ R_p`, collect the other
//!    `λ₁ − 1` shards from the processors of `Q_i` (lines 10–21),
//! 2. **Local compute** — run the symmetric block kernels over
//!    `TB₃(R_p) ∪ N_p ∪ D_p` (lines 24–36),
//! 3. **Reduce y** — send each peer its shard of the partial `y` row blocks
//!    and sum the incoming partials (lines 38–50).
//!
//! Communication modes:
//!
//! * [`Mode::Scheduled`] — direct point-to-point exchanges following the
//!   edge-colored schedule; per vector each rank moves
//!   `n(q+1)/(q²+1) − n/P` words, matching the lower bound's leading term
//!   exactly (Section 7.2.2).
//! * [`Mode::AllToAllPadded`] — the paper's All-to-All collective variant:
//!   `P − 1` uniform messages of two shards each, costing
//!   `2n/(q+1)·(1 − 1/P)` per vector — twice the leading term.
//! * [`Mode::AllToAllSparse`] — ablation: the same pairwise collective but
//!   with exact (unpadded) message sizes; word counts equal the scheduled
//!   mode while still taking `P − 1` rounds.

use crate::blocks::OwnedBlocks;
use crate::partition::TetraPartition;
use crate::plan::{ExchangeKind, PlanWorkspace, RankPlan};
use crate::schedule::CommSchedule;
use std::cell::{OnceCell, RefCell};
use symtensor_core::SymTensor3;
use symtensor_mpsim::{AllToAllEvent, Comm, CommEvent, CostReport, FlightSnapshot, Universe};
use symtensor_pool::Pool;
use symtensor_telemetry::keys as telemetry_keys;

/// Runs `f`, adding its wall-clock nanoseconds to `acc` when `enabled`.
/// No clock reads when disabled — the telemetry-off overlap path must stay
/// instruction-identical to the pre-telemetry driver.
#[inline]
fn timed<R>(enabled: bool, acc: &mut u64, f: impl FnOnce() -> R) -> R {
    if !enabled {
        return f();
    }
    let t0 = std::time::Instant::now();
    let r = f();
    *acc += t0.elapsed().as_nanos() as u64;
    r
}

/// Communication strategy for the two vector phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Edge-colored point-to-point schedule (optimal bandwidth and steps).
    Scheduled,
    /// Uniform (padded) All-to-All collective, as analyzed in §7.2.2.
    AllToAllPadded,
    /// All-to-All with exact message sizes (ablation).
    AllToAllSparse,
}

const TAG_X: u64 = 1 << 40;
const TAG_Y: u64 = 2 << 40;

/// Everything one rank needs to run STTSV repeatedly (the tensor blocks are
/// resolved once and reused across iterations, e.g. by HOPM). Every
/// contraction runs on the rank's compiled [`RankPlan`], built on first use
/// ([`RankContext::compile`]).
pub struct RankContext<'a> {
    /// The shared data distribution.
    pub part: &'a TetraPartition,
    /// This rank's tensor blocks (never communicated); the compiled plan
    /// shares their row store.
    pub owned: OwnedBlocks<'a>,
    /// Communication strategy for the vector phases.
    pub mode: Mode,
    /// The point-to-point schedule (required for [`Mode::Scheduled`]).
    pub schedule: Option<&'a CommSchedule>,
    /// Optional shared-memory worker pool for the local-compute phase
    /// (see [`RankContext::with_pool`]); `None` runs the sequential
    /// kernels.
    pub pool: Option<&'a Pool>,
    /// The lazily compiled plan (see [`RankContext::compile`]).
    plan: OnceCell<RankPlan<'a>>,
    /// The plan's reusable flat slabs and recycled message buffers.
    plan_ws: RefCell<PlanWorkspace>,
}

impl<'a> RankContext<'a> {
    /// Builds the context for `rank` over a borrow of `tensor`: copies
    /// nothing (see [`OwnedBlocks::extract`]). The rank's first vector pass
    /// reads its block rows in place from the packed tensor; its second
    /// copies them, once, in contiguous runs, into one arena. Context and
    /// plan ([`RankContext::compile`]) share that arena, so the context
    /// holds at most one copy of the rank's blocks for its whole life.
    pub fn new(
        tensor: &'a SymTensor3,
        part: &'a TetraPartition,
        rank: usize,
        mode: Mode,
        schedule: Option<&'a CommSchedule>,
    ) -> Self {
        Self::from_parts(part, OwnedBlocks::extract(tensor, part, rank), mode, schedule)
    }

    /// Assembles a context from already-extracted blocks — the receiving
    /// end of a tensor scatter, or any caller that obtained
    /// [`OwnedBlocks`] without the global tensor.
    pub fn from_parts(
        part: &'a TetraPartition,
        owned: OwnedBlocks<'a>,
        mode: Mode,
        schedule: Option<&'a CommSchedule>,
    ) -> Self {
        assert!(
            mode != Mode::Scheduled || schedule.is_some(),
            "scheduled mode needs a CommSchedule"
        );
        RankContext {
            part,
            owned,
            mode,
            schedule,
            pool: None,
            plan: OnceCell::new(),
            plan_ws: RefCell::new(PlanWorkspace::new()),
        }
    }

    /// Attaches a shared-memory worker pool: the local-compute phase then
    /// runs the plan's kernels across the pool's threads (results
    /// bit-identical across thread counts) instead of sequentially. This is
    /// the node-level `threads` knob below the simulated distributed
    /// machine.
    pub fn with_pool(mut self, pool: &'a Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Returns the context unchanged. Every contraction already runs on the
    /// compiled rank plan, so there is nothing left to switch on; the
    /// method remains so that existing builder chains keep compiling.
    pub fn with_plan(self) -> Self {
        self
    }

    /// Compiles (on first call) and returns this rank's [`RankPlan`]; all
    /// later calls — and every `sttsv`/`sttsv_multi`/HOPM iteration —
    /// reuse it.
    pub fn compile(&self, rank: usize) -> &RankPlan<'a> {
        let plan = self.plan.get_or_init(|| RankPlan::build(self.part, &self.owned, rank));
        assert_eq!(plan.rank(), rank, "one RankContext serves one rank");
        plan
    }

    /// The compiled plan, if [`RankContext::compile`] has run.
    pub fn plan(&self) -> Option<&RankPlan<'a>> {
        self.plan.get()
    }

    /// Steady-state heap events of the plan workspace (slab growth +
    /// message-buffer promotions); flat across iterations once warm.
    pub fn plan_fresh_allocs(&self) -> u64 {
        self.plan_ws.borrow().fresh_allocs()
    }

    /// One distributed STTSV: `my_shards[t]` is this rank's shard of row
    /// block `R_p[t]` of `x`; returns this rank's shards of `y` (same
    /// keying) and the ternary-multiplication count.
    ///
    /// The first call compiles the plan; once the rank's second vector pass
    /// has built its arena, every phase runs in the plan's flat slabs and
    /// recycled buffers with zero heap allocations (only the returned shard
    /// vectors are fresh; use [`RankContext::sttsv_into`] to avoid even
    /// those).
    pub fn sttsv(&self, comm: &Comm, my_shards: &[Vec<f64>]) -> (Vec<Vec<f64>>, u64) {
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        let ternary = self.run_barrier(comm, plan, &mut ws, std::iter::once(my_shards));
        (plan.extract(&ws, 0), ternary)
    }

    /// Batched distributed STTSV: runs `B = my_shards.len()` contractions
    /// through **one** pair of exchange phases — the serving/throughput
    /// path. `my_shards[v][t]` is this rank's shard of row block `R_p[t]`
    /// of input vector `v`; returns `ys[v][t]` keyed the same way, plus the
    /// total ternary-multiplication count (`B ×` the single-vector count).
    ///
    /// Each peer message carries the `B` vectors' pieces back-to-back, so
    /// the per-rank **message count and round count are those of a single
    /// STTSV** while words scale linearly with `B` — the α (latency) term
    /// of the α-β-γ cost is amortized across the batch, exactly like the
    /// multi-vector contractions in the Multi-TTM literature. Word counts
    /// are `B ×` the single-vector counts in every mode (the padded
    /// collective pads each message to `B ×` the single-vector pad). A
    /// batch of one is exactly [`RankContext::sttsv`].
    pub fn sttsv_multi(
        &self,
        comm: &Comm,
        my_shards: &[Vec<Vec<f64>>],
    ) -> (Vec<Vec<Vec<f64>>>, u64) {
        if my_shards.is_empty() {
            return (Vec::new(), 0);
        }
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        let ternary = self.run_barrier(comm, plan, &mut ws, my_shards.iter().map(Vec::as_slice));
        let ys = (0..my_shards.len()).map(|v| plan.extract(&ws, v)).collect();
        (ys, ternary)
    }

    /// Fully allocation-free steady-state STTSV: like
    /// [`RankContext::sttsv`], but the output shards are written into
    /// caller-provided vectors (reused capacity). Returns the ternary
    /// count.
    pub fn sttsv_into(&self, comm: &Comm, my_shards: &[Vec<f64>], out: &mut [Vec<f64>]) -> u64 {
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        let ternary = self.run_barrier(comm, plan, &mut ws, std::iter::once(my_shards));
        plan.extract_into(&ws, 0, out);
        ternary
    }

    /// The three barrier phases for a batch (shared by `sttsv`,
    /// `sttsv_into` and `sttsv_multi`): load, gather, compute, reduce.
    fn run_barrier<'v>(
        &self,
        comm: &Comm,
        plan: &RankPlan,
        ws: &mut PlanWorkspace,
        vectors: impl ExactSizeIterator<Item = &'v [Vec<f64>]>,
    ) -> u64 {
        let batch = load_batch(plan, ws, vectors);
        comm.with_phase("gather-x", || {
            self.plan_exchange(comm, plan, ws, TAG_X, ExchangeKind::Gather, batch)
        });
        let ternary = comm.with_phase("local-compute", || {
            comm.with_phase("compute:kernel", || {
                let t = plan.compute(ws, batch, self.pool);
                annotate_plan(comm, plan, ws);
                t
            })
        });
        comm.with_phase("reduce-y", || {
            self.plan_exchange(comm, plan, ws, TAG_Y, ExchangeKind::Reduce, batch)
        });
        ternary
    }

    /// [`RankContext::sttsv_multi`] with **request-scoped tracing**:
    /// `requests[v]` is the serving-layer id of vector `v`. The per-vector
    /// kernel passes are annotated with their request id (so
    /// flight-recorder records and `CommEvent`s emitted during request
    /// `v`'s compute carry it) and individually timed; the batch-level
    /// exchange phases are timed as a whole, since each message carries
    /// every request's pieces back-to-back and cannot be attributed to one
    /// request. While a request's compute runs, the attached [`Pool`]'s
    /// workspace leases are tagged with the same id.
    ///
    /// Returns the outputs and ternary count of [`RankContext::sttsv_multi`]
    /// (bit-identical — the per-vector kernel loop is the same
    /// decomposition) plus this rank's [`BatchSpans`].
    pub fn sttsv_multi_requests(
        &self,
        comm: &Comm,
        my_shards: &[Vec<Vec<f64>>],
        requests: &[u64],
    ) -> (Vec<Vec<Vec<f64>>>, u64, BatchSpans) {
        assert_eq!(my_shards.len(), requests.len(), "one request id per vector");
        let batch = my_shards.len();
        let start_ns = comm.elapsed_ns();
        if batch == 0 {
            return (Vec::new(), 0, BatchSpans::empty(start_ns));
        }
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        load_batch(plan, &mut ws, my_shards.iter().map(Vec::as_slice));
        let gather_t0 = comm.elapsed_ns();
        comm.with_phase("gather-x", || {
            self.plan_exchange(comm, plan, &mut ws, TAG_X, ExchangeKind::Gather, batch)
        });
        let gather_ns = comm.elapsed_ns().saturating_sub(gather_t0);
        let (ternary, compute_ns) = self.compute_requests(comm, plan, &mut ws, requests);
        let reduce_t0 = comm.elapsed_ns();
        comm.with_phase("reduce-y", || {
            self.plan_exchange(comm, plan, &mut ws, TAG_Y, ExchangeKind::Reduce, batch)
        });
        let reduce_ns = comm.elapsed_ns().saturating_sub(reduce_t0);
        let ys = (0..batch).map(|v| plan.extract(&ws, v)).collect();
        let spans =
            BatchSpans { start_ns, gather_ns, compute_ns, reduce_ns, end_ns: comm.elapsed_ns() };
        (ys, ternary, spans)
    }

    /// The `local-compute` phase of a request batch: one request-annotated
    /// `compute:kernel` span per vector, whose flight records (and any
    /// trace events inside) carry the request id, as do the pool's
    /// workspace leases. Returns the ternary count and the per-vector
    /// kernel durations.
    fn compute_requests(
        &self,
        comm: &Comm,
        plan: &RankPlan,
        ws: &mut PlanWorkspace,
        requests: &[u64],
    ) -> (u64, Vec<u64>) {
        let mut compute_ns = Vec::with_capacity(requests.len());
        let ternary = comm.with_phase("local-compute", || {
            let mut total = 0u64;
            for (v, &request) in requests.iter().enumerate() {
                comm.annotate_request(request);
                if let Some(pool) = self.pool {
                    pool.workspaces().set_request(request);
                }
                let t0 = comm.elapsed_ns();
                total +=
                    comm.with_phase("compute:kernel", || plan.compute_vector(ws, v, self.pool));
                compute_ns.push(comm.elapsed_ns().saturating_sub(t0));
                if let Some(pool) = self.pool {
                    pool.workspaces().clear_request();
                }
                comm.clear_request();
            }
            annotate_plan(comm, plan, ws);
            total
        });
        (ternary, compute_ns)
    }

    /// Serves `n_batches` request batches through a **double-buffered
    /// pipeline**: while batch `k` computes, batch `k + 1`'s gather-x
    /// messages are already in flight, alternating between two leased
    /// [`PlanWorkspace`]s so the in-flight batch never clobbers the
    /// computing one. `form(k)` produces batch `k`'s shards and request
    /// ids the moment the pipeline is ready to admit it — which is when
    /// its queue wait ends.
    ///
    /// Per-sender FIFO delivery makes the overlap safe without new tags:
    /// batch `k`'s gather message on a given `(src, round)` link is always
    /// claimed before batch `k + 1`'s (the mailbox preserves arrival order
    /// per `(src, tag)`), so the wire format, cost counters and output
    /// bits are identical to the sequential serving loop — only the
    /// *timing* moves. Scheduled mode pipelines; the all-to-all modes fall
    /// back to sequential barrier batches (their collective is a single
    /// indivisible step).
    pub fn sttsv_serve_pipelined(
        &self,
        comm: &Comm,
        n_batches: usize,
        mut form: impl FnMut(usize) -> (Vec<Vec<Vec<f64>>>, Vec<u64>),
    ) -> Vec<ServedBatch> {
        if self.mode != Mode::Scheduled {
            // The collective exchanges are indivisible; serve batches
            // back-to-back exactly like the sequential loop.
            return (0..n_batches)
                .map(|k| {
                    let begin_ns = comm.elapsed_ns();
                    let (shards, ids) = form(k);
                    let formed_ns = comm.elapsed_ns();
                    let (ys, ternary, spans) = self.sttsv_multi_requests(comm, &shards, &ids);
                    ServedBatch { begin_ns, formed_ns, spans, ys, ternary }
                })
                .collect();
        }
        let p = comm.rank();
        let plan = self.compile(p);
        let schedule = self.schedule.expect("scheduled mode requires a schedule");
        let actions = schedule.actions(p);
        let mut wss = [PlanWorkspace::new(), PlanWorkspace::new()];
        // Admits batch `k` into workspace `ws`: form, load, and put its
        // gather messages on the wire. Receives are deferred to the
        // batch's own turn — that deferral is the pipeline.
        let mut stage = |k: usize, ws: &mut PlanWorkspace| -> (u64, u64, Vec<u64>) {
            let begin_ns = comm.elapsed_ns();
            let (shards, ids) = form(k);
            let batch = load_batch(plan, ws, shards.iter().map(Vec::as_slice));
            let formed_ns = comm.elapsed_ns();
            comm.with_phase("gather-x", || {
                for (round, act) in actions.iter().enumerate() {
                    comm.annotate_round(round as u64);
                    if let Some(dst) = act.send_to {
                        let pidx = plan.peer_slot(dst).expect("scheduled peer is in the plan");
                        let buf = plan.pack(ws, ExchangeKind::Gather, pidx, batch);
                        comm.send(dst, TAG_X + round as u64, buf);
                    }
                }
                comm.clear_round();
            });
            (begin_ns, formed_ns, ids)
        };
        let mut pending: [Option<(u64, u64, Vec<u64>)>; 2] = [None, None];
        let mut out = Vec::with_capacity(n_batches);
        if n_batches > 0 {
            pending[0] = Some(stage(0, &mut wss[0]));
        }
        for k in 0..n_batches {
            let cur = k % 2;
            let (begin_ns, formed_ns, ids) =
                pending[cur].take().expect("batch was staged before its turn");
            let batch = ids.len();
            // Drain this batch's gather receives — the *exposed* gather
            // time; everything hidden behind the previous batch's compute
            // has already arrived and costs only a mailbox claim.
            let gather_t0 = comm.elapsed_ns();
            comm.with_phase("gather-x", || {
                for (round, act) in actions.iter().enumerate() {
                    comm.annotate_round(round as u64);
                    if let Some(src) = act.recv_from {
                        let buf =
                            comm.recv(src, TAG_X + round as u64).expect("pipelined gather failed");
                        let pidx = plan.peer_slot(src).expect("scheduled peer is in the plan");
                        plan.unpack(&mut wss[cur], ExchangeKind::Gather, pidx, batch, buf);
                    }
                    if act.send_to.is_some() || act.recv_from.is_some() {
                        comm.count_round();
                    }
                }
                comm.clear_round();
            });
            let gather_ns = comm.elapsed_ns().saturating_sub(gather_t0);
            // Admit the next batch before this one computes: its gather
            // traffic rides under our kernel time.
            if k + 1 < n_batches {
                pending[1 - cur] = Some(stage(k + 1, &mut wss[1 - cur]));
            }
            let (ternary, compute_ns) = self.compute_requests(comm, plan, &mut wss[cur], &ids);
            let reduce_t0 = comm.elapsed_ns();
            comm.with_phase("reduce-y", || {
                self.plan_exchange(comm, plan, &mut wss[cur], TAG_Y, ExchangeKind::Reduce, batch)
            });
            let reduce_ns = comm.elapsed_ns().saturating_sub(reduce_t0);
            let ys = (0..batch).map(|v| plan.extract(&wss[cur], v)).collect();
            let spans = BatchSpans {
                start_ns: begin_ns,
                gather_ns,
                compute_ns,
                reduce_ns,
                end_ns: comm.elapsed_ns(),
            };
            out.push(ServedBatch { begin_ns, formed_ns, spans, ys, ternary });
        }
        out
    }

    /// One **overlapped** distributed STTSV: same wire format,
    /// word/message/round counts and output bits as [`RankContext::sttsv`],
    /// but communication and computation are pipelined — owned-only blocks
    /// run while the gather messages are in flight, each dependency group
    /// runs the moment its last x piece lands (drained in arrival order via
    /// [`Comm::recv_any`]), and finalized scatter-y contributions flush
    /// early in scheduled mode.
    pub fn sttsv_overlapped(&self, comm: &Comm, my_shards: &[Vec<f64>]) -> (Vec<Vec<f64>>, u64) {
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        let batch = load_batch(plan, &mut ws, std::iter::once(my_shards));
        let ternary = self.run_plan_overlapped(comm, plan, &mut ws, batch);
        (plan.extract(&ws, 0), ternary)
    }

    /// Batched form of [`RankContext::sttsv_overlapped`]: the whole batch
    /// moves through one overlapped exchange pair, bit-identical to
    /// [`RankContext::sttsv_multi`].
    pub fn sttsv_multi_overlapped(
        &self,
        comm: &Comm,
        my_shards: &[Vec<Vec<f64>>],
    ) -> (Vec<Vec<Vec<f64>>>, u64) {
        if my_shards.is_empty() {
            return (Vec::new(), 0);
        }
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        let batch = load_batch(plan, &mut ws, my_shards.iter().map(Vec::as_slice));
        let ternary = self.run_plan_overlapped(comm, plan, &mut ws, batch);
        let ys = (0..batch).map(|v| plan.extract(&ws, v)).collect();
        (ys, ternary)
    }

    /// The overlapped three-phase pipeline (see the [`crate::plan`] module
    /// docs for the bit-identity argument):
    ///
    /// 1. **gather-x** — all sends posted up-front (schedule order, round
    ///    tags unchanged), owned-only blocks computed inside a nested
    ///    `compute:overlap` span, then arrivals drained in completion
    ///    order, each unlocking its dependency groups.
    /// 2. **local-compute** — the remaining blocks (everything not yet
    ///    computed opportunistically) inside the usual `compute:kernel`
    ///    span, parallel on the attached pool.
    /// 3. **reduce-y** — in scheduled mode, peers whose y rows finalized
    ///    early were already flushed during phases 1–2; the rest flush
    ///    here, and incoming partials are drained in arrival order but
    ///    *applied* in schedule order (prefix rule), so the accumulation
    ///    order — and therefore every output bit — matches the barrier
    ///    path. The all-to-all modes flush at the collective and apply in
    ///    ascending peer order, like their barrier form.
    fn run_plan_overlapped(
        &self,
        comm: &Comm,
        plan: &RankPlan,
        ws: &mut PlanWorkspace,
        batch: usize,
    ) -> u64 {
        let p = comm.rank();
        let mut st = plan.overlap_state(batch, self.pool.is_some());
        // Live overlap decomposition: compute done while gather messages
        // are in flight is *hidden* communication; time spent blocked in
        // an arrival wait is *exposed*. Published as telemetry gauges so a
        // concurrent scrape can report overlap efficiency mid-run.
        let tele = comm.telemetry_enabled();
        let mut hidden_ns = 0u64;
        let mut exposed_ns = 0u64;
        match self.mode {
            Mode::Scheduled => {
                let schedule = self.schedule.expect("scheduled mode requires a schedule");
                let actions = schedule.actions(p);
                // The round in which the schedule sends to each dst — the
                // receiver's recv round is the same (rounds pair up), so
                // early-flushed reduce messages carry the barrier tags.
                let mut send_round = vec![None; self.part.num_procs()];
                for (round, act) in actions.iter().enumerate() {
                    if let Some(dst) = act.send_to {
                        send_round[dst] = Some(round as u64);
                    }
                }
                comm.with_phase("gather-x", || {
                    for (round, act) in actions.iter().enumerate() {
                        comm.annotate_round(round as u64);
                        if let Some(dst) = act.send_to {
                            let pidx = plan.peer_slot(dst).expect("scheduled peer is in the plan");
                            let buf = plan.pack(ws, ExchangeKind::Gather, pidx, batch);
                            comm.send(dst, TAG_X + round as u64, buf);
                        }
                    }
                    comm.clear_round();
                    // Owned-only blocks while every message is in flight.
                    timed(tele, &mut hidden_ns, || {
                        comm.with_phase("compute:overlap", || {
                            plan.compute_overlapped(ws, &mut st, self.pool)
                        })
                    });
                    self.flush_ready(comm, plan, ws, &mut st, batch, &send_round);
                    let mut candidates: Vec<(usize, u64)> = actions
                        .iter()
                        .enumerate()
                        .filter_map(|(round, act)| {
                            act.recv_from.map(|src| (src, TAG_X + round as u64))
                        })
                        .collect();
                    while !candidates.is_empty() {
                        let (src, tag, buf) = timed(tele, &mut exposed_ns, || {
                            comm.recv_any(&candidates).expect("overlapped gather failed")
                        });
                        candidates.retain(|&c| c != (src, tag));
                        let pidx = plan.peer_slot(src).expect("scheduled peer is in the plan");
                        plan.unpack(ws, ExchangeKind::Gather, pidx, batch, buf);
                        plan.note_gather_arrival(&mut st, pidx);
                        timed(tele, &mut hidden_ns, || {
                            comm.with_phase("compute:overlap", || {
                                plan.compute_overlapped(ws, &mut st, self.pool)
                            })
                        });
                        self.flush_ready(comm, plan, ws, &mut st, batch, &send_round);
                    }
                    for act in actions {
                        if act.send_to.is_some() || act.recv_from.is_some() {
                            comm.count_round();
                        }
                    }
                });
                let ternary = comm.with_phase("local-compute", || {
                    comm.with_phase("compute:kernel", || {
                        let t = plan.finish_overlapped(ws, &mut st, self.pool);
                        annotate_plan(comm, plan, ws);
                        t
                    })
                });
                comm.with_phase("reduce-y", || {
                    self.flush_ready(comm, plan, ws, &mut st, batch, &send_round);
                    // Drain in arrival order, apply in schedule order: the
                    // reduce accumulation is order-sensitive, so arrivals
                    // beyond the applied prefix are stashed.
                    let recv_rounds: Vec<(usize, u64)> = actions
                        .iter()
                        .enumerate()
                        .filter_map(|(round, act)| act.recv_from.map(|src| (src, round as u64)))
                        .collect();
                    let mut candidates: Vec<(usize, u64)> =
                        recv_rounds.iter().map(|&(src, round)| (src, TAG_Y + round)).collect();
                    let mut arrived: Vec<Option<Vec<f64>>> = vec![None; recv_rounds.len()];
                    let mut applied = 0usize;
                    while !candidates.is_empty() {
                        let (src, tag, buf) =
                            comm.recv_any(&candidates).expect("overlapped reduce failed");
                        candidates.retain(|&c| c != (src, tag));
                        let slot = recv_rounds
                            .iter()
                            .position(|&(s, round)| s == src && TAG_Y + round == tag)
                            .expect("arrival matches a scheduled recv");
                        arrived[slot] = Some(buf);
                        while applied < recv_rounds.len() {
                            let Some(buf) = arrived[applied].take() else { break };
                            let pidx = plan
                                .peer_slot(recv_rounds[applied].0)
                                .expect("scheduled peer is in the plan");
                            plan.unpack(ws, ExchangeKind::Reduce, pidx, batch, buf);
                            applied += 1;
                        }
                    }
                    for act in actions {
                        if act.send_to.is_some() || act.recv_from.is_some() {
                            comm.count_round();
                        }
                    }
                });
                if tele {
                    comm.telemetry_gauge_add(telemetry_keys::HIDDEN_NS, hidden_ns);
                    comm.telemetry_gauge_add(telemetry_keys::EXPOSED_NS, exposed_ns);
                }
                ternary
            }
            Mode::AllToAllPadded | Mode::AllToAllSparse => {
                let p_count = self.part.num_procs();
                let pad_len = batch * plan.pad_unit();
                comm.with_phase("gather-x", || {
                    let mut sendbufs = std::mem::take(&mut ws.a2a_send);
                    sendbufs.resize_with(p_count, Vec::new);
                    for pidx in 0..plan.peers().len() {
                        let peer = plan.peers()[pidx].peer;
                        let mut buf = plan.pack(ws, ExchangeKind::Gather, pidx, batch);
                        if self.mode == Mode::AllToAllPadded {
                            debug_assert!(buf.len() <= pad_len);
                            buf.resize(pad_len, 0.0);
                        }
                        sendbufs[peer] = buf;
                    }
                    // The collective's wall time minus its hidden compute
                    // is the exposed arrival wait.
                    let mut total_ns = 0u64;
                    let shell = timed(tele, &mut total_ns, || {
                        comm.all_to_all_v_overlapped(sendbufs, |event| match event {
                            // Owned-only blocks start once the sends are
                            // in flight (posting first keeps peers fed).
                            AllToAllEvent::SendsPosted => {
                                timed(tele, &mut hidden_ns, || {
                                    comm.with_phase("compute:overlap", || {
                                        plan.compute_overlapped(ws, &mut st, self.pool)
                                    })
                                });
                            }
                            AllToAllEvent::Arrival { src, buf } => {
                                let pidx =
                                    plan.peer_slot(src).expect("every non-self rank is a peer");
                                plan.unpack(ws, ExchangeKind::Gather, pidx, batch, buf);
                                plan.note_gather_arrival(&mut st, pidx);
                                timed(tele, &mut hidden_ns, || {
                                    comm.with_phase("compute:overlap", || {
                                        plan.compute_overlapped(ws, &mut st, self.pool)
                                    })
                                });
                            }
                        })
                    })
                    .expect("all-to-all failed");
                    exposed_ns = total_ns.saturating_sub(hidden_ns);
                    ws.a2a_send = shell;
                });
                let ternary = comm.with_phase("local-compute", || {
                    comm.with_phase("compute:kernel", || {
                        let t = plan.finish_overlapped(ws, &mut st, self.pool);
                        annotate_plan(comm, plan, ws);
                        t
                    })
                });
                comm.with_phase("reduce-y", || {
                    let mut sendbufs = std::mem::take(&mut ws.a2a_send);
                    sendbufs.resize_with(p_count, Vec::new);
                    for pidx in 0..plan.peers().len() {
                        let peer = plan.peers()[pidx].peer;
                        let mut buf = plan.pack(ws, ExchangeKind::Reduce, pidx, batch);
                        if self.mode == Mode::AllToAllPadded {
                            debug_assert!(buf.len() <= pad_len);
                            buf.resize(pad_len, 0.0);
                        }
                        sendbufs[peer] = buf;
                    }
                    // Drain in arrival order, apply in ascending peer
                    // order (the barrier form's accumulation order).
                    let mut arrived: Vec<Option<Vec<f64>>> = vec![None; p_count];
                    let mut applied = 0usize;
                    let shell = comm
                        .all_to_all_v_overlapped(sendbufs, |event| match event {
                            AllToAllEvent::SendsPosted => {}
                            AllToAllEvent::Arrival { src, buf } => {
                                arrived[src] = Some(buf);
                                while applied < p_count {
                                    if applied == p {
                                        applied += 1;
                                        continue;
                                    }
                                    let Some(buf) = arrived[applied].take() else { break };
                                    let pidx = plan
                                        .peer_slot(applied)
                                        .expect("every non-self rank is a peer");
                                    plan.unpack(ws, ExchangeKind::Reduce, pidx, batch, buf);
                                    applied += 1;
                                }
                            }
                        })
                        .expect("all-to-all failed");
                    ws.a2a_send = shell;
                });
                if tele {
                    comm.telemetry_gauge_add(telemetry_keys::HIDDEN_NS, hidden_ns);
                    comm.telemetry_gauge_add(telemetry_keys::EXPOSED_NS, exposed_ns);
                }
                ternary
            }
        }
    }

    /// Sends the reduce contribution of every peer whose y rows just
    /// finalized (scheduled mode's early flush): packs through the
    /// ordinary [`RankPlan::pack`] layout and reuses the barrier path's
    /// `TAG_Y + round` tags, so the wire format is untouched — only the
    /// send time moves earlier.
    fn flush_ready(
        &self,
        comm: &Comm,
        plan: &RankPlan,
        ws: &mut PlanWorkspace,
        st: &mut crate::plan::OverlapState,
        batch: usize,
        send_round: &[Option<u64>],
    ) {
        for pidx in st.take_flushable() {
            let dst = plan.peers()[pidx].peer;
            if let Some(round) = send_round[dst] {
                comm.annotate_round(round);
                let buf = plan.pack(ws, ExchangeKind::Reduce, pidx, batch);
                comm.send(dst, TAG_Y + round, buf);
                comm.clear_round();
            }
        }
    }

    /// One barrier exchange phase. Scheduled mode walks the edge-colored
    /// schedule round by round; the all-to-all modes hand every peer its
    /// message in one pairwise collective (padded to `batch · pad_unit`
    /// words in [`Mode::AllToAllPadded`]). Each message carries, for every
    /// row block shared with the peer (ascending), the batch's pieces back
    /// to back; buffers are drawn from (and recycled into) the workspace
    /// free list.
    fn plan_exchange(
        &self,
        comm: &Comm,
        plan: &RankPlan,
        ws: &mut PlanWorkspace,
        tag_base: u64,
        kind: ExchangeKind,
        batch: usize,
    ) {
        let p = comm.rank();
        match self.mode {
            Mode::Scheduled => {
                let schedule = self.schedule.expect("scheduled mode requires a schedule");
                for (round, act) in schedule.actions(p).iter().enumerate() {
                    comm.annotate_round(round as u64);
                    if let Some(dst) = act.send_to {
                        let pidx = plan.peer_slot(dst).expect("scheduled peer is in the plan");
                        comm.send(dst, tag_base + round as u64, plan.pack(ws, kind, pidx, batch));
                    }
                    if let Some(src) = act.recv_from {
                        let buf = comm
                            .recv(src, tag_base + round as u64)
                            .expect("scheduled exchange failed");
                        let pidx = plan.peer_slot(src).expect("scheduled peer is in the plan");
                        plan.unpack(ws, kind, pidx, batch, buf);
                    }
                    if act.send_to.is_some() || act.recv_from.is_some() {
                        comm.count_round();
                    }
                }
                comm.clear_round();
            }
            Mode::AllToAllPadded | Mode::AllToAllSparse => {
                let p_count = self.part.num_procs();
                let pad_len = batch * plan.pad_unit();
                // Recycle the outer collective vector across calls.
                let mut sendbufs = std::mem::take(&mut ws.a2a_send);
                sendbufs.resize_with(p_count, Vec::new);
                for pidx in 0..plan.peers().len() {
                    let peer = plan.peers()[pidx].peer;
                    let mut buf = plan.pack(ws, kind, pidx, batch);
                    if self.mode == Mode::AllToAllPadded {
                        debug_assert!(buf.len() <= pad_len);
                        buf.resize(pad_len, 0.0);
                    }
                    sendbufs[peer] = buf;
                }
                let mut recvd = comm.all_to_all_v(sendbufs).expect("all-to-all failed");
                for (peer, slot) in recvd.iter_mut().enumerate() {
                    if peer == p {
                        continue;
                    }
                    let buf = std::mem::take(slot);
                    let pidx = plan.peer_slot(peer).expect("every non-self rank is a peer");
                    plan.unpack(ws, kind, pidx, batch, buf);
                }
                ws.a2a_send = recvd;
            }
        }
    }
}

/// Sizes `ws` for the batch and loads this rank's shards of every vector
/// into its `x` slabs; returns the batch size.
fn load_batch<'v>(
    plan: &RankPlan,
    ws: &mut PlanWorkspace,
    vectors: impl ExactSizeIterator<Item = &'v [Vec<f64>]>,
) -> usize {
    let batch = vectors.len();
    plan.ensure_capacity(ws, batch);
    for (v, shards) in vectors.enumerate() {
        plan.load_shards(ws, v, shards);
    }
    batch
}

/// Annotates the enclosing `compute:kernel` span with the bytes of tensor
/// rows a vector pass streams and the workspace's steady-state heap events.
fn annotate_plan(comm: &Comm, plan: &RankPlan, ws: &PlanWorkspace) {
    comm.annotate_counter("plan:arena_bytes", plan.arena_bytes() as u64);
    comm.annotate_counter("plan:fresh_allocs", ws.fresh_allocs());
}

/// The result of a driver-level parallel STTSV run.
#[derive(Clone, Debug)]
pub struct SttsvRun {
    /// The assembled output vector `y = 𝓐 ×₂ x ×₃ x`.
    pub y: Vec<f64>,
    /// Exact per-rank communication costs.
    pub report: CostReport,
    /// Per-rank ternary-multiplication counts (the §7.1 work measure).
    pub ternary_per_rank: Vec<u64>,
}

/// The result of a driver-level **batched** parallel STTSV run.
#[derive(Clone, Debug)]
pub struct SttsvMultiRun {
    /// One assembled output vector per input vector: `ys[v] = 𝓐 ×₂ x_v ×₃ x_v`.
    pub ys: Vec<Vec<f64>>,
    /// Exact per-rank communication costs for the whole batch.
    pub report: CostReport,
    /// Per-rank ternary-multiplication counts summed over the batch
    /// (`B ×` the single-vector counts).
    pub ternary_per_rank: Vec<u64>,
}

impl SttsvMultiRun {
    /// The run of a batch of one.
    fn single(self) -> SttsvRun {
        let y = self.ys.into_iter().next().expect("a batch of one");
        SttsvRun { y, report: self.report, ternary_per_rank: self.ternary_per_rank }
    }
}

/// One rank's timing decomposition of a request-annotated batch
/// ([`RankContext::sttsv_multi_requests`]), in the rank's own
/// [`Comm::elapsed_ns`] clock. The serving driver merges these across
/// ranks with straggler semantics (each span is as slow as its slowest
/// rank).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchSpans {
    /// When this rank entered the batch (absolute).
    pub start_ns: u64,
    /// Duration of the gather-x exchange phase.
    pub gather_ns: u64,
    /// Per-vector kernel durations, indexed like the batch.
    pub compute_ns: Vec<u64>,
    /// Duration of the reduce-y exchange phase.
    pub reduce_ns: u64,
    /// When this rank finished extracting the batch's outputs (absolute).
    pub end_ns: u64,
}

impl BatchSpans {
    fn empty(now_ns: u64) -> Self {
        BatchSpans { start_ns: now_ns, end_ns: now_ns, ..BatchSpans::default() }
    }
}

/// One rank's measurement of a batch served through the double-buffered
/// pipeline ([`RankContext::sttsv_serve_pipelined`]): when the batch was
/// admitted and formed on this rank, its timing decomposition, and its
/// outputs — the same shape the sequential serving loop records per batch.
#[derive(Clone, Debug)]
pub struct ServedBatch {
    /// Batch admitted to the pipeline on this rank (absolute) — its queue
    /// wait ends here.
    pub begin_ns: u64,
    /// Shards extracted and loaded, gather traffic on the wire (absolute).
    pub formed_ns: u64,
    /// The batch's timing decomposition. `gather_ns` is the *exposed*
    /// gather time (drain only) — the pipeline's win shows up as this
    /// shrinking relative to the sequential loop.
    pub spans: BatchSpans,
    /// This rank's output shards, indexed `[v][t]`.
    pub ys: Vec<Vec<Vec<f64>>>,
    /// Ternary multiplications this rank performed for the batch.
    pub ternary: u64,
}

/// What a rank body returns to [`run_ranks`]: its output shards `[v][t]`,
/// its ternary-multiplication count, and a driver-specific extra.
pub(crate) type RankOut<E> = (Vec<Vec<Vec<f64>>>, u64, E);

/// Everything [`run_ranks`] collected on the host side.
pub(crate) struct RanksRun<E> {
    /// Assembled outputs and exact counts.
    pub(crate) run: SttsvMultiRun,
    /// Each rank's extra, indexed by rank.
    pub(crate) extras: Vec<E>,
    /// Per-rank event logs (empty unless traced).
    pub(crate) traces: Vec<Vec<CommEvent>>,
    /// Per-rank flight-recorder windows (empty unless traced).
    pub(crate) flight: Vec<FlightSnapshot>,
}

/// The host side shared by every driver: builds the schedule, spawns one
/// thread per rank (with event tracing when `traced`), gives each rank its
/// [`RankContext`] — with a [`Pool`] of `threads` workers when
/// `threads > 1` — and its shards `[v][t]` of every input vector, runs
/// `body`, and assembles the returned shards into full vectors.
pub(crate) fn run_ranks<X, E, F>(
    tensor: &SymTensor3,
    part: &TetraPartition,
    xs: &[X],
    mode: Mode,
    threads: usize,
    traced: bool,
    body: F,
) -> RanksRun<E>
where
    X: AsRef<[f64]> + Sync,
    E: Send,
    F: Fn(&Comm, &RankContext<'_>, Vec<Vec<Vec<f64>>>) -> RankOut<E> + Sync,
{
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    for (v, x) in xs.iter().enumerate() {
        assert_eq!(x.as_ref().len(), n, "vector {v} has wrong dimension");
    }
    let schedule = (mode == Mode::Scheduled).then(|| CommSchedule::build(part));

    let rank_main = |comm: &Comm| {
        let p = comm.rank();
        let pool = (threads > 1).then(|| Pool::new(threads));
        let mut ctx = RankContext::new(tensor, part, p, mode, schedule.as_ref());
        if let Some(pool) = pool.as_ref() {
            ctx = ctx.with_pool(pool);
        }
        let shards = xs.iter().map(|x| rank_shards(part, p, x.as_ref())).collect();
        body(comm, &ctx, shards)
    };
    let universe = Universe::new(part.num_procs());
    let (rank_results, report, traces, flight) = if traced {
        universe.run_traced_flight(rank_main)
    } else {
        let (results, report) = universe.run(rank_main);
        (results, report, Vec::new(), Vec::new())
    };

    let count = rank_results.first().map_or(0, |r| r.0.len());
    let mut ys = vec![vec![0.0; n]; count];
    let mut ternary_per_rank = Vec::with_capacity(rank_results.len());
    let mut extras = Vec::with_capacity(rank_results.len());
    for (p, (shard_sets, ternary, extra)) in rank_results.into_iter().enumerate() {
        ternary_per_rank.push(ternary);
        extras.push(extra);
        for (y, shards) in ys.iter_mut().zip(shard_sets) {
            for (&i, shard) in part.r_set(p).iter().zip(shards) {
                let (global, local) = (part.block_range(i), part.shard_range(i, p));
                y[global.start + local.start..global.start + local.end].copy_from_slice(&shard);
            }
        }
    }
    RanksRun { run: SttsvMultiRun { ys, report, ternary_per_rank }, extras, traces, flight }
}

/// Rank `p`'s shards of `x`, one per owned row block `R_p[t]`.
pub(crate) fn rank_shards(part: &TetraPartition, p: usize, x: &[f64]) -> Vec<Vec<f64>> {
    part.r_set(p).iter().map(|&i| x[part.block_range(i)][part.shard_range(i, p)].to_vec()).collect()
}

/// The barrier rank body: one batched STTSV over the rank's shards.
fn barrier(comm: &Comm, ctx: &RankContext<'_>, shards: Vec<Vec<Vec<f64>>>) -> RankOut<()> {
    let (ys, ternary) = ctx.sttsv_multi(comm, &shards);
    (ys, ternary, ())
}

/// The overlapped rank body: [`barrier`] on the overlapped exchange.
fn overlapped(comm: &Comm, ctx: &RankContext<'_>, shards: Vec<Vec<Vec<f64>>>) -> RankOut<()> {
    let (ys, ternary) = ctx.sttsv_multi_overlapped(comm, &shards);
    (ys, ternary, ())
}

/// Runs Algorithm 5 on the simulated machine: one thread per processor,
/// with the tensor blocks extracted per-rank (never communicated) and the
/// input/output vectors distributed per Section 6.1.2. Same as
/// [`parallel_sttsv_planned`] with one thread per rank.
///
/// `part.dim()` must equal `tensor.dim()` and `x.len()`; use
/// [`parallel_sttsv_padded`] for arbitrary `n`.
///
/// ```
/// use symtensor_parallel::{parallel_sttsv, Mode, TetraPartition};
/// use symtensor_core::SymTensor3;
/// use symtensor_steiner::spherical;
///
/// let n = 30;                                  // m = 5 row blocks, b = 6
/// let part = TetraPartition::new(spherical(2), n).unwrap();
/// let mut a = SymTensor3::zeros(n);
/// for i in 0..n { a.set(i, i, i, 1.0); }       // y_i = x_i²
/// let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
/// let run = parallel_sttsv(&a, &part, &x, Mode::Scheduled);
/// assert!(run.y.iter().enumerate().all(|(i, &y)| y == (i * i) as f64));
/// assert!(run.report.bandwidth_cost() > 0);    // vectors moved, tensor did not
/// ```
pub fn parallel_sttsv(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
) -> SttsvRun {
    parallel_sttsv_planned(tensor, part, x, mode, 1)
}

/// Runs Algorithm 5 with a node-level worker pool of `threads` threads
/// attached to every rank when `threads > 1`: the distributed algorithm
/// (and its communication costs) are unchanged, while each rank's
/// local-compute phase runs the pooled block kernels, bit-identical across
/// thread counts. Each rank compiles its plan on the first call; the first
/// vector pass reads the tensor rows in place.
pub fn parallel_sttsv_planned(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    threads: usize,
) -> SttsvRun {
    run_ranks(tensor, part, &[x], mode, threads, false, barrier).run.single()
}

/// Like [`parallel_sttsv_planned`] but with per-rank event tracing enabled:
/// also returns each rank's full [`CommEvent`] log (phase-annotated
/// sends/recvs, round annotations from the scheduled exchanges) and its
/// **flight-recorder window** (the always-on bounded ring of send/recv/
/// phase records), ready for the `symtensor-obs` exporters. Results and the
/// [`CostReport`] are identical to the untraced run — tracing never touches
/// the counters.
pub fn parallel_sttsv_traced(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    threads: usize,
) -> (SttsvRun, Vec<Vec<CommEvent>>, Vec<FlightSnapshot>) {
    let out = run_ranks(tensor, part, &[x], mode, threads, true, barrier);
    (out.run.single(), out.traces, out.flight)
}

/// Runs [`RankContext::sttsv_multi`] on the simulated machine: all `B`
/// contractions share one pair of exchange phases, so each rank's message
/// and round counts equal a **single** STTSV while words scale with `B`.
/// `threads > 1` attaches a [`Pool`] per rank, as in
/// [`parallel_sttsv_planned`].
pub fn parallel_sttsv_multi(
    tensor: &SymTensor3,
    part: &TetraPartition,
    xs: &[Vec<f64>],
    mode: Mode,
    threads: usize,
) -> SttsvMultiRun {
    run_ranks(tensor, part, xs, mode, threads, false, barrier).run
}

/// [`parallel_sttsv_planned`] with the **overlapped exchange** engine:
/// owned-only blocks compute while gather-x messages are still in flight,
/// dependency groups fire as each peer's piece lands, and (in scheduled
/// mode) finished y rows flush their reduce contributions early. Values,
/// ternary counts, and the full [`CostReport`] are bit-identical to the
/// barrier run — only event *timing* differs.
pub fn parallel_sttsv_overlapped(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    threads: usize,
) -> SttsvRun {
    run_ranks(tensor, part, &[x], mode, threads, false, overlapped).run.single()
}

/// Like [`parallel_sttsv_overlapped`] but with per-rank event tracing, so
/// the overlapped pipeline feeds the same `symtensor-obs` replay/critical-
/// path tooling as the barrier drivers (the E16 A/B study runs on this).
pub fn parallel_sttsv_overlapped_traced(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    threads: usize,
) -> (SttsvRun, Vec<Vec<CommEvent>>) {
    let out = run_ranks(tensor, part, &[x], mode, threads, true, overlapped);
    (out.run.single(), out.traces)
}

/// [`parallel_sttsv_multi`] with the overlapped exchange engine: the whole
/// batch pipelines through one dependency-driven gather / compute / reduce
/// pass per rank. Bit-identical to the barrier multi-vector run.
pub fn parallel_sttsv_multi_overlapped(
    tensor: &SymTensor3,
    part: &TetraPartition,
    xs: &[Vec<f64>],
    mode: Mode,
    threads: usize,
) -> SttsvMultiRun {
    run_ranks(tensor, part, xs, mode, threads, false, overlapped).run
}

/// Runs Algorithm 5 for an arbitrary dimension by zero-padding the tensor
/// and vector to [`TetraPartition::padded_dim`] (the paper's padding rule),
/// then truncating `y`.
pub fn parallel_sttsv_padded(
    tensor: &SymTensor3,
    system: symtensor_steiner::SteinerSystem,
    x: &[f64],
    mode: Mode,
) -> SttsvRun {
    let n = tensor.dim();
    assert_eq!(x.len(), n);
    let n_pad = TetraPartition::padded_dim(&system, n);
    let part = TetraPartition::new(system, n_pad).expect("padded dimension divides");
    if n_pad == n {
        return parallel_sttsv(tensor, &part, x, mode);
    }
    let mut big = SymTensor3::zeros(n_pad);
    for (i, j, k, v) in tensor.iter_lower() {
        big.set(i, j, k, v);
    }
    let mut x_pad = x.to_vec();
    x_pad.resize(n_pad, 0.0);
    let mut run = parallel_sttsv(&big, &part, &x_pad, mode);
    run.y.truncate(n);
    run
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::schedule::spherical_round_count;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor_core::generate::random_symmetric;
    use symtensor_core::seq::sttsv_sym;
    use symtensor_steiner::{spherical, sqs8};

    fn check_against_sequential(part: &TetraPartition, mode: Mode, seed: u64) -> SttsvRun {
        let n = part.dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) as f64 * 0.01).sin()).collect();
        let run = parallel_sttsv(&tensor, part, &x, mode);
        let (y_seq, _) = sttsv_sym(&tensor, &x);
        for i in 0..n {
            assert!(
                (run.y[i] - y_seq[i]).abs() < 1e-9 * (1.0 + y_seq[i].abs()),
                "y[{i}]: {} vs {}",
                run.y[i],
                y_seq[i]
            );
        }
        run
    }

    #[test]
    fn scheduled_matches_sequential_q2() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        check_against_sequential(&part, Mode::Scheduled, 1);
    }

    #[test]
    fn all_to_all_padded_matches_sequential_q2() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        check_against_sequential(&part, Mode::AllToAllPadded, 2);
    }

    #[test]
    fn all_to_all_sparse_matches_sequential_q2() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        check_against_sequential(&part, Mode::AllToAllSparse, 3);
    }

    #[test]
    fn scheduled_matches_sequential_sqs8() {
        let part = TetraPartition::new(sqs8(), 56).unwrap();
        check_against_sequential(&part, Mode::Scheduled, 4);
    }

    #[test]
    fn scheduled_matches_sequential_q3() {
        let part = TetraPartition::new(spherical(3), 60).unwrap();
        check_against_sequential(&part, Mode::Scheduled, 5);
    }

    #[test]
    fn uneven_shards_still_correct() {
        // b = 6, λ₁ = 6 for q = 2 ... pick b not divisible by λ₁: n = 20,
        // b = 4, λ₁ = 6: some shards are empty.
        let part = TetraPartition::new(spherical(2), 20).unwrap();
        check_against_sequential(&part, Mode::Scheduled, 6);
        check_against_sequential(&part, Mode::AllToAllPadded, 7);
    }

    #[test]
    fn scheduled_words_match_closed_form_q3() {
        // n = 120, q = 3: per-vector words = n(q+1)/(q²+1) − n/P = 44,
        // both vectors = 88; rounds = 2 × 26.
        let n = 120;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let run = check_against_sequential(&part, Mode::Scheduled, 8);
        let expect = 2 * bounds::scheduled_words_per_vector(n, 3) as u64;
        for (p, cost) in run.report.per_rank.iter().enumerate() {
            assert_eq!(cost.words_sent, expect, "rank {p} sent");
            assert_eq!(cost.words_recv, expect, "rank {p} recv");
            assert_eq!(cost.rounds, 2 * spherical_round_count(3) as u64, "rank {p} rounds");
        }
    }

    #[test]
    fn padded_all_to_all_words_match_closed_form_q3() {
        // 4n/(q+1)·(1−1/P) = 120·(29/30) = 116 words per rank.
        let n = 120;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let run = check_against_sequential(&part, Mode::AllToAllPadded, 9);
        let expect = bounds::alltoall_words_total(n, 3) as u64;
        for (p, cost) in run.report.per_rank.iter().enumerate() {
            assert_eq!(cost.words_sent, expect, "rank {p}");
            assert_eq!(cost.words_recv, expect, "rank {p}");
        }
    }

    #[test]
    fn sparse_all_to_all_words_equal_scheduled_words() {
        let n = 120;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let run = check_against_sequential(&part, Mode::AllToAllSparse, 10);
        let expect = 2 * bounds::scheduled_words_per_vector(n, 3) as u64;
        for cost in &run.report.per_rank {
            assert_eq!(cost.words_sent, expect);
        }
    }

    #[test]
    fn ternary_counts_sum_to_global_and_match_partition() {
        let n = 60;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let run = check_against_sequential(&part, Mode::Scheduled, 11);
        let total: u64 = run.ternary_per_rank.iter().sum();
        let n64 = n as u64;
        assert_eq!(total, n64 * n64 * (n64 + 1) / 2);
        for (p, &t) in run.ternary_per_rank.iter().enumerate() {
            assert_eq!(t, part.ternary_mults(p), "rank {p}");
        }
    }

    #[test]
    fn multi_matches_per_vector_sequential_in_all_modes() {
        let n = 60;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let tensor = random_symmetric(n, &mut rng);
        let xs: Vec<Vec<f64>> = (0..4)
            .map(|v| (0..n).map(|i| ((i * 3 + v * 11 + 1) as f64 * 0.013).sin()).collect())
            .collect();
        for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
            let run = parallel_sttsv_multi(&tensor, &part, &xs, mode, 1);
            assert_eq!(run.ys.len(), xs.len());
            for (v, x) in xs.iter().enumerate() {
                let (y_seq, _) = sttsv_sym(&tensor, x);
                for i in 0..n {
                    assert!(
                        (run.ys[v][i] - y_seq[i]).abs() < 1e-9 * (1.0 + y_seq[i].abs()),
                        "{mode:?} vector {v} y[{i}]"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_words_scale_with_batch_but_rounds_do_not() {
        // The batched exchange must amortize latency: per-rank words are
        // B × the single-vector closed forms while message/round counts
        // stay those of a single STTSV.
        let n = 120;
        let batch = 3usize;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let tensor = random_symmetric(n, &mut rng);
        let xs: Vec<Vec<f64>> =
            (0..batch).map(|v| (0..n).map(|i| ((i + v) as f64 * 0.01).cos()).collect()).collect();

        let single = parallel_sttsv(&tensor, &part, &xs[0], Mode::Scheduled);
        let multi = parallel_sttsv_multi(&tensor, &part, &xs, Mode::Scheduled, 1);
        for (p, (one, many)) in
            single.report.per_rank.iter().zip(&multi.report.per_rank).enumerate()
        {
            assert_eq!(many.words_sent, batch as u64 * one.words_sent, "rank {p} words");
            assert_eq!(many.msgs_sent, one.msgs_sent, "rank {p} messages");
            assert_eq!(many.rounds, one.rounds, "rank {p} rounds");
        }
        // Ternary work also scales with the batch, matching the partition.
        for (p, &t) in multi.ternary_per_rank.iter().enumerate() {
            assert_eq!(t, batch as u64 * part.ternary_mults(p), "rank {p}");
        }

        let single_pad = parallel_sttsv(&tensor, &part, &xs[0], Mode::AllToAllPadded);
        let multi_pad = parallel_sttsv_multi(&tensor, &part, &xs, Mode::AllToAllPadded, 1);
        for (one, many) in single_pad.report.per_rank.iter().zip(&multi_pad.report.per_rank) {
            assert_eq!(many.words_sent, batch as u64 * one.words_sent);
            assert_eq!(many.msgs_sent, one.msgs_sent);
        }
    }

    #[test]
    fn mt_driver_matches_sequential_and_is_thread_count_invariant() {
        // The pooled local-compute phase uses a fixed chunk decomposition
        // and tree reduction, so it's bit-identical across *thread counts*
        // (and run-to-run); versus the sequential accumulation order it
        // agrees to rounding.
        let n = 60;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| ((i * 5 + 2) as f64 * 0.017).sin()).collect();
        let base = parallel_sttsv(&tensor, &part, &x, Mode::Scheduled);
        let pooled = parallel_sttsv_planned(&tensor, &part, &x, Mode::Scheduled, 2);
        for threads in [2usize, 4, 8] {
            let run = parallel_sttsv_planned(&tensor, &part, &x, Mode::Scheduled, threads);
            assert_eq!(run.ternary_per_rank, base.ternary_per_rank);
            for i in 0..n {
                assert!(
                    (run.y[i] - base.y[i]).abs() < 1e-12 * (1.0 + base.y[i].abs()),
                    "threads={threads} y[{i}]"
                );
                assert_eq!(run.y[i].to_bits(), pooled.y[i].to_bits(), "threads={threads} y[{i}]");
            }
            // Communication is untouched by the node-level pool.
            for (one, other) in base.report.per_rank.iter().zip(&run.report.per_rank) {
                assert_eq!(one.words_sent, other.words_sent);
                assert_eq!(one.rounds, other.rounds);
            }
        }
    }

    #[test]
    fn multi_with_pool_matches_multi_without() {
        let n = 40;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(24);
        let tensor = random_symmetric(n, &mut rng);
        let xs: Vec<Vec<f64>> =
            (0..2).map(|v| (0..n).map(|i| ((i * 2 + v) as f64 * 0.03).cos()).collect()).collect();
        let seq = parallel_sttsv_multi(&tensor, &part, &xs, Mode::AllToAllSparse, 1);
        let par4 = parallel_sttsv_multi(&tensor, &part, &xs, Mode::AllToAllSparse, 4);
        let par8 = parallel_sttsv_multi(&tensor, &part, &xs, Mode::AllToAllSparse, 8);
        assert_eq!(seq.ternary_per_rank, par4.ternary_per_rank);
        for (a, b) in seq.ys.iter().zip(&par4.ys) {
            for (va, vb) in a.iter().zip(b) {
                assert!((va - vb).abs() < 1e-12 * (1.0 + va.abs()));
            }
        }
        // Thread-count invariance of the pooled path is exact.
        for (a, b) in par4.ys.iter().zip(&par8.ys) {
            for (va, vb) in a.iter().zip(b) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn multi_empty_batch_is_ok() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let tensor = SymTensor3::zeros(n);
        let run = parallel_sttsv_multi(&tensor, &part, &[], Mode::AllToAllSparse, 1);
        assert!(run.ys.is_empty());
        assert!(run.ternary_per_rank.iter().all(|&t| t == 0));
    }

    #[test]
    fn every_barrier_entry_point_agrees() {
        // One execution path: every barrier driver returns the same y bits
        // and the same per-rank CostReport, each within 1e-12 of the
        // sequential oracle.
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(25);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) as f64 * 0.07).sin()).collect();
        let (y_seq, _) = sttsv_sym(&tensor, &x);
        for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
            let multi = parallel_sttsv_multi(&tensor, &part, std::slice::from_ref(&x), mode, 1);
            let runs = [
                ("parallel_sttsv", parallel_sttsv(&tensor, &part, &x, mode)),
                ("parallel_sttsv_planned", parallel_sttsv_planned(&tensor, &part, &x, mode, 1)),
                ("parallel_sttsv_multi", multi.single()),
                ("parallel_sttsv_traced", parallel_sttsv_traced(&tensor, &part, &x, mode, 1).0),
                ("parallel_sttsv_padded", parallel_sttsv_padded(&tensor, spherical(2), &x, mode)),
            ];
            let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (_, first) = &runs[0];
            for (name, run) in &runs {
                assert_eq!(bits(&run.y), bits(&first.y), "{mode:?} {name}: y bits");
                assert_eq!(run.report, first.report, "{mode:?} {name}: CostReport");
                for (i, (y, r)) in run.y.iter().zip(&y_seq).enumerate() {
                    assert!((y - r).abs() < 1e-12 * (1.0 + r.abs()), "{mode:?} {name} y[{i}]");
                }
            }
        }
    }

    #[test]
    fn padded_driver_handles_arbitrary_dimension() {
        let n = 37;
        let mut rng = StdRng::seed_from_u64(12);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        let run = parallel_sttsv_padded(&tensor, spherical(2), &x, Mode::Scheduled);
        assert_eq!(run.y.len(), n);
        let (y_seq, _) = sttsv_sym(&tensor, &x);
        for i in 0..n {
            assert!((run.y[i] - y_seq[i]).abs() < 1e-9);
        }
    }
}
