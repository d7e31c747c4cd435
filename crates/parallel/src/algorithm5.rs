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
use crate::schedule::{shared_row_blocks, CommSchedule};
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
/// resolved once and reused across iterations, e.g. by HOPM).
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
    /// Whether `sttsv`/`sttsv_multi` route through the compiled rank plan
    /// (see [`RankContext::with_plan`]).
    use_plan: bool,
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
            use_plan: false,
            plan: OnceCell::new(),
            plan_ws: RefCell::new(PlanWorkspace::new()),
        }
    }

    /// Attaches a shared-memory worker pool: the local-compute phase then
    /// runs [`OwnedBlocks::compute_par`] across the pool's threads (results
    /// bit-identical across thread counts) instead of the sequential
    /// kernels. This is the node-level `threads` knob below the simulated
    /// distributed machine.
    pub fn with_pool(mut self, pool: &'a Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Routes every subsequent [`RankContext::sttsv`] /
    /// [`RankContext::sttsv_multi`] call through the compiled rank plan:
    /// the first call invokes [`RankContext::compile`] lazily (sharing the
    /// owned blocks' row store and precomputing every message layout), and
    /// the steady state after the arena-building second vector pass
    /// performs zero heap allocations. Results are
    /// **bit-identical** to the legacy path, and word/message/round counts
    /// are unchanged.
    pub fn with_plan(mut self) -> Self {
        self.use_plan = true;
        self
    }

    /// Compiles (on first call) and returns this rank's [`RankPlan`]; all
    /// later calls — and every plan-routed `sttsv`/`sttsv_multi`/HOPM
    /// iteration — reuse it.
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

    /// Runs the local ternary-multiplication kernels, on the attached pool
    /// if any, inside a nested `compute:kernel` phase span (so traces show
    /// the pure kernel time within the enclosing `local-compute` phase).
    fn local_kernels(&self, comm: &Comm, x_full: &[Vec<f64>], y_acc: &mut [Vec<f64>]) -> u64 {
        let part = self.part;
        let p = comm.rank();
        let rp = part.r_set(p);
        comm.with_phase("compute:kernel", || match self.pool {
            Some(pool) => {
                self.owned.compute_par(x_full, y_acc, |i| rp.binary_search(&i).unwrap(), pool)
            }
            None => self.owned.compute(x_full, y_acc, |i| rp.binary_search(&i).unwrap()),
        })
    }

    /// One distributed STTSV: `my_shards[t]` is this rank's shard of row
    /// block `R_p[t]` of `x`; returns this rank's shards of `y` (same
    /// keying) and the ternary-multiplication count.
    pub fn sttsv(&self, comm: &Comm, my_shards: &[Vec<f64>]) -> (Vec<Vec<f64>>, u64) {
        if self.use_plan {
            return self.sttsv_plan(comm, my_shards);
        }
        let part = self.part;
        let p = comm.rank();
        let rp = part.r_set(p);
        assert_eq!(my_shards.len(), rp.len(), "one shard per owned row block");
        let b = part.block_size();

        // --- Phase 1: gather full x row blocks (Algorithm 5 lines 10-21).
        let mut x_full: Vec<Vec<f64>> = vec![vec![0.0; b]; rp.len()];
        for (t, &i) in rp.iter().enumerate() {
            let range = part.shard_range(i, p);
            debug_assert_eq!(my_shards[t].len(), range.len());
            x_full[t][range].copy_from_slice(&my_shards[t]);
        }
        comm.with_phase("gather-x", || {
            self.exchange_phase(
                comm,
                TAG_X,
                1,
                // Pack: my shard of shared row block i.
                |_, t, _peer| my_shards[t].clone(),
                // Unpack: the peer's shard of row block i, placed at its range.
                |i, t, peer| {
                    let range = part.shard_range(i, peer);
                    (
                        range.len(),
                        Box::new(move |x_dst: &mut [Vec<f64>], piece: &[f64]| {
                            x_dst[t][range.clone()].copy_from_slice(piece);
                        }),
                    )
                },
                &mut x_full,
            )
        });

        // --- Phase 2: local ternary multiplications (lines 24-36).
        let mut y_acc: Vec<Vec<f64>> = vec![vec![0.0; b]; rp.len()];
        let ternary =
            comm.with_phase("local-compute", || self.local_kernels(comm, &x_full, &mut y_acc));

        // --- Phase 3: distribute and reduce partial y (lines 38-50).
        let mut y_out: Vec<Vec<f64>> = rp
            .iter()
            .enumerate()
            .map(|(t, &i)| y_acc[t][part.shard_range(i, p)].to_vec())
            .collect();
        comm.with_phase("reduce-y", || {
            self.exchange_phase(
                comm,
                TAG_Y,
                1,
                // Pack: my partial of the *peer's* shard of row block i.
                |i, t, peer| y_acc[t][part.shard_range(i, peer)].to_vec(),
                // Unpack: a partial of *my* shard of row block i — accumulate.
                |i, t, _peer| {
                    let len = part.shard_range(i, p).len();
                    (
                        len,
                        Box::new(move |y_dst: &mut [Vec<f64>], piece: &[f64]| {
                            for (acc, &v) in y_dst[t].iter_mut().zip(piece) {
                                *acc += v;
                            }
                        }),
                    )
                },
                &mut y_out,
            )
        });

        (y_out, ternary)
    }

    /// Batched distributed STTSV: runs `B = my_shards.len()` contractions
    /// through **one** pair of exchange phases — the serving/throughput
    /// path. `my_shards[v][t]` is this rank's shard of row block `R_p[t]`
    /// of input vector `v`; returns `ys[v][t]` keyed the same way, plus the
    /// total ternary-multiplication count (`B ×` the single-vector count).
    ///
    /// Each peer message carries the `B` vectors' pieces back-to-back
    /// (`width = B` in [`RankContext::exchange_phase`]), so the per-rank
    /// **message count and round count are those of a single STTSV** while
    /// words scale linearly with `B` — the α (latency) term of the α-β-γ
    /// cost is amortized across the batch, exactly like the multi-vector
    /// contractions in the Multi-TTM literature. Word counts are `B ×` the
    /// single-vector counts in every mode (the padded collective pads each
    /// message to `B ×` the single-vector pad).
    pub fn sttsv_multi(
        &self,
        comm: &Comm,
        my_shards: &[Vec<Vec<f64>>],
    ) -> (Vec<Vec<Vec<f64>>>, u64) {
        if my_shards.is_empty() {
            return (Vec::new(), 0);
        }
        if self.use_plan {
            return self.sttsv_multi_plan(comm, my_shards);
        }
        let part = self.part;
        let p = comm.rank();
        let rp = part.r_set(p);
        let batch = my_shards.len();
        let t_count = rp.len();
        for (v, shards) in my_shards.iter().enumerate() {
            assert_eq!(shards.len(), t_count, "vector {v}: one shard per owned row block");
        }
        let b = part.block_size();

        // Batched rank state, flattened as [v * t_count + t] so it fits the
        // `exchange_phase` state type.
        let mut x_full: Vec<Vec<f64>> = vec![vec![0.0; b]; batch * t_count];
        for (v, shards) in my_shards.iter().enumerate() {
            for (t, &i) in rp.iter().enumerate() {
                let range = part.shard_range(i, p);
                debug_assert_eq!(shards[t].len(), range.len());
                x_full[v * t_count + t][range].copy_from_slice(&shards[t]);
            }
        }
        comm.with_phase("gather-x", || {
            self.exchange_phase(
                comm,
                TAG_X,
                batch,
                // Pack: my shards of row block i, all vectors back-to-back.
                |_, t, _peer| {
                    let mut buf = Vec::new();
                    for shards in my_shards {
                        buf.extend_from_slice(&shards[t]);
                    }
                    buf
                },
                // Unpack: the peer's shards of row block i, per vector.
                |i, t, peer| {
                    let range = part.shard_range(i, peer);
                    let len = range.len();
                    (
                        len * batch,
                        Box::new(move |x_dst: &mut [Vec<f64>], piece: &[f64]| {
                            for v in 0..batch {
                                x_dst[v * t_count + t][range.clone()]
                                    .copy_from_slice(&piece[v * len..(v + 1) * len]);
                            }
                        }),
                    )
                },
                &mut x_full,
            )
        });

        // Local compute: one kernel pass per vector over the same owned
        // blocks (the blocks stay resident; only the vectors change).
        let mut y_acc: Vec<Vec<f64>> = vec![vec![0.0; b]; batch * t_count];
        let ternary = comm.with_phase("local-compute", || {
            let mut total = 0;
            for (xs, ys) in x_full.chunks_exact(t_count).zip(y_acc.chunks_exact_mut(t_count)) {
                total += self.local_kernels(comm, xs, ys);
            }
            total
        });

        // Reduce: every vector's partial shards in one exchange.
        let mut y_flat: Vec<Vec<f64>> = (0..batch)
            .flat_map(|v| rp.iter().enumerate().map(move |(t, &i)| (v, t, i)).collect::<Vec<_>>())
            .map(|(v, t, i)| y_acc[v * t_count + t][part.shard_range(i, p)].to_vec())
            .collect();
        comm.with_phase("reduce-y", || {
            self.exchange_phase(
                comm,
                TAG_Y,
                batch,
                |i, t, peer| {
                    let range = part.shard_range(i, peer);
                    let mut buf = Vec::with_capacity(batch * range.len());
                    for v in 0..batch {
                        buf.extend_from_slice(&y_acc[v * t_count + t][range.clone()]);
                    }
                    buf
                },
                |i, t, _peer| {
                    let len = part.shard_range(i, p).len();
                    (
                        len * batch,
                        Box::new(move |y_dst: &mut [Vec<f64>], piece: &[f64]| {
                            for v in 0..batch {
                                for (acc, &val) in y_dst[v * t_count + t]
                                    .iter_mut()
                                    .zip(&piece[v * len..(v + 1) * len])
                                {
                                    *acc += val;
                                }
                            }
                        }),
                    )
                },
                &mut y_flat,
            )
        });

        let ys = y_flat.chunks_exact(t_count).map(|c| c.to_vec()).collect();
        (ys, ternary)
    }

    /// [`RankContext::sttsv`] through the compiled plan: identical phases,
    /// wire format, arithmetic and counts, but all state lives in the
    /// plan's flat slabs and recycled buffers — zero heap allocations in
    /// steady state (only the returned shard vectors are fresh; use
    /// [`RankContext::sttsv_into`] to avoid even those).
    fn sttsv_plan(&self, comm: &Comm, my_shards: &[Vec<f64>]) -> (Vec<Vec<f64>>, u64) {
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        let ternary = self.run_plan_single(comm, plan, &mut ws, my_shards);
        (plan.extract(&ws, 0), ternary)
    }

    /// Fully allocation-free steady-state STTSV: like
    /// [`RankContext::sttsv`] on the plan path, but the output shards are
    /// written into caller-provided vectors (reused capacity). Returns the
    /// ternary count. Requires [`RankContext::with_plan`].
    pub fn sttsv_into(&self, comm: &Comm, my_shards: &[Vec<f64>], out: &mut [Vec<f64>]) -> u64 {
        assert!(self.use_plan, "sttsv_into requires the plan path (with_plan)");
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        let ternary = self.run_plan_single(comm, plan, &mut ws, my_shards);
        plan.extract_into(&ws, 0, out);
        ternary
    }

    /// The three plan phases for one vector (shared by `sttsv_plan` and
    /// `sttsv_into`).
    fn run_plan_single(
        &self,
        comm: &Comm,
        plan: &RankPlan,
        ws: &mut PlanWorkspace,
        my_shards: &[Vec<f64>],
    ) -> u64 {
        plan.ensure_capacity(ws, 1);
        plan.load_shards(ws, 0, my_shards);
        comm.with_phase("gather-x", || {
            self.plan_exchange(comm, plan, ws, TAG_X, ExchangeKind::Gather, 1)
        });
        let ternary = comm.with_phase("local-compute", || {
            comm.with_phase("compute:kernel", || {
                let t = plan.compute(ws, 1, self.pool);
                comm.annotate_counter("plan:arena_bytes", plan.arena_bytes() as u64);
                comm.annotate_counter("plan:fresh_allocs", ws.fresh_allocs());
                t
            })
        });
        comm.with_phase("reduce-y", || {
            self.plan_exchange(comm, plan, ws, TAG_Y, ExchangeKind::Reduce, 1)
        });
        ternary
    }

    /// [`RankContext::sttsv_multi`] through the compiled plan: the batch
    /// moves through one exchange-phase pair exactly like the legacy
    /// batched path (messages carry the `B` vectors' pieces back-to-back),
    /// with all batch state in the flat slabs.
    fn sttsv_multi_plan(
        &self,
        comm: &Comm,
        my_shards: &[Vec<Vec<f64>>],
    ) -> (Vec<Vec<Vec<f64>>>, u64) {
        let batch = my_shards.len();
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        plan.ensure_capacity(&mut ws, batch);
        for (v, shards) in my_shards.iter().enumerate() {
            plan.load_shards(&mut ws, v, shards);
        }
        comm.with_phase("gather-x", || {
            self.plan_exchange(comm, plan, &mut ws, TAG_X, ExchangeKind::Gather, batch)
        });
        let ternary = comm.with_phase("local-compute", || {
            comm.with_phase("compute:kernel", || {
                let t = plan.compute(&mut ws, batch, self.pool);
                comm.annotate_counter("plan:arena_bytes", plan.arena_bytes() as u64);
                comm.annotate_counter("plan:fresh_allocs", ws.fresh_allocs());
                t
            })
        });
        comm.with_phase("reduce-y", || {
            self.plan_exchange(comm, plan, &mut ws, TAG_Y, ExchangeKind::Reduce, batch)
        });
        let ys = (0..batch).map(|v| plan.extract(&ws, v)).collect();
        (ys, ternary)
    }

    /// [`RankContext::sttsv_multi`] on the plan path with **request-scoped
    /// tracing**: `requests[v]` is the serving-layer id of vector `v`. The
    /// per-vector kernel passes are annotated with their request id (so
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
        assert!(self.use_plan, "sttsv_multi_requests requires the plan path (with_plan)");
        assert_eq!(my_shards.len(), requests.len(), "one request id per vector");
        let batch = my_shards.len();
        let start_ns = comm.elapsed_ns();
        if batch == 0 {
            return (Vec::new(), 0, BatchSpans::empty(start_ns));
        }
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        plan.ensure_capacity(&mut ws, batch);
        for (v, shards) in my_shards.iter().enumerate() {
            plan.load_shards(&mut ws, v, shards);
        }
        let gather_t0 = comm.elapsed_ns();
        comm.with_phase("gather-x", || {
            self.plan_exchange(comm, plan, &mut ws, TAG_X, ExchangeKind::Gather, batch)
        });
        let gather_ns = comm.elapsed_ns().saturating_sub(gather_t0);
        let mut compute_ns = Vec::with_capacity(batch);
        let ternary = comm.with_phase("local-compute", || {
            let mut total = 0u64;
            for (v, &request) in requests.iter().enumerate() {
                // One request-annotated `compute:kernel` span per vector:
                // the span's flight records (and any trace events inside)
                // carry the request id, as do the pool's workspace leases.
                comm.annotate_request(request);
                if let Some(pool) = self.pool {
                    pool.workspaces().set_request(request);
                }
                let t0 = comm.elapsed_ns();
                total += comm
                    .with_phase("compute:kernel", || plan.compute_vector(&mut ws, v, self.pool));
                compute_ns.push(comm.elapsed_ns().saturating_sub(t0));
                if let Some(pool) = self.pool {
                    pool.workspaces().clear_request();
                }
                comm.clear_request();
            }
            comm.annotate_counter("plan:arena_bytes", plan.arena_bytes() as u64);
            comm.annotate_counter("plan:fresh_allocs", ws.fresh_allocs());
            total
        });
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
        assert!(self.use_plan, "sttsv_serve_pipelined requires the plan path (with_plan)");
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
            let batch = shards.len();
            plan.ensure_capacity(ws, batch);
            for (v, s) in shards.iter().enumerate() {
                plan.load_shards(ws, v, s);
            }
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
            let mut compute_ns = Vec::with_capacity(batch);
            let ternary = comm.with_phase("local-compute", || {
                let mut total = 0u64;
                for (v, &request) in ids.iter().enumerate() {
                    comm.annotate_request(request);
                    if let Some(pool) = self.pool {
                        pool.workspaces().set_request(request);
                    }
                    let t0 = comm.elapsed_ns();
                    total += comm.with_phase("compute:kernel", || {
                        plan.compute_vector(&mut wss[cur], v, self.pool)
                    });
                    compute_ns.push(comm.elapsed_ns().saturating_sub(t0));
                    if let Some(pool) = self.pool {
                        pool.workspaces().clear_request();
                    }
                    comm.clear_request();
                }
                comm.annotate_counter("plan:arena_bytes", plan.arena_bytes() as u64);
                comm.annotate_counter("plan:fresh_allocs", wss[cur].fresh_allocs());
                total
            });
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

    /// One **overlapped** distributed STTSV through the compiled plan:
    /// same wire format, word/message/round counts and output bits as
    /// [`RankContext::sttsv`] on the plan path, but communication and
    /// computation are pipelined — owned-only blocks run while the gather
    /// messages are in flight, each dependency group runs the moment its
    /// last x piece lands (drained in arrival order via
    /// [`Comm::recv_any`]), and finalized scatter-y contributions flush
    /// early in scheduled mode. Requires [`RankContext::with_plan`].
    pub fn sttsv_overlapped(&self, comm: &Comm, my_shards: &[Vec<f64>]) -> (Vec<Vec<f64>>, u64) {
        assert!(self.use_plan, "sttsv_overlapped requires the plan path (with_plan)");
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        plan.ensure_capacity(&mut ws, 1);
        plan.load_shards(&mut ws, 0, my_shards);
        let ternary = self.run_plan_overlapped(comm, plan, &mut ws, 1);
        (plan.extract(&ws, 0), ternary)
    }

    /// Batched form of [`RankContext::sttsv_overlapped`]: the whole batch
    /// moves through one overlapped exchange pair, bit-identical to
    /// [`RankContext::sttsv_multi`] on the plan path.
    pub fn sttsv_multi_overlapped(
        &self,
        comm: &Comm,
        my_shards: &[Vec<Vec<f64>>],
    ) -> (Vec<Vec<Vec<f64>>>, u64) {
        assert!(self.use_plan, "sttsv_multi_overlapped requires the plan path (with_plan)");
        if my_shards.is_empty() {
            return (Vec::new(), 0);
        }
        let batch = my_shards.len();
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        plan.ensure_capacity(&mut ws, batch);
        for (v, shards) in my_shards.iter().enumerate() {
            plan.load_shards(&mut ws, v, shards);
        }
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
                        comm.annotate_counter("plan:arena_bytes", plan.arena_bytes() as u64);
                        comm.annotate_counter("plan:fresh_allocs", ws.fresh_allocs());
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
                        comm.annotate_counter("plan:arena_bytes", plan.arena_bytes() as u64);
                        comm.annotate_counter("plan:fresh_allocs", ws.fresh_allocs());
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

    /// The plan path's exchange: mirrors [`RankContext::exchange_phase`]
    /// round for round and byte for byte, but packs from / unpacks into
    /// the flat slabs using the precompiled piece layouts, with message
    /// buffers drawn from (and recycled into) the workspace free list.
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

    /// Shared machinery for both vector phases: for every peer sharing row
    /// blocks with this rank, send the packed pieces (one per shared block,
    /// ascending) and apply `unpack` to the received pieces.
    ///
    /// `pack(i, t, peer)` produces the outgoing piece for shared row block
    /// `i` (`t` = its position in `R_p`). `unpack(i, t, peer)` returns the
    /// expected piece length and a closure applying it to `state`. `width`
    /// is the number of vector columns moved together (1 for STTSV, `r`
    /// for MTTKRP) — it scales the padded-mode uniform message size.
    #[allow(clippy::type_complexity, clippy::needless_lifetimes)]
    pub(crate) fn exchange_phase<'s>(
        &'s self,
        comm: &Comm,
        tag_base: u64,
        width: usize,
        pack: impl Fn(usize, usize, usize) -> Vec<f64>,
        unpack: impl Fn(usize, usize, usize) -> (usize, Box<dyn FnOnce(&mut [Vec<f64>], &[f64]) + 's>),
        state: &mut [Vec<f64>],
    ) {
        let part = self.part;
        let p = comm.rank();
        let rp = part.r_set(p);
        let pos_of = |i: usize| rp.binary_search(&i).unwrap();

        let pack_for = |peer: usize| -> Vec<f64> {
            let mut buf = Vec::new();
            for i in shared_row_blocks(part, p, peer) {
                buf.extend_from_slice(&pack(i, pos_of(i), peer));
            }
            buf
        };
        let unpack_from = |peer: usize, buf: &[f64], state: &mut [Vec<f64>]| {
            let mut offset = 0;
            for i in shared_row_blocks(part, p, peer) {
                let (len, apply) = unpack(i, pos_of(i), peer);
                apply(state, &buf[offset..offset + len]);
                offset += len;
            }
        };

        match self.mode {
            Mode::Scheduled => {
                let schedule = self.schedule.expect("scheduled mode requires a schedule");
                for (round, act) in schedule.actions(p).iter().enumerate() {
                    comm.annotate_round(round as u64);
                    if let Some(dst) = act.send_to {
                        comm.send(dst, tag_base + round as u64, pack_for(dst));
                    }
                    if let Some(src) = act.recv_from {
                        let buf = comm
                            .recv(src, tag_base + round as u64)
                            .expect("scheduled exchange failed");
                        unpack_from(src, &buf, state);
                    }
                    if act.send_to.is_some() || act.recv_from.is_some() {
                        comm.count_round();
                    }
                }
                comm.clear_round();
            }
            Mode::AllToAllPadded | Mode::AllToAllSparse => {
                let p_count = part.num_procs();
                // Uniform message size for the padded (MPI_Alltoall) mode:
                // two shards of the largest shard size (a pair of processors
                // shares at most two row blocks).
                let pad_len = 2 * width * part.block_size().div_ceil(part.lambda1());
                let mut sendbufs: Vec<Vec<f64>> = (0..p_count)
                    .map(|peer| {
                        if peer == p {
                            return Vec::new();
                        }
                        let mut buf = pack_for(peer);
                        if self.mode == Mode::AllToAllPadded {
                            debug_assert!(buf.len() <= pad_len);
                            buf.resize(pad_len, 0.0);
                        }
                        buf
                    })
                    .collect();
                sendbufs[p] = Vec::new();
                let recvd = comm.all_to_all_v(sendbufs).expect("all-to-all failed");
                for (peer, buf) in recvd.iter().enumerate() {
                    if peer != p {
                        unpack_from(peer, buf, state);
                    }
                }
            }
        }
    }
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

/// Runs Algorithm 5 on the simulated machine: one thread per processor,
/// with the tensor blocks extracted per-rank (never communicated) and the
/// input/output vectors distributed per Section 6.1.2.
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
    let (run, _traces, _flight) = run_sttsv(tensor, part, x, mode, false);
    run
}

/// Like [`parallel_sttsv`] but with per-rank event tracing enabled: also
/// returns each rank's full [`CommEvent`] log (phase-annotated sends/recvs,
/// round annotations from the scheduled exchanges), ready for the
/// `symtensor-obs` exporters. The [`CostReport`] is identical to the
/// untraced run — tracing never touches the counters.
pub fn parallel_sttsv_traced(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
) -> (SttsvRun, Vec<Vec<CommEvent>>) {
    let (run, traces, _flight) = run_sttsv(tensor, part, x, mode, true);
    (run, traces)
}

/// [`parallel_sttsv_traced`] plus each rank's **flight-recorder window**:
/// the always-on bounded ring of delta-encoded send/recv/phase records the
/// runtime keeps regardless of tracing. The snapshots feed the
/// `symtensor-obs` flight exporters (`--flight` in the CLI); results and
/// the [`CostReport`] are identical to the untraced run.
pub fn parallel_sttsv_traced_flight(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
) -> (SttsvRun, Vec<Vec<CommEvent>>, Vec<FlightSnapshot>) {
    run_sttsv(tensor, part, x, mode, true)
}

fn run_sttsv(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    traced: bool,
) -> (SttsvRun, Vec<Vec<CommEvent>>, Vec<FlightSnapshot>) {
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    assert_eq!(x.len(), n);
    let p_count = part.num_procs();
    let schedule = if mode == Mode::Scheduled { Some(CommSchedule::build(part)) } else { None };

    let rank_main = |comm: &Comm| {
        let p = comm.rank();
        let ctx = RankContext::new(tensor, part, p, mode, schedule.as_ref());
        let my_shards: Vec<Vec<f64>> = part
            .r_set(p)
            .iter()
            .map(|&i| {
                let block = &x[part.block_range(i)];
                block[part.shard_range(i, p)].to_vec()
            })
            .collect();
        ctx.sttsv(comm, &my_shards)
    };
    let universe = Universe::new(p_count);
    let (rank_results, report, traces, flight) = if traced {
        universe.run_traced_flight(rank_main)
    } else {
        let (results, report) = universe.run(rank_main);
        (results, report, Vec::new(), Vec::new())
    };

    let mut y = vec![0.0; n];
    let mut ternary_per_rank = Vec::with_capacity(p_count);
    for (p, (shards, ternary)) in rank_results.into_iter().enumerate() {
        ternary_per_rank.push(ternary);
        for (t, &i) in part.r_set(p).iter().enumerate() {
            let global = part.block_range(i);
            let local = part.shard_range(i, p);
            y[global.start + local.start..global.start + local.end].copy_from_slice(&shards[t]);
        }
    }
    (SttsvRun { y, report, ternary_per_rank }, traces, flight)
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

/// Runs [`RankContext::sttsv_multi`] on the simulated machine: all `B`
/// contractions share one pair of exchange phases, so each rank's message
/// and round counts equal a **single** STTSV while words scale with `B`.
///
/// `threads > 1` additionally attaches a [`Pool`] per rank so the
/// local-compute phase runs [`OwnedBlocks::compute_par`]
/// (results bit-identical to the sequential kernels across thread counts).
///
/// [`OwnedBlocks::compute_par`]: crate::blocks::OwnedBlocks::compute_par
pub fn parallel_sttsv_multi(
    tensor: &SymTensor3,
    part: &TetraPartition,
    xs: &[Vec<f64>],
    mode: Mode,
    threads: usize,
) -> SttsvMultiRun {
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    for (v, x) in xs.iter().enumerate() {
        assert_eq!(x.len(), n, "vector {v} has wrong dimension");
    }
    let p_count = part.num_procs();
    let schedule = if mode == Mode::Scheduled { Some(CommSchedule::build(part)) } else { None };

    let rank_main = |comm: &Comm| {
        let p = comm.rank();
        let pool = (threads > 1).then(|| Pool::new(threads));
        let mut ctx = RankContext::new(tensor, part, p, mode, schedule.as_ref());
        if let Some(pool) = pool.as_ref() {
            ctx = ctx.with_pool(pool);
        }
        let my_shards: Vec<Vec<Vec<f64>>> = xs
            .iter()
            .map(|x| {
                part.r_set(p)
                    .iter()
                    .map(|&i| {
                        let block = &x[part.block_range(i)];
                        block[part.shard_range(i, p)].to_vec()
                    })
                    .collect()
            })
            .collect();
        ctx.sttsv_multi(comm, &my_shards)
    };
    let universe = Universe::new(p_count);
    let (rank_results, report) = universe.run(rank_main);

    let mut ys = vec![vec![0.0; n]; xs.len()];
    let mut ternary_per_rank = Vec::with_capacity(p_count);
    for (p, (shard_sets, ternary)) in rank_results.into_iter().enumerate() {
        ternary_per_rank.push(ternary);
        for (v, shards) in shard_sets.into_iter().enumerate() {
            for (t, &i) in part.r_set(p).iter().enumerate() {
                let global = part.block_range(i);
                let local = part.shard_range(i, p);
                ys[v][global.start + local.start..global.start + local.end]
                    .copy_from_slice(&shards[t]);
            }
        }
    }
    SttsvMultiRun { ys, report, ternary_per_rank }
}

/// Like [`parallel_sttsv`] but with a node-level worker pool of `threads`
/// threads attached to every rank: the distributed algorithm (and its
/// communication costs) are unchanged, while each rank's local-compute
/// phase runs the work-stealing block kernels. Results are bit-identical
/// to [`parallel_sttsv`] for every thread count.
pub fn parallel_sttsv_mt(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    threads: usize,
) -> SttsvRun {
    if threads <= 1 {
        return parallel_sttsv(tensor, part, x, mode);
    }
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    assert_eq!(x.len(), n);
    let p_count = part.num_procs();
    let schedule = if mode == Mode::Scheduled { Some(CommSchedule::build(part)) } else { None };

    let rank_main = |comm: &Comm| {
        let p = comm.rank();
        let pool = Pool::new(threads);
        let ctx = RankContext::new(tensor, part, p, mode, schedule.as_ref()).with_pool(&pool);
        let my_shards: Vec<Vec<f64>> = part
            .r_set(p)
            .iter()
            .map(|&i| {
                let block = &x[part.block_range(i)];
                block[part.shard_range(i, p)].to_vec()
            })
            .collect();
        ctx.sttsv(comm, &my_shards)
    };
    let universe = Universe::new(p_count);
    let (rank_results, report) = universe.run(rank_main);

    let mut y = vec![0.0; n];
    let mut ternary_per_rank = Vec::with_capacity(p_count);
    for (p, (shards, ternary)) in rank_results.into_iter().enumerate() {
        ternary_per_rank.push(ternary);
        for (t, &i) in part.r_set(p).iter().enumerate() {
            let global = part.block_range(i);
            let local = part.shard_range(i, p);
            y[global.start + local.start..global.start + local.end].copy_from_slice(&shards[t]);
        }
    }
    SttsvRun { y, report, ternary_per_rank }
}

/// Like [`parallel_sttsv_mt`] but routed through the **compiled rank
/// plan** ([`RankContext::with_plan`]): each rank compiles its plan on the
/// first call and the steady state is allocation-free. Results (values,
/// ternary counts, and the full [`CostReport`]) are bit-identical to the
/// legacy drivers for every mode and thread count.
pub fn parallel_sttsv_planned(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    threads: usize,
) -> SttsvRun {
    let (run, _traces) = run_sttsv_planned(tensor, part, x, mode, threads, false);
    run
}

/// Like [`parallel_sttsv_planned`] but with per-rank event tracing enabled,
/// so compiled-plan runs feed the same `symtensor-obs` profiling pipeline
/// (replay, critical path, comm matrix) as the legacy drivers. The
/// [`CostReport`] and results are identical to the untraced planned run.
pub fn parallel_sttsv_planned_traced(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    threads: usize,
) -> (SttsvRun, Vec<Vec<CommEvent>>) {
    run_sttsv_planned(tensor, part, x, mode, threads, true)
}

fn run_sttsv_planned(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    threads: usize,
    traced: bool,
) -> (SttsvRun, Vec<Vec<CommEvent>>) {
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    assert_eq!(x.len(), n);
    let p_count = part.num_procs();
    let schedule = if mode == Mode::Scheduled { Some(CommSchedule::build(part)) } else { None };

    let rank_main = |comm: &Comm| {
        let p = comm.rank();
        let pool = (threads > 1).then(|| Pool::new(threads));
        let mut ctx = RankContext::new(tensor, part, p, mode, schedule.as_ref()).with_plan();
        if let Some(pool) = pool.as_ref() {
            ctx = ctx.with_pool(pool);
        }
        let my_shards: Vec<Vec<f64>> = part
            .r_set(p)
            .iter()
            .map(|&i| {
                let block = &x[part.block_range(i)];
                block[part.shard_range(i, p)].to_vec()
            })
            .collect();
        ctx.sttsv(comm, &my_shards)
    };
    let universe = Universe::new(p_count);
    let (rank_results, report, traces) = if traced {
        universe.run_traced(rank_main)
    } else {
        let (results, report) = universe.run(rank_main);
        (results, report, Vec::new())
    };

    let mut y = vec![0.0; n];
    let mut ternary_per_rank = Vec::with_capacity(p_count);
    for (p, (shards, ternary)) in rank_results.into_iter().enumerate() {
        ternary_per_rank.push(ternary);
        for (t, &i) in part.r_set(p).iter().enumerate() {
            let global = part.block_range(i);
            let local = part.shard_range(i, p);
            y[global.start + local.start..global.start + local.end].copy_from_slice(&shards[t]);
        }
    }
    (SttsvRun { y, report, ternary_per_rank }, traces)
}

/// [`parallel_sttsv_multi`] routed through the compiled rank plan — the
/// high-throughput serving configuration: blocks packed once into the
/// arena (by the batch's second vector), the whole batch moving through
/// one exchange-phase pair. Bit-identical to [`parallel_sttsv_multi`].
pub fn parallel_sttsv_multi_planned(
    tensor: &SymTensor3,
    part: &TetraPartition,
    xs: &[Vec<f64>],
    mode: Mode,
    threads: usize,
) -> SttsvMultiRun {
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    for (v, x) in xs.iter().enumerate() {
        assert_eq!(x.len(), n, "vector {v} has wrong dimension");
    }
    let p_count = part.num_procs();
    let schedule = if mode == Mode::Scheduled { Some(CommSchedule::build(part)) } else { None };

    let rank_main = |comm: &Comm| {
        let p = comm.rank();
        let pool = (threads > 1).then(|| Pool::new(threads));
        let mut ctx = RankContext::new(tensor, part, p, mode, schedule.as_ref()).with_plan();
        if let Some(pool) = pool.as_ref() {
            ctx = ctx.with_pool(pool);
        }
        let my_shards: Vec<Vec<Vec<f64>>> = xs
            .iter()
            .map(|x| {
                part.r_set(p)
                    .iter()
                    .map(|&i| {
                        let block = &x[part.block_range(i)];
                        block[part.shard_range(i, p)].to_vec()
                    })
                    .collect()
            })
            .collect();
        ctx.sttsv_multi(comm, &my_shards)
    };
    let universe = Universe::new(p_count);
    let (rank_results, report) = universe.run(rank_main);

    let mut ys = vec![vec![0.0; n]; xs.len()];
    let mut ternary_per_rank = Vec::with_capacity(p_count);
    for (p, (shard_sets, ternary)) in rank_results.into_iter().enumerate() {
        ternary_per_rank.push(ternary);
        for (v, shards) in shard_sets.into_iter().enumerate() {
            for (t, &i) in part.r_set(p).iter().enumerate() {
                let global = part.block_range(i);
                let local = part.shard_range(i, p);
                ys[v][global.start + local.start..global.start + local.end]
                    .copy_from_slice(&shards[t]);
            }
        }
    }
    SttsvMultiRun { ys, report, ternary_per_rank }
}

/// [`parallel_sttsv_planned`] with the **overlapped exchange** engine:
/// owned-only blocks compute while gather-x messages are still in flight,
/// dependency groups fire as each peer's piece lands, and (in scheduled
/// mode) finished y rows flush their reduce contributions early. Values,
/// ternary counts, and the full [`CostReport`] are bit-identical to the
/// barrier-planned run — only event *timing* differs.
pub fn parallel_sttsv_overlapped(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    threads: usize,
) -> SttsvRun {
    let (run, _traces) = run_sttsv_overlapped(tensor, part, x, mode, threads, false);
    run
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
    run_sttsv_overlapped(tensor, part, x, mode, threads, true)
}

fn run_sttsv_overlapped(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
    threads: usize,
    traced: bool,
) -> (SttsvRun, Vec<Vec<CommEvent>>) {
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    assert_eq!(x.len(), n);
    let p_count = part.num_procs();
    let schedule = if mode == Mode::Scheduled { Some(CommSchedule::build(part)) } else { None };

    let rank_main = |comm: &Comm| {
        let p = comm.rank();
        let pool = (threads > 1).then(|| Pool::new(threads));
        let mut ctx = RankContext::new(tensor, part, p, mode, schedule.as_ref()).with_plan();
        if let Some(pool) = pool.as_ref() {
            ctx = ctx.with_pool(pool);
        }
        let my_shards: Vec<Vec<f64>> = part
            .r_set(p)
            .iter()
            .map(|&i| {
                let block = &x[part.block_range(i)];
                block[part.shard_range(i, p)].to_vec()
            })
            .collect();
        ctx.sttsv_overlapped(comm, &my_shards)
    };
    let universe = Universe::new(p_count);
    let (rank_results, report, traces) = if traced {
        universe.run_traced(rank_main)
    } else {
        let (results, report) = universe.run(rank_main);
        (results, report, Vec::new())
    };

    let mut y = vec![0.0; n];
    let mut ternary_per_rank = Vec::with_capacity(p_count);
    for (p, (shards, ternary)) in rank_results.into_iter().enumerate() {
        ternary_per_rank.push(ternary);
        for (t, &i) in part.r_set(p).iter().enumerate() {
            let global = part.block_range(i);
            let local = part.shard_range(i, p);
            y[global.start + local.start..global.start + local.end].copy_from_slice(&shards[t]);
        }
    }
    (SttsvRun { y, report, ternary_per_rank }, traces)
}

/// [`parallel_sttsv_multi_planned`] with the overlapped exchange engine:
/// the whole batch pipelines through one dependency-driven gather /
/// compute / reduce pass per rank. Bit-identical to the barrier-planned
/// multi-vector run.
pub fn parallel_sttsv_multi_overlapped(
    tensor: &SymTensor3,
    part: &TetraPartition,
    xs: &[Vec<f64>],
    mode: Mode,
    threads: usize,
) -> SttsvMultiRun {
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    for (v, x) in xs.iter().enumerate() {
        assert_eq!(x.len(), n, "vector {v} has wrong dimension");
    }
    let p_count = part.num_procs();
    let schedule = if mode == Mode::Scheduled { Some(CommSchedule::build(part)) } else { None };

    let rank_main = |comm: &Comm| {
        let p = comm.rank();
        let pool = (threads > 1).then(|| Pool::new(threads));
        let mut ctx = RankContext::new(tensor, part, p, mode, schedule.as_ref()).with_plan();
        if let Some(pool) = pool.as_ref() {
            ctx = ctx.with_pool(pool);
        }
        let my_shards: Vec<Vec<Vec<f64>>> = xs
            .iter()
            .map(|x| {
                part.r_set(p)
                    .iter()
                    .map(|&i| {
                        let block = &x[part.block_range(i)];
                        block[part.shard_range(i, p)].to_vec()
                    })
                    .collect()
            })
            .collect();
        ctx.sttsv_multi_overlapped(comm, &my_shards)
    };
    let universe = Universe::new(p_count);
    let (rank_results, report) = universe.run(rank_main);

    let mut ys = vec![vec![0.0; n]; xs.len()];
    let mut ternary_per_rank = Vec::with_capacity(p_count);
    for (p, (shard_sets, ternary)) in rank_results.into_iter().enumerate() {
        ternary_per_rank.push(ternary);
        for (v, shards) in shard_sets.into_iter().enumerate() {
            for (t, &i) in part.r_set(p).iter().enumerate() {
                let global = part.block_range(i);
                let local = part.shard_range(i, p);
                ys[v][global.start + local.start..global.start + local.end]
                    .copy_from_slice(&shards[t]);
            }
        }
    }
    SttsvMultiRun { ys, report, ternary_per_rank }
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
        let pooled = parallel_sttsv_mt(&tensor, &part, &x, Mode::Scheduled, 2);
        for threads in [2usize, 4, 8] {
            let run = parallel_sttsv_mt(&tensor, &part, &x, Mode::Scheduled, threads);
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
