//! Property tests pinning the compiled-plan path to a reference
//! implementation of the exchange it replaced.
//!
//! The contract of `RankContext::compile` is *bit*-equivalence: for every
//! `(q, n, threads, batch, mode)` the planned STTSV must reproduce the
//! reference result exactly — same floating-point bits, same ternary
//! counts, same per-rank communication counters — and stay within `1e-12`
//! (relative) of the sequential `sttsv_sym` reference.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symtensor_core::generate::random_symmetric;
use symtensor_core::seq::sttsv_sym;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{Comm, Universe};
use symtensor_parallel::blocks::OwnedBlocks;
use symtensor_parallel::schedule::shared_row_blocks;
use symtensor_parallel::{
    parallel_sttsv_multi, parallel_sttsv_planned, CommSchedule, Mode, RankPlan, SttsvMultiRun,
    TetraPartition,
};
use symtensor_pool::Pool;
use symtensor_steiner::spherical;

const MODES: [Mode; 3] = [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse];

/// `(q, n)` pairs satisfying the partition's divisibility requirements —
/// the adversarial axis is the seed/threads/batch/mode space around them.
fn geometry(idx: usize) -> (u64, usize) {
    [(2u64, 30usize), (2, 60), (3, 60)][idx % 3]
}

fn random_vectors(n: usize, batch: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..batch).map(|_| (0..n).map(|_| rng.gen::<f64>() - 0.5).collect()).collect()
}

/// One reference exchange phase: every peer sharing row blocks with this
/// rank gets `pack(state, peer)` and its message is applied with
/// `unpack(state, peer, buf)` — round by round along the schedule, or in
/// one pairwise collective (padded to two shards per vector in
/// [`Mode::AllToAllPadded`]).
#[allow(clippy::too_many_arguments)]
fn reference_exchange<S>(
    comm: &Comm,
    part: &TetraPartition,
    schedule: &CommSchedule,
    mode: Mode,
    tag: u64,
    batch: usize,
    state: &mut S,
    pack: impl Fn(&S, usize) -> Vec<f64>,
    unpack: impl Fn(&mut S, usize, &[f64]),
) {
    let p = comm.rank();
    if mode == Mode::Scheduled {
        for (round, act) in schedule.actions(p).iter().enumerate() {
            let tag = tag + round as u64;
            if let Some(dst) = act.send_to {
                comm.send(dst, tag, pack(state, dst));
            }
            if let Some(src) = act.recv_from {
                unpack(state, src, &comm.recv(src, tag).expect("reference exchange"));
            }
            if act.send_to.is_some() || act.recv_from.is_some() {
                comm.count_round();
            }
        }
        return;
    }
    let pad_len = 2 * batch * part.block_size().div_ceil(part.lambda1());
    let sendbufs = (0..part.num_procs())
        .map(|peer| {
            if peer == p {
                return Vec::new();
            }
            let mut buf = pack(state, peer);
            if mode == Mode::AllToAllPadded {
                buf.resize(pad_len, 0.0);
            }
            buf
        })
        .collect();
    let recvd = comm.all_to_all_v(sendbufs).expect("reference all-to-all");
    for (peer, buf) in recvd.iter().enumerate() {
        if peer != p {
            unpack(state, peer, buf);
        }
    }
}

/// The batched STTSV the compiled plan replaced, kept as a test-only
/// reference: nested per-row-block `Vec` state, one
/// [`OwnedBlocks::compute`] (or `compute_par` on a pool) per vector, and
/// messages carrying, per shared row block (ascending), the batch's pieces
/// back to back. A single vector is a batch of one.
fn reference_multi(
    tensor: &SymTensor3,
    part: &TetraPartition,
    xs: &[Vec<f64>],
    mode: Mode,
    threads: usize,
) -> SttsvMultiRun {
    let (n, b, batch) = (part.dim(), part.block_size(), xs.len());
    let schedule = CommSchedule::build(part);
    let (results, report) = Universe::new(part.num_procs()).run(|comm| {
        let p = comm.rank();
        let rp = part.r_set(p);
        let pos = |i: usize| rp.binary_search(&i).unwrap();
        let pool = (threads > 1).then(|| Pool::new(threads));
        let owned = OwnedBlocks::extract(tensor, part, p);

        // Gather: x_full[v][t] is row block R_p[t] of vector v.
        let mut x_full: Vec<Vec<Vec<f64>>> = xs
            .iter()
            .map(|x| {
                rp.iter()
                    .map(|&i| {
                        let (mine, mut row) = (part.shard_range(i, p), vec![0.0; b]);
                        row[mine.clone()].copy_from_slice(&x[part.block_range(i)][mine]);
                        row
                    })
                    .collect()
            })
            .collect();
        reference_exchange(
            comm,
            part,
            &schedule,
            mode,
            1 << 40,
            batch,
            &mut x_full,
            |x_full, peer| {
                let mut buf = Vec::new();
                for i in shared_row_blocks(part, p, peer) {
                    for x in x_full {
                        buf.extend_from_slice(&x[pos(i)][part.shard_range(i, p)]);
                    }
                }
                buf
            },
            |x_full, peer, buf| {
                let mut offset = 0;
                for i in shared_row_blocks(part, p, peer) {
                    let theirs = part.shard_range(i, peer);
                    for x in x_full.iter_mut() {
                        x[pos(i)][theirs.clone()]
                            .copy_from_slice(&buf[offset..offset + theirs.len()]);
                        offset += theirs.len();
                    }
                }
            },
        );

        // Local compute: one kernel pass per vector.
        let mut ternary = 0;
        let mut y_acc = vec![vec![vec![0.0; b]; rp.len()]; batch];
        for (x, y) in x_full.iter().zip(&mut y_acc) {
            ternary += match &pool {
                Some(pool) => owned.compute_par(x, y, pos, pool),
                None => owned.compute(x, y, pos),
            };
        }

        // Reduce: peers' partials of my shards accumulate onto my own.
        let mut y_out: Vec<Vec<Vec<f64>>> = y_acc
            .iter()
            .map(|y| rp.iter().map(|&i| y[pos(i)][part.shard_range(i, p)].to_vec()).collect())
            .collect();
        reference_exchange(
            comm,
            part,
            &schedule,
            mode,
            2 << 40,
            batch,
            &mut y_out,
            |_, peer| {
                let mut buf = Vec::new();
                for i in shared_row_blocks(part, p, peer) {
                    for y in &y_acc {
                        buf.extend_from_slice(&y[pos(i)][part.shard_range(i, peer)]);
                    }
                }
                buf
            },
            |y_out, peer, buf| {
                let mut offset = 0;
                for i in shared_row_blocks(part, p, peer) {
                    let len = part.shard_range(i, p).len();
                    for y in y_out.iter_mut() {
                        for (acc, &v) in y[pos(i)].iter_mut().zip(&buf[offset..offset + len]) {
                            *acc += v;
                        }
                        offset += len;
                    }
                }
            },
        );
        (y_out, ternary)
    });

    let mut ys = vec![vec![0.0; n]; batch];
    let mut ternary_per_rank = Vec::new();
    for (p, (y_out, ternary)) in results.into_iter().enumerate() {
        ternary_per_rank.push(ternary);
        for (y, shards) in ys.iter_mut().zip(y_out) {
            for (&i, shard) in part.r_set(p).iter().zip(shards) {
                let start = part.block_range(i).start + part.shard_range(i, p).start;
                y[start..start + shard.len()].copy_from_slice(&shard);
            }
        }
    }
    SttsvMultiRun { ys, report, ternary_per_rank }
}

proptest! {
    // Full-universe runs spawn P threads per case; keep the case count low.
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Planned single-vector STTSV is bit-identical to the reference
    /// (same values, ternary counts and communication report) and within
    /// 1e-12 of the sequential kernel.
    #[test]
    fn planned_sttsv_is_bit_identical_to_legacy(
        geom in 0usize..3,
        seed in 0u64..10_000,
        mode_idx in 0usize..3,
        threads in 1usize..4,
    ) {
        let (q, n) = geometry(geom);
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mode = MODES[mode_idx];

        let legacy = reference_multi(&tensor, &part, std::slice::from_ref(&x), mode, threads);
        let planned = parallel_sttsv_planned(&tensor, &part, &x, mode, threads);
        prop_assert_eq!(&planned.y, &legacy.ys[0], "plan must be bit-identical to the reference");
        prop_assert_eq!(&planned.ternary_per_rank, &legacy.ternary_per_rank);
        prop_assert_eq!(&planned.report, &legacy.report);

        let (y_ref, ops) = sttsv_sym(&tensor, &x);
        prop_assert_eq!(
            planned.ternary_per_rank.iter().sum::<u64>(),
            ops.ternary_mults,
            "exact machine-wide ternary count"
        );
        for (i, (yp, yr)) in planned.y.iter().zip(&y_ref).enumerate() {
            prop_assert!(
                (yp - yr).abs() < 1e-12 * (1.0 + yr.abs()),
                "y[{}]: {} vs {}", i, yp, yr
            );
        }
    }

    /// Planned batched STTSV is bit-identical to the reference for every
    /// batch size, and deterministic in the thread count.
    #[test]
    fn planned_multi_is_bit_identical_and_thread_deterministic(
        geom in 0usize..3,
        seed in 0u64..10_000,
        mode_idx in 0usize..3,
        threads in 1usize..4,
        batch in 1usize..5,
    ) {
        let (q, n) = geometry(geom);
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        let xs = random_vectors(n, batch, &mut rng);
        let mode = MODES[mode_idx];

        let legacy = reference_multi(&tensor, &part, &xs, mode, threads);
        let planned = parallel_sttsv_multi(&tensor, &part, &xs, mode, threads);
        prop_assert_eq!(&planned.ys, &legacy.ys, "batched plan must be bit-identical");
        prop_assert_eq!(&planned.ternary_per_rank, &legacy.ternary_per_rank);
        prop_assert_eq!(&planned.report, &legacy.report);

        // Pooled plans are deterministic in the pool size: the chunk tree
        // is fixed by the block count, not the worker count.
        if threads > 1 {
            let other = parallel_sttsv_multi(&tensor, &part, &xs, mode, threads + 1);
            prop_assert_eq!(&other.ys, &planned.ys, "thread count must not change bits");
        }

        for (x, y) in xs.iter().zip(&planned.ys) {
            let (y_ref, _) = sttsv_sym(&tensor, x);
            for (i, (yp, yr)) in y.iter().zip(&y_ref).enumerate() {
                prop_assert!(
                    (yp - yr).abs() < 1e-12 * (1.0 + yr.abs()),
                    "y[{}]: {} vs {}", i, yp, yr
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// The plan's packed-arena compute is bit-identical to
    /// `OwnedBlocks::compute` on every rank, for arbitrary tensors and
    /// gathered inputs — the per-rank pin that makes the full-run
    /// equivalence above hold mode-by-mode.
    #[test]
    fn plan_compute_matches_owned_blocks_bitwise(
        geom in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let (q, n) = geometry(geom);
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        let b = part.block_size();
        for rank in 0..part.num_procs() {
            let rp = part.r_set(rank);
            let owned = OwnedBlocks::extract(&tensor, &part, rank);
            let plan = RankPlan::build(&part, &owned, rank);

            // A full gathered input: one dense row block per owned slot.
            let x_full: Vec<Vec<f64>> =
                (0..rp.len()).map(|_| (0..b).map(|_| rng.gen::<f64>() - 0.5).collect()).collect();

            let mut y_legacy = vec![vec![0.0; b]; rp.len()];
            let row_pos = |i: usize| rp.binary_search(&i).unwrap();
            let t_legacy = owned.compute(&x_full, &mut y_legacy, row_pos);

            // Feed the same gathered state through the flat slabs (the
            // post-gather picture, bypassing the exchange).
            let mut ws = symtensor_parallel::PlanWorkspace::new();
            plan.ensure_capacity(&mut ws, 1);
            plan.load_full(&mut ws, 0, &x_full);
            let t_plan = plan.compute(&mut ws, 1, None);
            prop_assert_eq!(t_plan, t_legacy, "rank {}: ternary counts", rank);
            let y_plan = plan.output_slab(&ws, 0);
            for (t, row) in y_legacy.iter().enumerate() {
                prop_assert_eq!(
                    &y_plan[t * b..(t + 1) * b], row.as_slice(),
                    "rank {} row slot {}: bitwise equal", rank, t
                );
            }
        }
    }
}
