//! The higher-order power method on distributed vectors, with the
//! communication-optimal STTSV kernel inside (Algorithm 1 of the paper,
//! whose per-iteration bottleneck is exactly the computation this library
//! optimizes).
//!
//! `x` and `y` stay distributed in the tetrahedral shard layout across
//! iterations; each iteration costs one Algorithm-5 STTSV plus two small
//! all-reduces (norm/Rayleigh-quotient scalars and the convergence test).

use crate::algorithm5::{Mode, RankContext};
use crate::partition::TetraPartition;
use crate::schedule::CommSchedule;
use symtensor_core::hopm::{HopmOptions, HopmResult};
use symtensor_core::seq::OpCount;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{Comm, CostReport, Universe};

/// Runs HOPM on the simulated machine. Returns the result (assembled on the
/// driver) plus the full communication report.
pub fn parallel_hopm(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x0: &[f64],
    opts: HopmOptions,
    mode: Mode,
) -> (HopmResult, CostReport) {
    parallel_shifted_hopm(tensor, part, x0, 0.0, opts, mode)
}

/// Shifted symmetric HOPM (S-HOPM) on the simulated machine: iterates with
/// `𝓐 ×₂ x ×₃ x + α·x`, which is guaranteed monotone for a large enough
/// shift `α` even on indefinite tensors. `α = 0` recovers plain HOPM.
pub fn parallel_shifted_hopm(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x0: &[f64],
    alpha: f64,
    opts: HopmOptions,
    mode: Mode,
) -> (HopmResult, CostReport) {
    parallel_shifted_hopm_mt(tensor, part, x0, alpha, opts, mode, 1)
}

/// [`parallel_shifted_hopm`] with a node-level worker pool of `threads`
/// threads per rank for the local-compute phase of every STTSV iteration
/// (see [`RankContext::with_pool`]); `threads ≤ 1` runs the sequential
/// kernels. The distributed algorithm and its communication costs are
/// unchanged, and the pooled kernels are bit-identical across thread
/// counts, so the iteration trajectory does not depend on `threads` beyond
/// the pooled-vs-sequential reduction order.
#[allow(clippy::too_many_arguments)]
pub fn parallel_shifted_hopm_mt(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x0: &[f64],
    alpha: f64,
    opts: HopmOptions,
    mode: Mode,
    threads: usize,
) -> (HopmResult, CostReport) {
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    assert_eq!(x0.len(), n);
    let p_count = part.num_procs();
    let schedule = if mode == Mode::Scheduled { Some(CommSchedule::build(part)) } else { None };

    let (rank_results, report) = Universe::new(p_count).run(|comm| {
        let p = comm.rank();
        let pool = (threads > 1).then(|| symtensor_pool::Pool::new(threads));
        let mut ctx = RankContext::new(tensor, part, p, mode, schedule.as_ref());
        if let Some(pool) = pool.as_ref() {
            ctx = ctx.with_pool(pool);
        }
        let my_shards: Vec<Vec<f64>> = part
            .r_set(p)
            .iter()
            .map(|&i| {
                let block = &x0[part.block_range(i)];
                block[part.shard_range(i, p)].to_vec()
            })
            .collect();
        rank_hopm(comm, &ctx, my_shards, alpha, opts)
    });

    // Assemble x from the rank shards; scalars agree on all ranks.
    let mut x = vec![0.0; n];
    let mut lambda = 0.0;
    let mut iters = 0;
    let mut converged = false;
    let mut residual = 0.0;
    // Machine-wide work: sum of per-rank §7.1 ternary-multiplication
    // counts. (The distributed kernel does not track iteration-space
    // points, so `ops.points` stays 0; the parallel residual comes from
    // scalar all-reduces, not an extra STTSV, so no final-call term.)
    let mut ops = OpCount::default();
    for (p, out) in rank_results.into_iter().enumerate() {
        lambda = out.lambda;
        iters = out.iters;
        converged = out.converged;
        residual = out.residual;
        ops.ternary_mults += out.ternary;
        for (t, &i) in part.r_set(p).iter().enumerate() {
            let global = part.block_range(i);
            let local = part.shard_range(i, p);
            x[global.start + local.start..global.start + local.end]
                .copy_from_slice(&out.x_shards[t]);
        }
    }
    (HopmResult { lambda, x, iters, converged, residual, ops }, report)
}

/// [`parallel_shifted_hopm_mt`] running on compiled rank plans
/// ([`RankContext::with_plan`]): each rank compiles its plan once, before
/// the first iteration; the first STTSV reads the tensor rows in place, the
/// second builds the rank's arena, and every later STTSV runs
/// allocation-free over it and preallocated flat slabs. The iteration
/// trajectory is bit-identical to the legacy path at every thread count;
/// only the steady-state memory behaviour changes.
#[allow(clippy::too_many_arguments)]
pub fn parallel_shifted_hopm_planned(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x0: &[f64],
    alpha: f64,
    opts: HopmOptions,
    mode: Mode,
    threads: usize,
) -> (HopmResult, CostReport) {
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    assert_eq!(x0.len(), n);
    let p_count = part.num_procs();
    let schedule = if mode == Mode::Scheduled { Some(CommSchedule::build(part)) } else { None };

    let (rank_results, report) = Universe::new(p_count).run(|comm| {
        let p = comm.rank();
        let pool = (threads > 1).then(|| symtensor_pool::Pool::new(threads));
        let mut ctx = RankContext::new(tensor, part, p, mode, schedule.as_ref()).with_plan();
        if let Some(pool) = pool.as_ref() {
            ctx = ctx.with_pool(pool);
        }
        let my_shards: Vec<Vec<f64>> = part
            .r_set(p)
            .iter()
            .map(|&i| {
                let block = &x0[part.block_range(i)];
                block[part.shard_range(i, p)].to_vec()
            })
            .collect();
        rank_hopm(comm, &ctx, my_shards, alpha, opts)
    });

    let mut x = vec![0.0; n];
    let mut lambda = 0.0;
    let mut iters = 0;
    let mut converged = false;
    let mut residual = 0.0;
    let mut ops = OpCount::default();
    for (p, out) in rank_results.into_iter().enumerate() {
        lambda = out.lambda;
        iters = out.iters;
        converged = out.converged;
        residual = out.residual;
        ops.ternary_mults += out.ternary;
        for (t, &i) in part.r_set(p).iter().enumerate() {
            let global = part.block_range(i);
            let local = part.shard_range(i, p);
            x[global.start + local.start..global.start + local.end]
                .copy_from_slice(&out.x_shards[t]);
        }
    }
    (HopmResult { lambda, x, iters, converged, residual, ops }, report)
}

/// Per-rank HOPM state returned to the driver.
struct RankHopmOut {
    x_shards: Vec<Vec<f64>>,
    lambda: f64,
    iters: usize,
    converged: bool,
    residual: f64,
    /// Ternary multiplications this rank performed across all iterations.
    ternary: u64,
}

fn rank_hopm(
    comm: &Comm,
    ctx: &RankContext<'_>,
    mut x_shards: Vec<Vec<f64>>,
    alpha: f64,
    opts: HopmOptions,
) -> RankHopmOut {
    // Normalize the start vector globally.
    let local_sq: f64 = x_shards.iter().flatten().map(|&v| v * v).sum();
    let norm0 = comm.all_reduce(vec![local_sq]).expect("norm all-reduce")[0].sqrt();
    assert!(norm0 > 0.0, "start vector must be nonzero");
    for shard in &mut x_shards {
        for v in shard.iter_mut() {
            *v /= norm0;
        }
    }

    let mut lambda = 0.0;
    let mut residual = 0.0;
    let mut iters = 0;
    let mut converged = false;
    let mut ternary = 0u64;
    while iters < opts.max_iters {
        let (mut y_raw, count) = ctx.sttsv(comm, &x_shards);
        ternary += count;
        // ‖y_raw‖² and xᵀy_raw before shifting (for λ and the residual).
        let raw_sq: f64 = y_raw.iter().flatten().map(|&v| v * v).sum();
        let x_dot_raw: f64 =
            x_shards.iter().flatten().zip(y_raw.iter().flatten()).map(|(&a, &b)| a * b).sum();
        // Shifted iterate y = A·x·x + α·x.
        if alpha != 0.0 {
            for (shard, xs) in y_raw.iter_mut().zip(&x_shards) {
                for (v, &xv) in shard.iter_mut().zip(xs) {
                    *v += alpha * xv;
                }
            }
        }
        let shift_sq: f64 = y_raw.iter().flatten().map(|&v| v * v).sum();
        // Stage 1: all three scalars in one all-reduce.
        let global =
            comm.all_reduce(vec![shift_sq, x_dot_raw, raw_sq]).expect("stage-1 all-reduce");
        let y_norm = global[0].sqrt();
        lambda = global[1]; // ‖x‖ = 1, so xᵀ(Axx) is the Rayleigh quotient.
        residual = (global[2] - lambda * lambda).max(0.0).sqrt();
        if y_norm == 0.0 {
            break;
        }
        // Normalize y and measure the sign-aligned step.
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
        let diffs = comm.all_reduce(vec![diff_pos, diff_neg]).expect("stage-2 all-reduce");
        let diff = diffs[0].min(diffs[1]).sqrt();
        x_shards = new_shards;
        iters += 1;
        if diff < opts.tol {
            converged = true;
            break;
        }
    }
    RankHopmOut { x_shards, lambda, iters, converged, residual, ternary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor_core::generate::random_odeco;
    use symtensor_core::hopm::hopm;
    use symtensor_core::ops::dot;
    use symtensor_steiner::spherical;

    #[test]
    fn parallel_hopm_matches_sequential_on_odeco() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(91);
        let odeco = random_odeco(n, 3, &mut rng);
        let mut x0 = odeco.vectors[0].clone();
        x0[2] += 0.05;
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        let (par, report) = parallel_hopm(&odeco.tensor, &part, &x0, opts, Mode::Scheduled);
        let seq = hopm(&odeco.tensor, &x0, opts);
        assert!(par.converged);
        assert!((par.lambda - seq.lambda).abs() < 1e-8, "{} vs {}", par.lambda, seq.lambda);
        assert!((par.lambda - odeco.eigenvalues[0]).abs() < 1e-8);
        let align = dot(&par.x, &odeco.vectors[0]).abs();
        assert!(align > 1.0 - 1e-8);
        assert!(par.residual < 1e-8);
        // Communication happened on every rank.
        assert!(report.bandwidth_cost() > 0);
    }

    #[test]
    fn parallel_hopm_all_to_all_mode() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(92);
        let odeco = random_odeco(n, 2, &mut rng);
        let mut x0 = odeco.vectors[0].clone();
        x0[1] += 0.1;
        let opts = HopmOptions::default();
        let (par, _) = parallel_hopm(&odeco.tensor, &part, &x0, opts, Mode::AllToAllPadded);
        assert!(par.converged);
        assert!((par.lambda - odeco.eigenvalues[0]).abs() < 1e-8);
    }

    #[test]
    fn shifted_parallel_hopm_matches_sequential_on_indefinite_tensor() {
        use symtensor_core::generate::random_symmetric;
        use symtensor_core::hopm::{safe_shift, shifted_hopm};
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(94);
        let tensor = random_symmetric(n, &mut rng);
        let x0: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.37).sin()).collect();
        let alpha = safe_shift(&tensor);
        let opts = HopmOptions { tol: 1e-13, max_iters: 20000 };
        let seq = shifted_hopm(&tensor, &x0, alpha, opts);
        let (par, _) =
            super::parallel_shifted_hopm(&tensor, &part, &x0, alpha, opts, Mode::Scheduled);
        assert!(par.converged && seq.converged);
        assert!((par.lambda - seq.lambda).abs() < 1e-6, "{} vs {}", par.lambda, seq.lambda);
        assert!(par.residual < 1e-5, "residual {}", par.residual);
    }

    #[test]
    fn ops_count_iterations_times_machine_work() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(95);
        let odeco = random_odeco(n, 3, &mut rng);
        let mut x0 = odeco.vectors[0].clone();
        x0[3] += 0.05;
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        let (par, _) = parallel_hopm(&odeco.tensor, &part, &x0, opts, Mode::Scheduled);
        assert!(par.converged);
        // One Algorithm-5 STTSV per iteration; each costs the sum of the
        // per-rank §7.1 ternary counts.
        let per_call: u64 = (0..part.num_procs()).map(|p| part.ternary_mults(p)).sum();
        assert_eq!(par.ops.ternary_mults, par.iters as u64 * per_call);
        assert_eq!(par.ops.flops(), 3 * par.ops.ternary_mults);
    }

    #[test]
    fn mt_hopm_converges_to_the_same_eigenpair() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(96);
        let odeco = random_odeco(n, 3, &mut rng);
        let mut x0 = odeco.vectors[0].clone();
        x0[2] += 0.05;
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        let (base, base_report) =
            parallel_shifted_hopm(&odeco.tensor, &part, &x0, 0.0, opts, Mode::Scheduled);
        let (mt, mt_report) =
            parallel_shifted_hopm_mt(&odeco.tensor, &part, &x0, 0.0, opts, Mode::Scheduled, 4);
        assert!(mt.converged);
        assert!((mt.lambda - base.lambda).abs() < 1e-10);
        assert_eq!(mt.iters, base.iters);
        // Communication is a function of the partition only, not the pool.
        for (a, b) in base_report.per_rank.iter().zip(&mt_report.per_rank) {
            assert_eq!(a.words_sent, b.words_sent);
            assert_eq!(a.rounds, b.rounds);
        }
    }

    #[test]
    fn planned_hopm_is_bit_identical_to_legacy() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(97);
        let odeco = random_odeco(n, 3, &mut rng);
        let mut x0 = odeco.vectors[0].clone();
        x0[2] += 0.05;
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        for mode in [Mode::Scheduled, Mode::AllToAllSparse, Mode::AllToAllPadded] {
            for threads in [1usize, 3] {
                let (base, base_report) =
                    parallel_shifted_hopm_mt(&odeco.tensor, &part, &x0, 0.0, opts, mode, threads);
                let (plan, plan_report) = parallel_shifted_hopm_planned(
                    &odeco.tensor,
                    &part,
                    &x0,
                    0.0,
                    opts,
                    mode,
                    threads,
                );
                assert_eq!(plan.x, base.x, "{mode:?} t={threads}: trajectory must be bit-equal");
                assert_eq!(plan.lambda.to_bits(), base.lambda.to_bits());
                assert_eq!(plan.iters, base.iters);
                assert_eq!(plan.ops.ternary_mults, base.ops.ternary_mults);
                assert_eq!(plan_report, base_report, "comm counters must not change");
            }
            // The pooled kernels are deterministic in the thread count: any
            // pool size reproduces the same fixed chunk tree.
            let (t2, _) =
                parallel_shifted_hopm_planned(&odeco.tensor, &part, &x0, 0.0, opts, mode, 2);
            let (t3, _) =
                parallel_shifted_hopm_planned(&odeco.tensor, &part, &x0, 0.0, opts, mode, 3);
            assert_eq!(t2.x, t3.x, "{mode:?}: pooled plan runs must not depend on pool size");
        }
    }

    #[test]
    fn unit_norm_output() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(93);
        let odeco = random_odeco(n, 2, &mut rng);
        let (par, _) = parallel_hopm(
            &odeco.tensor,
            &part,
            &odeco.vectors[0].clone(),
            HopmOptions::default(),
            Mode::Scheduled,
        );
        let norm: f64 = par.x.iter().map(|&v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-10);
    }
}
