//! Parallel symmetric MTTKRP and the distributed CP gradient — the
//! generalization the paper's Section 8 targets.
//!
//! Mode-1 symmetric MTTKRP `Y_{iℓ} = Σ_{jk} a_{ijk} X_{jℓ} X_{kℓ}` is one
//! STTSV per factor column, so the tetrahedral distribution applies
//! unchanged: it runs as **one batched STTSV** over the `r` columns
//! ([`RankContext::sttsv_multi`]). Every exchange message carries each
//! shared row block's `r` column pieces back to back, so the round
//! structure (and hence the latency cost) is identical to a single STTSV
//! while the bandwidth scales by exactly `r` — the best possible, since
//! each column is an independent STTSV subject to the Theorem 5.2 bound.
//!
//! On top of MTTKRP, [`parallel_cp_gradient`] evaluates the paper's
//! Algorithm 2 (`Y = X·[(XᵀX)∗(XᵀX)] − MTTKRP(𝓐, X)`) with the Gram matrix
//! assembled by an `r²`-word all-reduce of per-rank partial Grams.

use crate::algorithm5::{run_ranks, Mode, RankContext};
use crate::partition::TetraPartition;
use symtensor_core::ops::Matrix;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{Comm, CostReport};

impl RankContext<'_> {
    /// One distributed MTTKRP over `r` columns. `my_wide_shards[t]` holds
    /// this rank's shard of row block `R_p[t]` for every column,
    /// column-major: `[col0 shard | col1 shard | …]`. Returns wide `y`
    /// shards (same layout) and the ternary-multiplication count.
    ///
    /// Splits the wide shards into `r` column shard sets, runs them as one
    /// [`RankContext::sttsv_multi`] batch, and interleaves the result back.
    pub fn mttkrp(
        &self,
        comm: &Comm,
        my_wide_shards: &[Vec<f64>],
        r: usize,
    ) -> (Vec<Vec<f64>>, u64) {
        let p = comm.rank();
        let rp = self.part.r_set(p);
        assert_eq!(my_wide_shards.len(), rp.len());
        let lens: Vec<usize> = rp.iter().map(|&i| self.part.shard_range(i, p).len()).collect();
        for (wide, &s) in my_wide_shards.iter().zip(&lens) {
            assert_eq!(wide.len(), s * r, "wide shard must hold r columns");
        }
        let columns: Vec<Vec<Vec<f64>>> = (0..r)
            .map(|col| {
                my_wide_shards
                    .iter()
                    .zip(&lens)
                    .map(|(wide, &s)| wide[col * s..(col + 1) * s].to_vec())
                    .collect()
            })
            .collect();
        let (ys, ternary) = self.sttsv_multi(comm, &columns);
        let wide = (0..rp.len()).map(|t| ys.iter().flat_map(|y| y[t].iter().copied()).collect());
        (wide.collect(), ternary)
    }
}

/// Result of a driver-level parallel MTTKRP / CP-gradient run.
#[derive(Clone, Debug)]
pub struct MttkrpRun {
    /// The `n × r` result matrix.
    pub y: Matrix,
    /// Exact per-rank communication costs.
    pub report: CostReport,
    /// Per-rank ternary-multiplication counts.
    pub ternary_per_rank: Vec<u64>,
}

/// Runs `body` on every rank over the shards of `x_mat`'s columns and
/// assembles the returned column shards into an `n × r` matrix.
fn run_columns<F>(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x_mat: &Matrix,
    mode: Mode,
    body: F,
) -> MttkrpRun
where
    F: Fn(&Comm, &RankContext<'_>, Vec<Vec<Vec<f64>>>) -> (Vec<Vec<Vec<f64>>>, u64) + Sync,
{
    assert_eq!(x_mat.rows(), part.dim());
    let columns: Vec<Vec<f64>> = (0..x_mat.cols()).map(|c| x_mat.col(c)).collect();
    let out = run_ranks(tensor, part, &columns, mode, 1, false, |comm, ctx, shards| {
        let (ys, ternary) = body(comm, ctx, shards);
        (ys, ternary, ())
    });
    let mut y = Matrix::zeros(part.dim(), columns.len());
    for (c, col) in out.run.ys.iter().enumerate() {
        y.set_col(c, col);
    }
    MttkrpRun { y, report: out.run.report, ternary_per_rank: out.run.ternary_per_rank }
}

/// Runs the distributed symmetric MTTKRP on the simulated machine: one
/// batched STTSV over the factor's columns.
pub fn parallel_mttkrp(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x_mat: &Matrix,
    mode: Mode,
) -> MttkrpRun {
    run_columns(tensor, part, x_mat, mode, |comm, ctx, columns| ctx.sttsv_multi(comm, &columns))
}

/// Distributed Algorithm 2: the symmetric CP gradient
/// `Y = X·[(XᵀX)∗(XᵀX)] − MTTKRP(𝓐, X)`, with the `r × r` Gram matrix
/// assembled by an all-reduce of per-rank partial Grams (`r²` words, a
/// lower-order term next to the MTTKRP traffic).
pub fn parallel_cp_gradient(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x_mat: &Matrix,
    mode: Mode,
) -> MttkrpRun {
    let r = x_mat.cols();
    run_columns(tensor, part, x_mat, mode, |comm, ctx, cols| {
        let t_count = part.r_set(comm.rank()).len();
        // Distributed Gram: each rank contributes its owned rows.
        let mut partial = vec![0.0; r * r];
        for t in 0..t_count {
            for (a, col_a) in cols.iter().enumerate() {
                for (bb, col_b) in cols.iter().enumerate() {
                    let mut acc = 0.0;
                    for (&u, &v) in col_a[t].iter().zip(&col_b[t]) {
                        acc += u * v;
                    }
                    partial[a * r + bb] += acc;
                }
            }
        }
        let gram = comm.all_reduce(partial).expect("gram all-reduce");
        // G = (XᵀX) ∗ (XᵀX).
        let g: Vec<f64> = gram.iter().map(|&v| v * v).collect();
        let (mttkrp, ternary) = ctx.sttsv_multi(comm, &cols);
        // Y = X·G − MTTKRP, computed on the owned shards only.
        let out = (0..r)
            .map(|col| {
                (0..t_count)
                    .map(|t| {
                        let m = &mttkrp[col][t];
                        (0..m.len())
                            .map(|off| {
                                let mut acc = 0.0;
                                for inner in 0..r {
                                    acc += cols[inner][t][off] * g[inner * r + col];
                                }
                                acc - m[off]
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        (out, ternary)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use symtensor_core::cp::cp_gradient;
    use symtensor_core::generate::random_symmetric;
    use symtensor_core::mttkrp::mttkrp_sym;
    use symtensor_steiner::spherical;

    fn random_factor(n: usize, r: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(n, r);
        for row in 0..n {
            for col in 0..r {
                m.set(row, col, rng.gen::<f64>() - 0.5);
            }
        }
        m
    }

    fn assert_matrix_close(a: &Matrix, b: &Matrix, tol: f64) {
        for row in 0..a.rows() {
            for col in 0..a.cols() {
                let (x, y) = (a.get(row, col), b.get(row, col));
                assert!((x - y).abs() < tol * (1.0 + x.abs()), "[{row},{col}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn parallel_mttkrp_matches_sequential() {
        let n = 30;
        let r = 3;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(51);
        let tensor = random_symmetric(n, &mut rng);
        let x = random_factor(n, r, 52);
        let (y_ref, _) = mttkrp_sym(&tensor, &x);
        for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
            let run = parallel_mttkrp(&tensor, &part, &x, mode);
            assert_matrix_close(&run.y, &y_ref, 1e-9);
        }
    }

    #[test]
    fn mttkrp_bandwidth_is_r_times_sttsv() {
        let n = 60;
        let q = 2usize;
        let r = 4;
        let part = TetraPartition::new(spherical(q as u64), n).unwrap();
        let mut rng = StdRng::seed_from_u64(53);
        let tensor = random_symmetric(n, &mut rng);
        let x = random_factor(n, r, 54);
        let run = parallel_mttkrp(&tensor, &part, &x, Mode::Scheduled);
        let per_vec = bounds::scheduled_words_per_vector(n, q) as u64;
        for cost in &run.report.per_rank {
            assert_eq!(cost.words_sent, 2 * per_vec * r as u64);
            // Same round structure as a single STTSV.
            assert_eq!(cost.rounds, 2 * crate::schedule::spherical_round_count(q) as u64);
        }
        // Work: r times the single-vector total.
        let total: u64 = run.ternary_per_rank.iter().sum();
        let n64 = n as u64;
        assert_eq!(total, r as u64 * n64 * n64 * (n64 + 1) / 2);
    }

    #[test]
    fn parallel_cp_gradient_matches_sequential() {
        let n = 30;
        let r = 2;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(55);
        let tensor = random_symmetric(n, &mut rng);
        let x = random_factor(n, r, 56);
        let y_ref = cp_gradient(&tensor, &x);
        for mode in [Mode::Scheduled, Mode::AllToAllPadded] {
            let run = parallel_cp_gradient(&tensor, &part, &x, mode);
            assert_matrix_close(&run.y, &y_ref, 1e-8);
        }
    }

    #[test]
    fn single_column_mttkrp_equals_sttsv_run() {
        // MTTKRP is batched STTSV over the factor's columns: column c is
        // bit for bit the batch's c-th output, and the counts are the
        // batch's, in every mode and for any r (r = 1 included).
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(57);
        let tensor = random_symmetric(n, &mut rng);
        for r in [1usize, 3] {
            let x = random_factor(n, r, 58 + r as u64);
            let columns: Vec<Vec<f64>> = (0..r).map(|c| x.col(c)).collect();
            for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
                let mrun = parallel_mttkrp(&tensor, &part, &x, mode);
                let srun = crate::parallel_sttsv_multi(&tensor, &part, &columns, mode, 1);
                for (c, y) in srun.ys.iter().enumerate() {
                    for (i, v) in y.iter().enumerate() {
                        assert_eq!(mrun.y.get(i, c).to_bits(), v.to_bits(), "{mode:?} r={r}");
                    }
                }
                assert_eq!(mrun.ternary_per_rank, srun.ternary_per_rank, "{mode:?} r={r}");
                assert_eq!(mrun.report, srun.report, "{mode:?} r={r}");
            }
        }
    }

    #[test]
    fn wide_shard_mttkrp_matches_the_driver() {
        // The per-rank wide layout ([col0 shard | col1 shard | …]) is a
        // re-interleaving of the driver's batched run.
        let n = 30;
        let r = 3;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(59);
        let tensor = random_symmetric(n, &mut rng);
        let x = random_factor(n, r, 60);
        let schedule = crate::CommSchedule::build(&part);
        let (wide, report) = symtensor_mpsim::Universe::new(part.num_procs()).run(|comm| {
            let p = comm.rank();
            let ctx = RankContext::new(&tensor, &part, p, Mode::Scheduled, Some(&schedule));
            let shards: Vec<Vec<f64>> = part
                .r_set(p)
                .iter()
                .map(|&i| {
                    let start = part.block_range(i).start;
                    (0..r)
                        .flat_map(|c| part.shard_range(i, p).map(move |off| (start + off, c)))
                        .map(|(row, c)| x.get(row, c))
                        .collect()
                })
                .collect();
            ctx.mttkrp(comm, &shards, r).0
        });
        let run = parallel_mttkrp(&tensor, &part, &x, Mode::Scheduled);
        assert_eq!(report, run.report);
        for (p, shards) in wide.iter().enumerate() {
            for (&i, shard) in part.r_set(p).iter().zip(shards) {
                let (start, local) = (part.block_range(i).start, part.shard_range(i, p));
                let s = local.len();
                for c in 0..r {
                    for (k, off) in local.clone().enumerate() {
                        let want = run.y.get(start + off, c);
                        assert_eq!(shard[c * s + k].to_bits(), want.to_bits(), "rank {p}");
                    }
                }
            }
        }
    }
}
