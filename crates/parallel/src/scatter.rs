//! One-time data distribution from a root rank.
//!
//! The paper's cost model assumes the computation *begins* with the tensor
//! already distributed in tetrahedral blocks and one copy of `x` sharded
//! (Theorem 5.2's starting condition). This module implements and prices
//! that setup step: rank 0 holds everything and ships each processor its
//! `TB₃(R_p) ∪ N_p ∪ D_p` blocks plus its vector shards. The cost is
//! `Θ(n³/6)` words at the root — amortized away over the many STTSV
//! invocations of HOPM/CP, which is exactly why the paper separates it
//! from the per-iteration analysis.

use crate::blocks::OwnedBlocks;
use crate::partition::TetraPartition;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{CostReport, Universe};

const TAG_SCATTER_T: u64 = 21 << 40;
const TAG_SCATTER_X: u64 = 22 << 40;

/// Per-rank scatter result: the rank's tensor blocks and its `x` shards.
pub type ScatteredRank = (OwnedBlocks, Vec<Vec<f64>>);

/// Scatters the tensor blocks and `x` shards from rank 0; every rank ends
/// with its [`OwnedBlocks`] and shard vector. Returns the per-rank results
/// and the scatter's cost report.
pub fn scatter_from_root(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
) -> (Vec<ScatteredRank>, CostReport) {
    let n = part.dim();
    assert_eq!(tensor.dim(), n);
    assert_eq!(x.len(), n);
    let p_count = part.num_procs();

    Universe::new(p_count).run(|comm| {
        comm.with_phase("scatter", || {
            let p = comm.rank();
            if p == 0 {
                // Root: extract and ship every other rank's data.
                for dst in 1..p_count {
                    // Ship the rank's whole arena as one message (the block
                    // layout is deterministic, so the receiver adopts it).
                    let payload = OwnedBlocks::extract(tensor, part, dst).into_arena();
                    comm.send(dst, TAG_SCATTER_T, payload);
                    let shards: Vec<f64> = part
                        .r_set(dst)
                        .iter()
                        .flat_map(|&i| {
                            let global = part.block_range(i);
                            let local = part.shard_range(i, dst);
                            x[global.start + local.start..global.start + local.end].to_vec()
                        })
                        .collect();
                    comm.send(dst, TAG_SCATTER_X, shards);
                }
                let owned = OwnedBlocks::extract(tensor, part, 0);
                let shards = local_shards(part, 0, x);
                (owned, shards)
            } else {
                let payload = comm.recv(0, TAG_SCATTER_T).expect("tensor scatter");
                let owned = OwnedBlocks::from_arena(part, p, payload)
                    .expect("scatter payload length mismatch");
                let flat = comm.recv(0, TAG_SCATTER_X).expect("vector scatter");
                let mut shards = Vec::new();
                let mut pos = 0;
                for &i in part.r_set(p) {
                    let len = part.shard_range(i, p).len();
                    shards.push(flat[pos..pos + len].to_vec());
                    pos += len;
                }
                (owned, shards)
            }
        })
    })
}

fn local_shards(part: &TetraPartition, p: usize, x: &[f64]) -> Vec<Vec<f64>> {
    part.r_set(p)
        .iter()
        .map(|&i| {
            let global = part.block_range(i);
            let local = part.shard_range(i, p);
            x[global.start + local.start..global.start + local.end].to_vec()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor_core::generate::random_symmetric;
    use symtensor_steiner::spherical;

    #[test]
    fn scatter_delivers_exactly_the_extraction() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(110);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
        let (results, report) = scatter_from_root(&tensor, &part, &x);
        for (p, (owned, shards)) in results.iter().enumerate() {
            let reference = OwnedBlocks::extract(&tensor, &part, p);
            assert_eq!(owned.blocks(), reference.blocks(), "rank {p}");
            assert_eq!(owned.arena(), reference.arena(), "rank {p}");
            let want_shards = local_shards(&part, p, &x);
            assert_eq!(shards, &want_shards, "rank {p} shards");
        }
        // Root send cost: everything except its own data.
        let total_tensor: usize = (1..part.num_procs()).map(|p| part.tensor_words(p)).sum();
        let total_vec: usize = (1..part.num_procs()).map(|p| part.vector_words(p)).sum();
        assert_eq!(report.per_rank[0].words_sent as usize, total_tensor + total_vec);
        // Setup traffic ≈ n³/6 ≫ per-iteration traffic — the reason the
        // paper's model charges it once, not per STTSV.
        assert!(report.per_rank[0].words_sent as usize > n * n);
    }

    #[test]
    fn non_root_ranks_send_nothing() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let tensor = SymTensor3::zeros(n);
        let x = vec![0.0; n];
        let (_, report) = scatter_from_root(&tensor, &part, &x);
        for p in 1..part.num_procs() {
            assert_eq!(report.per_rank[p].words_sent, 0);
        }
    }
}
