//! Tensor ingest: every rank's arena is bit-identical to a per-element
//! gather from the packed tensor, and a compiled context holds exactly one
//! copy of it.
//!
//! The oracle below is the straightforward `get_sorted` gather, one call
//! per stored element in each block kind's layout. The library copies whole
//! contiguous runs instead; the two must agree block by block — offsets,
//! lengths, kinds and every bit of every entry.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_core::generate::random_symmetric;
use symtensor_core::SymTensor3;
use symtensor_parallel::blocks::OwnedBlocks;
use symtensor_parallel::tetra::BlockKind;
use symtensor_parallel::{CommSchedule, Mode, RankContext, TetraPartition};
use symtensor_steiner::spherical;

/// Block `(i, j, k)` gathered element by element, in its kind's layout.
fn gather_block(tensor: &SymTensor3, i: usize, j: usize, k: usize, b: usize) -> Vec<f64> {
    let (gi, gj, gk) = (i * b, j * b, k * b);
    let mut data = Vec::new();
    match (i == j, j == k) {
        // Off-diagonal (I, J, K): dense b³.
        (false, false) => {
            for li in 0..b {
                for lj in 0..b {
                    for lk in 0..b {
                        data.push(tensor.get_sorted(gi + li, gj + lj, gk + lk));
                    }
                }
            }
        }
        // Non-central (I, I, K): li ≥ lj triangle × K.
        (true, false) => {
            for li in 0..b {
                for lj in 0..=li {
                    for lk in 0..b {
                        data.push(tensor.get_sorted(gi + li, gi + lj, gk + lk));
                    }
                }
            }
        }
        // Non-central (I, K, K): I × lj ≥ lk triangle.
        (false, true) => {
            for li in 0..b {
                for lj in 0..b {
                    for lk in 0..=lj {
                        data.push(tensor.get_sorted(gi + li, gk + lj, gk + lk));
                    }
                }
            }
        }
        // Central (I, I, I): packed li ≥ lj ≥ lk tetrahedron.
        (true, true) => {
            for li in 0..b {
                for lj in 0..=li {
                    for lk in 0..=lj {
                        data.push(tensor.get_sorted(gi + li, gi + lj, gi + lk));
                    }
                }
            }
        }
    }
    data
}

/// Checks every rank's arena against the oracle; returns the block kinds
/// seen.
fn check_against_oracle(q: u64, n: usize, seed: u64) -> BTreeSet<&'static str> {
    let part = TetraPartition::new(spherical(q), n).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let tensor = random_symmetric(n, &mut rng);
    let b = part.block_size();
    let mut kinds = BTreeSet::new();
    for p in 0..part.num_procs() {
        let owned = OwnedBlocks::extract(&tensor, &part, p);
        let expect_idx = part.owned_blocks(p);
        assert_eq!(owned.blocks().len(), expect_idx.len(), "q={q} n={n} rank {p}: block count");
        let mut offset = 0;
        for (blk, idx) in owned.blocks().iter().zip(&expect_idx) {
            let want = gather_block(&tensor, idx.i, idx.j, idx.k, b);
            let at = format!("q={q} n={n} rank {p} block {idx:?}");
            assert_eq!(blk.idx, *idx, "{at}: index");
            assert_eq!(blk.kind, idx.kind(), "{at}: kind");
            assert_eq!(blk.offset, offset, "{at}: offset");
            assert_eq!(blk.len, want.len(), "{at}: length");
            let got = owned.data(blk);
            assert_eq!(got.len(), want.len(), "{at}: data length");
            for (e, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{at}: entry {e}");
            }
            offset += blk.len;
            kinds.insert(match blk.kind {
                BlockKind::OffDiagonal => "off-diagonal",
                BlockKind::NonCentralIIK => "iik",
                BlockKind::NonCentralIKK => "ikk",
                BlockKind::CentralDiagonal => "central",
            });
        }
        assert_eq!(owned.words(), offset, "q={q} n={n} rank {p}: arena is exactly the blocks");
        assert_eq!(owned.words(), part.tensor_words(p), "q={q} n={n} rank {p}: words");
    }
    kinds
}

#[test]
fn ingest_is_bit_identical_to_the_per_element_gather() {
    let mut kinds = BTreeSet::new();
    for (q, n, seed) in [(2u64, 30usize, 1201u64), (2, 60, 1202), (2, 240, 1203), (3, 120, 1204)] {
        kinds.extend(check_against_oracle(q, n, seed));
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["central", "iik", "ikk", "off-diagonal"],
        "the configurations cover all four block kinds"
    );
}

#[test]
fn compiled_context_holds_one_copy_of_its_blocks() {
    let n = 60;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let schedule = CommSchedule::build(&part);
    let mut rng = StdRng::seed_from_u64(1210);
    let tensor = random_symmetric(n, &mut rng);
    for p in 0..part.num_procs() {
        let ctx = RankContext::new(&tensor, &part, p, Mode::Scheduled, Some(&schedule)).with_plan();
        let plan = ctx.compile(p);
        assert!(
            std::ptr::eq(ctx.owned.arena(), plan.arena()),
            "rank {p}: the plan must share the context's arena, not copy it"
        );
        assert_eq!(ctx.owned.words() * 8, plan.arena_bytes(), "rank {p}");
    }
}

#[test]
fn from_arena_adopts_exactly_the_partition_length() {
    let n = 30;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let mut rng = StdRng::seed_from_u64(1220);
    let tensor = random_symmetric(n, &mut rng);
    for p in 0..part.num_procs() {
        let owned = OwnedBlocks::extract(&tensor, &part, p);
        let arena = owned.arena().to_vec();
        let ptr = arena.as_ptr();
        let adopted = OwnedBlocks::from_arena(&part, p, arena.clone()).unwrap();
        assert_eq!(adopted.blocks(), owned.blocks(), "rank {p}");
        assert_eq!(adopted.arena(), owned.arena(), "rank {p}");
        let adopted = OwnedBlocks::from_arena(&part, p, arena).unwrap();
        assert_eq!(adopted.arena().as_ptr(), ptr, "rank {p}: adopted without a copy");
        let mut short = owned.arena().to_vec();
        short.pop();
        assert!(OwnedBlocks::from_arena(&part, p, short).is_none(), "rank {p}: short arena");
        let mut long = owned.arena().to_vec();
        long.push(0.0);
        assert!(OwnedBlocks::from_arena(&part, p, long).is_none(), "rank {p}: long arena");
    }
}
