//! Tensor ingest: a rank's first vector pass reads its block rows in place
//! from the packed tensor, its second builds exactly one arena shared by
//! context and plan, and both row sources are bit-identical to a
//! per-element gather from the packed tensor.
//!
//! The oracle below is the straightforward `get_sorted` gather, one call
//! per stored element in each block kind's layout. The library reads whole
//! contiguous runs instead; the two must agree block by block — offsets,
//! lengths, kinds and every bit of every entry, in place and in the arena.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_core::generate::random_symmetric;
use symtensor_core::SymTensor3;
use symtensor_mpsim::Universe;
use symtensor_parallel::blocks::OwnedBlocks;
use symtensor_parallel::tetra::BlockKind;
use symtensor_parallel::{
    CommSchedule, Mode, PlanWorkspace, RankContext, RankPlan, TetraPartition,
};
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

/// The configurations under test: between them all four block kinds occur.
const CONFIGS: [(u64, usize, u64); 4] =
    [(2, 30, 1201), (2, 60, 1202), (2, 240, 1203), (3, 120, 1204)];

/// Checks every block's rows, read from wherever they live now, against
/// the oracle; returns the block kinds seen.
fn check_rows(
    tensor: &SymTensor3,
    part: &TetraPartition,
    p: usize,
    owned: &OwnedBlocks,
    at: &str,
) -> BTreeSet<&'static str> {
    let b = part.block_size();
    let mut kinds = BTreeSet::new();
    let mut offset = 0;
    for blk in owned.blocks() {
        let idx = blk.idx;
        let want = gather_block(tensor, idx.i, idx.j, idx.k, b);
        let at = format!("{at} block {idx:?}");
        assert_eq!(blk.kind, idx.kind(), "{at}: kind");
        assert_eq!(blk.offset, offset, "{at}: offset");
        assert_eq!(blk.len, want.len(), "{at}: length");
        let got: Vec<f64> = owned.rows(blk).flatten().copied().collect();
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
    assert_eq!(owned.words(), offset, "{at}: the arena is exactly the blocks");
    assert_eq!(owned.words(), part.tensor_words(p), "{at}: words");
    kinds
}

/// True when every row of every block lies inside `within`.
fn rows_inside(owned: &OwnedBlocks, within: &[f64]) -> bool {
    let range = within.as_ptr_range();
    owned.blocks().iter().flat_map(|blk| owned.rows(blk)).all(|row| {
        let r = row.as_ptr_range();
        range.start <= r.start && r.end <= range.end
    })
}

#[test]
fn ingest_is_bit_identical_to_the_per_element_gather() {
    let mut kinds = BTreeSet::new();
    for (q, n, seed) in CONFIGS {
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        for p in 0..part.num_procs() {
            let owned = OwnedBlocks::extract(&tensor, &part, p);
            let expect_idx = part.owned_blocks(p);
            let got_idx: Vec<_> = owned.blocks().iter().map(|blk| blk.idx).collect();
            assert_eq!(got_idx, expect_idx, "q={q} n={n} rank {p}: block table");
            kinds.extend(check_rows(
                &tensor,
                &part,
                p,
                &owned,
                &format!("q={q} n={n} rank {p} in place"),
            ));
            // Two vector passes build the arena; its rows must match too.
            let plan = RankPlan::build(&part, &owned, p);
            let mut ws = PlanWorkspace::new();
            plan.ensure_capacity(&mut ws, 2);
            plan.compute(&mut ws, 2, None);
            assert!(owned.arena().is_some(), "q={q} n={n} rank {p}: arena after two passes");
            check_rows(&tensor, &part, p, &owned, &format!("q={q} n={n} rank {p} arena"));
        }
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["central", "iik", "ikk", "off-diagonal"],
        "the configurations cover all four block kinds"
    );
}

/// What one rank saw across three STTSV calls on one context.
struct RankFacts {
    /// After the first call: neither context nor plan has an arena, and
    /// every row lies inside the packed tensor.
    first_in_place: bool,
    /// After the second call: the arena's length, and whether context and
    /// plan hold the same allocation.
    arena_len: usize,
    shared: bool,
    /// The arena's address after the second and the third call.
    addr: [usize; 2],
    /// Every row lies inside the arena after the second call.
    rows_in_arena: bool,
    /// The rank's output shards of the three calls, as bits.
    y_bits: [Vec<u64>; 3],
}

#[test]
fn compiled_context_holds_one_copy_of_its_blocks() {
    for (q, n, seed) in CONFIGS {
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let schedule = CommSchedule::build(&part);
        let mut rng = StdRng::seed_from_u64(seed + 10);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.37).sin()).collect();
        let packed = tensor.packed();
        let (facts, _) = Universe::new(part.num_procs()).run(|comm| {
            let p = comm.rank();
            let ctx = RankContext::new(&tensor, &part, p, Mode::Scheduled, Some(&schedule));
            let plan = ctx.compile(p);
            let mine: Vec<Vec<f64>> = part
                .r_set(p)
                .iter()
                .map(|&i| x[part.block_range(i)][part.shard_range(i, p)].to_vec())
                .collect();
            let bits = |y: Vec<Vec<f64>>| y.iter().flatten().map(|v| v.to_bits()).collect();
            let y1 = bits(ctx.sttsv(comm, &mine).0);
            let first_in_place = ctx.owned.arena().is_none()
                && plan.arena().is_none()
                && rows_inside(&ctx.owned, packed);
            let y2 = bits(ctx.sttsv(comm, &mine).0);
            let arena = ctx.owned.arena().expect("the second vector builds the arena");
            let shared = plan.arena().is_some_and(|a| std::ptr::eq(a, arena));
            let rows_in_arena = rows_inside(&ctx.owned, arena);
            let addr2 = arena.as_ptr() as usize;
            let y3 = bits(ctx.sttsv(comm, &mine).0);
            let addr3 = ctx.owned.arena().map_or(0, |a| a.as_ptr() as usize);
            RankFacts {
                first_in_place,
                arena_len: arena.len(),
                shared,
                addr: [addr2, addr3],
                rows_in_arena,
                y_bits: [y1, y2, y3],
            }
        });
        for (p, f) in facts.iter().enumerate() {
            let at = format!("q={q} n={n} rank {p}");
            assert!(
                f.first_in_place,
                "{at}: the first vector reads rows in place, copying nothing"
            );
            assert_eq!(f.arena_len, part.tensor_words(p), "{at}: one arena of the rank's words");
            assert!(f.shared, "{at}: context and plan share one arena");
            assert!(f.rows_in_arena, "{at}: rows are read from the arena once it exists");
            assert_eq!(f.addr[0], f.addr[1], "{at}: the arena stays put on later passes");
            assert_eq!(f.y_bits[0], f.y_bits[1], "{at}: in-place and arena passes differ");
            assert_eq!(f.y_bits[1], f.y_bits[2], "{at}: arena passes differ");
        }
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
        let arena = owned.clone().into_arena();
        let ptr = arena.as_ptr();
        let adopted = OwnedBlocks::from_arena(&part, p, arena.clone()).unwrap();
        assert_eq!(adopted.blocks(), owned.blocks(), "rank {p}");
        let rows = |o: &OwnedBlocks| -> Vec<f64> {
            o.blocks().iter().flat_map(|blk| o.rows(blk)).flatten().copied().collect()
        };
        assert_eq!(rows(&adopted), rows(&owned), "rank {p}");
        let adopted = OwnedBlocks::from_arena(&part, p, arena).unwrap();
        assert_eq!(
            adopted.arena().map(<[f64]>::as_ptr),
            Some(ptr),
            "rank {p}: adopted without a copy"
        );
        let mut short = owned.clone().into_arena();
        short.pop();
        assert!(OwnedBlocks::from_arena(&part, p, short).is_none(), "rank {p}: short arena");
        let mut long = owned.clone().into_arena();
        long.push(0.0);
        assert!(OwnedBlocks::from_arena(&part, p, long).is_none(), "rank {p}: long arena");
    }
}
