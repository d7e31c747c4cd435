//! Per-rank owned tensor storage and the local STTSV kernels.
//!
//! Under the owner-compute rule each processor reads its blocks from the
//! global tensor and never communicates them. A rank's [`OwnedBlocks`] is
//! an `(i, j, k)`-sorted block table ([`OwnedBlock`]) plus one row store
//! that the compiled [`crate::plan::RankPlan`] shares rather than copies.
//!
//! Every block row `(li, lj)` is one contiguous run of the packed
//! tetrahedron — `b` words, or `lj + 1` when `J = K` — starting at
//! `tet(gi+li) + tri(gj+lj) + gk`. So the store starts as a borrow of the
//! packed tensor and the rank's **first** vector pass reads its rows there,
//! in place. The rank's **second** vector pass copies those runs, once,
//! into a contiguous arena, and that pass and every later one stream the
//! arena. A one-vector call copies nothing; an iterative caller pays one
//! copy. A store adopted from a tensor scatter starts with its arena.
//!
//! Per-block layouts within the arena:
//!
//! * off-diagonal block `(I, J, K)`, `I > J > K`: dense `b³`, index
//!   `(li·b + lj)·b + lk` with `li/lj/lk` local to `I/J/K`,
//! * non-central `(I, I, K)`: the `li ≥ lj` triangle over `I` crossed with
//!   `K`, index `tri(li, lj)·b + lk`,
//! * non-central `(I, K, K)`: `I` crossed with the `lj ≥ lk` triangle over
//!   `K`, index `li·tri_len + tri(lj, lk)`,
//! * central `(I, I, I)`: the packed `li ≥ lj ≥ lk` tetrahedron.
//!
//! Every layout keeps `lk` innermost and lays rows out in `(li, lj)` order,
//! which is why building the arena is at most `b²` slice copies per block.
//!
//! The kernels perform, per stored element, exactly the updates of the
//! paper's Algorithm 4 case analysis (lines 24–36 of Algorithm 5), and
//! count ternary multiplications in the paper's model (3 / 2 / 1 updates
//! per element depending on index coincidences). Each kernel is written
//! once, generic over where its rows come from (the `Rows` trait), and
//! monomorphized for in-place and arena reads; the arithmetic and its order
//! are the same in both, so the two are bit-identical.

use crate::partition::TetraPartition;
use crate::plan::PlanBlock;
use crate::tetra::{entries_in_block, BlockIdx, BlockKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use symtensor_core::seq::row_segment;
use symtensor_core::storage::{tet, tri};
use symtensor_core::SymTensor3;

#[inline]
fn tet_idx(a: usize, b: usize, c: usize) -> usize {
    debug_assert!(a >= b && b >= c);
    a * (a + 1) * (a + 2) / 6 + b * (b + 1) / 2 + c
}

/// Chunk-count cap for the parallel compute paths: bounds the
/// `chunks · |R_p| · b` words of partial-accumulator workspace while still
/// leaving plenty of stealable units for any realistic worker count. The
/// chunk decomposition is a function of the block count alone — never of
/// the thread count — which is what makes the parallel paths bit-identical
/// across thread counts.
pub(crate) const MAX_COMPUTE_CHUNKS: usize = 32;

/// Where one owned tensor block sits in its rank's arena; read its rows
/// with [`OwnedBlocks::rows`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnedBlock {
    /// The block's (sorted) row-block triple.
    pub idx: BlockIdx,
    /// Its classification (off-diagonal / non-central / central).
    pub kind: BlockKind,
    /// Offset of the block's first entry within the arena.
    pub offset: usize,
    /// Stored words, in the kind-specific layout documented at module level.
    pub len: usize,
}

/// All tensor blocks owned by one rank: the block table plus the row store
/// shared with the rank's compiled plan (see module docs).
#[derive(Clone, Debug)]
pub struct OwnedBlocks<'a> {
    /// The block table, sorted by block index (= arena order).
    blocks: Vec<OwnedBlock>,
    /// Where the rows live, shared with the rank's plan.
    store: Arc<RowStore<'a>>,
}

impl<'a> OwnedBlocks<'a> {
    /// Processor `p`'s blocks, read in place from `tensor`'s packed storage.
    /// Copies nothing: the rank's second vector pass builds the arena.
    pub fn extract(tensor: &'a SymTensor3, part: &TetraPartition, p: usize) -> Self {
        assert_eq!(tensor.dim(), part.dim(), "tensor dimension mismatch");
        let (blocks, words) = layout(part, p);
        let store = RowStore::new(tensor.packed(), part.block_size(), words, OnceLock::new());
        OwnedBlocks { blocks, store: Arc::new(store) }
    }

    /// Adopts `arena` as processor `p`'s blocks, laid out as
    /// [`OwnedBlocks::into_arena`] lays them out — the receiving end of a
    /// tensor scatter. The layout is a deterministic function of the
    /// partition, so sender and receiver agree without metadata. Returns
    /// `None` when `arena` does not hold exactly `p`'s tensor words.
    pub fn from_arena(part: &TetraPartition, p: usize, arena: Vec<f64>) -> Option<Self> {
        let (blocks, words) = layout(part, p);
        (arena.len() == words).then(|| {
            let store = RowStore::new(&[], part.block_size(), words, OnceLock::from(arena));
            OwnedBlocks { blocks, store: Arc::new(store) }
        })
    }

    /// The contiguous arena, by value: taken if this is its only handle,
    /// copied if a plan still shares it, and built with the arena's own run
    /// copies if no pass has built it yet.
    pub fn into_arena(self) -> Vec<f64> {
        let idxs = self.blocks.iter().map(|blk| blk.idx);
        match Arc::try_unwrap(self.store) {
            Ok(RowStore { packed, b, words, arena, .. }) => {
                arena.into_inner().unwrap_or_else(|| copy_runs(packed, b, words, idxs))
            }
            Err(shared) => shared.arena().map_or_else(
                || copy_runs(shared.packed, shared.b, shared.words, idxs),
                <[f64]>::to_vec,
            ),
        }
    }

    /// The block table, sorted by block index (= arena order).
    #[inline]
    pub fn blocks(&self) -> &[OwnedBlock] {
        &self.blocks
    }

    /// The rank's owned tensor words (the arena's length, built or not).
    pub fn words(&self) -> usize {
        self.store.words()
    }

    /// The contiguous arena, once the rank's second vector pass has built
    /// it (or a scatter delivered it); `None` while rows are read in place.
    pub fn arena(&self) -> Option<&[f64]> {
        self.store.arena()
    }

    /// `blk`'s rows in arena order, read from wherever the rows live now:
    /// the packed tensor before the arena exists, the arena after. Claims
    /// no vector pass.
    pub fn rows<'s>(&'s self, blk: &OwnedBlock) -> impl Iterator<Item = &'s [f64]> + 's {
        let (idx, offset, len) = (blk.idx, blk.offset, blk.len);
        let source = self.store.current();
        let mut pos = 0;
        layout_rows(idx, self.block_size()).map(move |(li, lj, run)| {
            let at = pos;
            pos += run;
            match source {
                Pass::InPlace(rows) => rows.block(idx, offset, len).row(at, li, lj, run),
                Pass::Arena(rows) => rows.block(idx, offset, len).row(at, li, lj, run),
            }
        })
    }

    /// A second handle to the row store, for the compiled plan.
    pub(crate) fn shared_store(&self) -> Arc<RowStore<'a>> {
        Arc::clone(&self.store)
    }

    /// The block edge length `b` these blocks were extracted with.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.store.b
    }

    /// The block table with every block's `(i, j, k)` row-block triple
    /// resolved **once** into row *slots* (positions within `R_p`), so the
    /// kernels index flat `x`/`y` slabs directly instead of dispatching a
    /// lookup closure per block.
    pub(crate) fn plan_blocks<F>(&self, row_pos: &F) -> Vec<PlanBlock>
    where
        F: Fn(usize) -> usize,
    {
        self.blocks
            .iter()
            .map(|blk| PlanBlock {
                idx: blk.idx,
                offset: blk.offset,
                len: blk.len,
                kind: blk.kind,
                slots: [row_pos(blk.idx.i), row_pos(blk.idx.j), row_pos(blk.idx.k)],
            })
            .collect()
    }

    /// Claims one vector pass (see [`RowStore::pass`]).
    fn pass(&self) -> Pass<'_> {
        self.store.pass(1, self.blocks.iter().map(|blk| blk.idx))
    }

    /// Runs the local STTSV kernels: `x_full` maps row-block index → the
    /// gathered full row block (length `b`); contributions accumulate into
    /// `y_acc` (same keying). Returns the ternary-multiplication count in
    /// the paper's model. One vector pass.
    ///
    /// `x_full`/`y_acc` are indexed by *position within `R_p`*; the
    /// `row_pos` lookup supplied by the caller is resolved **once** into a
    /// slot table up front (not dispatched per block), and the kernels run
    /// over flat `t_count·b` slabs.
    pub fn compute<F>(&self, x_full: &[Vec<f64>], y_acc: &mut [Vec<f64>], row_pos: F) -> u64
    where
        F: Fn(usize) -> usize,
    {
        let b = self.block_size();
        let table = self.plan_blocks(&row_pos);
        let t_count = x_full.len();
        let mut x_flat = vec![0.0; t_count * b];
        for (t, row) in x_full.iter().enumerate() {
            debug_assert_eq!(row.len(), b);
            x_flat[t * b..t * b + b].copy_from_slice(row);
        }
        let mut y_flat = vec![0.0; t_count * b];
        let mut scratch = vec![0.0; 3 * b];
        let ternary = self.pass().run(&table, b, &x_flat, &mut y_flat, &mut scratch);
        for (t, row) in y_acc.iter_mut().enumerate() {
            add_into(row, &y_flat[t * b..t * b + b]);
        }
        ternary
    }

    /// Shared-memory parallel [`OwnedBlocks::compute`]: the rank's blocks
    /// are split into contiguous chunks executed across `pool`'s workers,
    /// each chunk accumulating into a zeroed partial leased from the pool's
    /// [`symtensor_pool::WorkspacePool`] (no per-call allocation in steady
    /// state); the partials are combined with the fixed pairwise
    /// [`symtensor_pool::tree_reduce`] and added into `y_acc`.
    ///
    /// The chunk decomposition and reduction tree depend only on the block
    /// list (never on the pool's thread count), so the result is
    /// **bit-identical across runs and thread counts**; it can differ from
    /// the sequential [`OwnedBlocks::compute`] only in floating-point
    /// summation order. The returned ternary count is exactly the
    /// sequential one. One vector pass, its row source chosen before any
    /// chunk is dispatched.
    pub fn compute_par<F>(
        &self,
        x_full: &[Vec<f64>],
        y_acc: &mut [Vec<f64>],
        row_pos: F,
        pool: &symtensor_pool::Pool,
    ) -> u64
    where
        F: Fn(usize) -> usize + Sync,
    {
        if self.blocks.is_empty() {
            return 0;
        }
        let b = self.block_size();
        let table = self.plan_blocks(&row_pos);
        let t_count = x_full.len();
        let ws = pool.workspaces();
        let mut xy = ws.lease_zeroed(2 * t_count * b);
        let (x_flat, y_flat) = xy.split_at_mut(t_count * b);
        for (t, row) in x_full.iter().enumerate() {
            debug_assert_eq!(row.len(), b);
            x_flat[t * b..t * b + b].copy_from_slice(row);
        }
        let pass = self.pass();
        let x_flat = &*x_flat;
        let ternary =
            chunked_compute_flat(table.len(), b, y_flat, pool, |range, partial, scratch| {
                pass.run(&table[range], b, x_flat, partial, scratch)
            });
        for (t, row) in y_acc.iter_mut().enumerate() {
            add_into(row, &y_flat[t * b..t * b + b]);
        }
        ws.give_back(xy);
        ternary
    }
}

/// Processor `p`'s block table — `(i, j, k)`-sorted, packed back-to-back —
/// and its total word count.
fn layout(part: &TetraPartition, p: usize) -> (Vec<OwnedBlock>, usize) {
    let b = part.block_size();
    let mut words = 0;
    let blocks: Vec<OwnedBlock> = part
        .owned_blocks(p)
        .into_iter()
        .map(|idx| {
            let kind = idx.kind();
            let len = entries_in_block(kind, b);
            let blk = OwnedBlock { idx, kind, offset: words, len };
            words += len;
            blk
        })
        .collect();
    debug_assert!(blocks.windows(2).all(|w| w[0].idx < w[1].idx), "blocks are (i, j, k)-sorted");
    (blocks, words)
}

/// Block `idx`'s rows in arena order, as `(li, lj, run)`: `run` words of
/// consecutive `lk`.
fn layout_rows(idx: BlockIdx, b: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..b).flat_map(move |li| {
        // I = J: only the lj ≤ li triangle is stored.
        let lj_end = if idx.i == idx.j { li + 1 } else { b };
        // J = K: only the lk ≤ lj prefix is stored.
        (0..lj_end).map(move |lj| (li, lj, if idx.j == idx.k { lj + 1 } else { b }))
    })
}

/// The blocks `idxs`' rows, copied out of the packed tensor in arena order,
/// one contiguous run per row.
fn copy_runs(
    packed: &[f64],
    b: usize,
    words: usize,
    idxs: impl IntoIterator<Item = BlockIdx>,
) -> Vec<f64> {
    let mut arena = Vec::with_capacity(words);
    for idx in idxs {
        let rows = PackedRows::at(packed, b, idx);
        for (li, lj, run) in layout_rows(idx, b) {
            arena.extend_from_slice(rows.row(0, li, lj, run));
        }
    }
    debug_assert_eq!(arena.len(), words);
    arena
}

/// Where a rank's block rows live, shared by its [`OwnedBlocks`] and its
/// compiled plan: the packed tensor, read in place, until the rank's second
/// vector pass builds the contiguous arena.
#[derive(Debug)]
pub(crate) struct RowStore<'a> {
    /// The packed tensor; empty for a store adopted with its arena.
    packed: &'a [f64],
    b: usize,
    /// The rank's owned tensor words.
    words: usize,
    /// The contiguous arena, once built or adopted.
    arena: OnceLock<Vec<f64>>,
    /// Vector passes claimed so far.
    passes: AtomicUsize,
}

impl<'a> RowStore<'a> {
    fn new(packed: &'a [f64], b: usize, words: usize, arena: OnceLock<Vec<f64>>) -> Self {
        RowStore { packed, b, words, arena, passes: AtomicUsize::new(0) }
    }

    /// The rank's owned tensor words.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The contiguous arena, if built or adopted.
    pub(crate) fn arena(&self) -> Option<&[f64]> {
        self.arena.get().map(Vec::as_slice)
    }

    /// Claims `vectors` vector passes over the blocks `idxs` (arena order)
    /// and returns where they read rows from. The rank's first pass, when
    /// it is a lone vector, reads in place; any other pass reads the arena,
    /// which the first such pass builds with one run copy per row.
    pub(crate) fn pass<I>(&self, vectors: usize, idxs: I) -> Pass<'_>
    where
        I: IntoIterator<Item = BlockIdx>,
    {
        // Relaxed: the count only picks a row source, and both sources hold
        // the same values; the arena itself is published by the OnceLock.
        let before = self.passes.fetch_add(vectors, Ordering::Relaxed);
        if before == 0 && vectors == 1 && self.arena.get().is_none() {
            return self.in_place();
        }
        let arena = self.arena.get_or_init(|| copy_runs(self.packed, self.b, self.words, idxs));
        Pass::Arena(ArenaRows(arena))
    }

    /// Where rows live now, claiming no pass.
    pub(crate) fn current(&self) -> Pass<'_> {
        match self.arena.get() {
            Some(arena) => Pass::Arena(ArenaRows(arena)),
            None => self.in_place(),
        }
    }

    fn in_place(&self) -> Pass<'_> {
        Pass::InPlace(PackedRows { packed: self.packed, b: self.b, base: [0; 3] })
    }
}

/// A source of block rows, narrowed to one block at a time.
pub(crate) trait Rows<'d>: Copy {
    /// This source narrowed to the block `idx` stored at
    /// `offset..offset + len` of the arena.
    fn block(self, idx: BlockIdx, offset: usize, len: usize) -> Self;

    /// Row `(li, lj)` of the current block: the `run` words that start at
    /// `pos` in the block's arena layout.
    fn row(self, pos: usize, li: usize, lj: usize, run: usize) -> &'d [f64];
}

/// Rows read from the contiguous arena.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArenaRows<'d>(&'d [f64]);

impl<'d> Rows<'d> for ArenaRows<'d> {
    #[inline(always)]
    fn block(self, _idx: BlockIdx, offset: usize, len: usize) -> Self {
        ArenaRows(&self.0[offset..offset + len])
    }

    #[inline(always)]
    fn row(self, pos: usize, _li: usize, _lj: usize, run: usize) -> &'d [f64] {
        &self.0[pos..pos + run]
    }
}

/// Rows read in place from the packed tensor: row `(li, lj)` of block
/// `(I, J, K)` starts at `tet(gi+li) + tri(gj+lj) + gk`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackedRows<'d> {
    packed: &'d [f64],
    b: usize,
    /// The block's first global row, column and fiber: `(gi, gj, gk)`.
    base: [usize; 3],
}

impl<'d> PackedRows<'d> {
    #[inline(always)]
    fn at(packed: &'d [f64], b: usize, idx: BlockIdx) -> Self {
        PackedRows { packed, b, base: [idx.i * b, idx.j * b, idx.k * b] }
    }
}

impl<'d> Rows<'d> for PackedRows<'d> {
    #[inline(always)]
    fn block(self, idx: BlockIdx, _offset: usize, _len: usize) -> Self {
        PackedRows::at(self.packed, self.b, idx)
    }

    #[inline(always)]
    fn row(self, _pos: usize, li: usize, lj: usize, run: usize) -> &'d [f64] {
        let [gi, gj, gk] = self.base;
        let start = tet(gi + li) + tri(gj + lj) + gk;
        &self.packed[start..start + run]
    }
}

/// The row source of one vector pass, chosen once before any block runs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Pass<'d> {
    /// The rank's first pass: rows read in place from the packed tensor.
    InPlace(PackedRows<'d>),
    /// Every later pass: rows streamed from the contiguous arena.
    Arena(ArenaRows<'d>),
}

impl Pass<'_> {
    /// Runs `blocks` over one vector's flat `x`/`y` slabs (keyed by row
    /// slot), with the kernels monomorphized for this pass's row source.
    /// `scratch` is a caller-provided `3b`-word buffer. Returns the blocks'
    /// exact ternary count.
    #[inline]
    pub(crate) fn run(
        self,
        blocks: &[PlanBlock],
        b: usize,
        x: &[f64],
        y: &mut [f64],
        scratch: &mut [f64],
    ) -> u64 {
        match self {
            Pass::InPlace(rows) => run_blocks(rows, blocks, b, x, y, scratch),
            Pass::Arena(rows) => run_blocks(rows, blocks, b, x, y, scratch),
        }
    }
}

/// Dispatches each block to its kind-specific kernel.
///
/// `x`/`y` are flat `t_count·b` slabs keyed by row slot; `scratch` is
/// re-zeroed by each kernel so it can be reused across blocks without
/// reallocation.
#[inline]
fn run_blocks<'d, R: Rows<'d>>(
    rows: R,
    blocks: &[PlanBlock],
    b: usize,
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    let mut ternary = 0;
    for blk in blocks {
        let data = rows.block(blk.idx, blk.offset, blk.len);
        let s = blk.slots;
        ternary += match blk.kind {
            BlockKind::OffDiagonal => off_diagonal(data, b, s, x, y, scratch),
            BlockKind::NonCentralIIK => iik(data, b, s, x, y, scratch),
            BlockKind::NonCentralIKK => ikk(data, b, s, x, y, scratch),
            BlockKind::CentralDiagonal => central(data, b, s, x, y, scratch),
        };
    }
    ternary
}

/// The shared chunked-parallel driver behind [`OwnedBlocks::compute_par`]
/// and the compiled-plan pooled compute: splits `n_blocks` into
/// `min(n_blocks, MAX_COMPUTE_CHUNKS)` contiguous ranges, runs
/// `run_range(range, partial, scratch)` per chunk into a zeroed
/// `y.len() + 3b`-word workspace leased from the pool, tree-reduces the
/// partials pairwise in fixed chunk order and adds the result into `y`.
///
/// Because legacy and plan paths funnel through the *same* decomposition,
/// lease discipline and reduction tree, their pooled results are bitwise
/// equal whenever their per-block kernels are.
pub(crate) fn chunked_compute_flat<F>(
    n_blocks: usize,
    b: usize,
    y: &mut [f64],
    pool: &symtensor_pool::Pool,
    run_range: F,
) -> u64
where
    F: Fn(std::ops::Range<usize>, &mut [f64], &mut [f64]) -> u64 + Sync,
{
    if n_blocks == 0 {
        return 0;
    }
    let chunks = n_blocks.min(MAX_COMPUTE_CHUNKS);
    let y_len = y.len();
    let ws = pool.workspaces();
    let partials = pool.run_chunks(chunks, |c| {
        let lo = c * n_blocks / chunks;
        let hi = (c + 1) * n_blocks / chunks;
        let mut buf = ws.lease_zeroed(y_len + 3 * b);
        let (partial, scratch) = buf.split_at_mut(y_len);
        let ternary = run_range(lo..hi, partial, scratch);
        (buf, ternary)
    });
    let (buf, ternary) = symtensor_pool::tree_reduce(partials, |(mut a, ta), (bb, tb)| {
        add_into(&mut a[..y_len], &bb[..y_len]);
        ws.give_back(bb);
        (a, ta + tb)
    })
    .expect("at least one chunk");
    add_into(y, &buf[..y_len]);
    ws.give_back(buf);
    ternary
}

/// Off-diagonal block: all global indices strictly ordered, so every element
/// performs the full 3-update with symmetry factor 2 (3 ternary mults in the
/// model). The inner loop is one fused contiguous pass over `lk`: the
/// `y_K` update and the `Σ_k a·x_k` dot product share a single load of the
/// tensor element.
#[inline]
fn off_diagonal<'d, R: Rows<'d>>(
    rows: R,
    b: usize,
    slots: [usize; 3],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    let [pi, pj, pk] = slots;
    let (yi_local, rest) = scratch.split_at_mut(b);
    let (yj_local, yk_local) = rest.split_at_mut(b);
    yi_local.fill(0.0);
    yj_local.fill(0.0);
    yk_local.fill(0.0);
    let xi = &x[pi * b..pi * b + b];
    let xj = &x[pj * b..pj * b + b];
    let xk = &x[pk * b..pk * b + b];
    for (li, &xia) in xi.iter().enumerate() {
        for (lj, &xjb) in xj.iter().enumerate() {
            let row = rows.row((li * b + lj) * b, li, lj, b);
            let pref = 2.0 * xia * xjb;
            let mut dot_k = 0.0;
            for ((&v, &xkv), ykv) in row.iter().zip(xk).zip(yk_local.iter_mut()) {
                *ykv += pref * v;
                dot_k += v * xkv;
            }
            yi_local[li] += 2.0 * dot_k * xjb;
            yj_local[lj] += 2.0 * dot_k * xia;
        }
    }
    add_into(&mut y[pi * b..pi * b + b], yi_local);
    add_into(&mut y[pj * b..pj * b + b], yj_local);
    add_into(&mut y[pk * b..pk * b + b], yk_local);
    3 * (b as u64).pow(3)
}

/// Non-central (I, I, K): elements `(gi+li, gi+lj, gk+lk)` with `li ≥ lj`.
#[inline]
fn iik<'d, R: Rows<'d>>(
    rows: R,
    b: usize,
    slots: [usize; 3],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    let (pi, pk) = (slots[0], slots[2]);
    let (yi_local, rest) = scratch.split_at_mut(b);
    let (yk_local, _) = rest.split_at_mut(b);
    yi_local.fill(0.0);
    yk_local.fill(0.0);
    let xi = &x[pi * b..pi * b + b];
    let xk = &x[pk * b..pk * b + b];
    let mut ternary = 0u64;
    let mut pos = 0;
    for li in 0..b {
        for lj in 0..=li {
            let row = rows.row(pos, li, lj, b);
            pos += b;
            if li != lj {
                // Global i > j > k: full 3-update.
                let pref = 2.0 * xi[li] * xi[lj];
                let mut dot_k = 0.0;
                for ((&v, &xkv), ykv) in row.iter().zip(xk).zip(yk_local.iter_mut()) {
                    *ykv += pref * v;
                    dot_k += v * xkv;
                }
                yi_local[li] += 2.0 * dot_k * xi[lj];
                yi_local[lj] += 2.0 * dot_k * xi[li];
                ternary += 3 * b as u64;
            } else {
                // Global i == j > k: y_i += 2·a·x_i·x_k ; y_k += a·x_i².
                let sq = xi[li] * xi[li];
                let mut dot_k = 0.0;
                for ((&v, &xkv), ykv) in row.iter().zip(xk).zip(yk_local.iter_mut()) {
                    *ykv += sq * v;
                    dot_k += v * xkv;
                }
                yi_local[li] += 2.0 * dot_k * xi[li];
                ternary += 2 * b as u64;
            }
        }
    }
    add_into(&mut y[pi * b..pi * b + b], yi_local);
    add_into(&mut y[pk * b..pk * b + b], yk_local);
    ternary
}

/// Non-central (I, K, K): elements `(gi+li, gk+lj, gk+lk)` with `lj ≥ lk`.
///
/// Fused like [`row_segment`]: per packed row `(li, lj)` the strict
/// `lk < lj` run shares one pass between the `y_K` update and the dot
/// product, with the `lj == lk` diagonal element peeled as an epilogue.
#[inline]
fn ikk<'d, R: Rows<'d>>(
    rows: R,
    b: usize,
    slots: [usize; 3],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    let (pi, pk) = (slots[0], slots[2]);
    let (yi_local, rest) = scratch.split_at_mut(b);
    let (yk_local, _) = rest.split_at_mut(b);
    yi_local.fill(0.0);
    yk_local.fill(0.0);
    let xi = &x[pi * b..pi * b + b];
    let xk = &x[pk * b..pk * b + b];
    let tri_len = b * (b + 1) / 2;
    let mut ternary = 0u64;
    for (li, &xia) in xi.iter().enumerate() {
        let mut pos = li * tri_len;
        let mut yi_row = 0.0;
        for (lj, &xjb) in xk.iter().enumerate() {
            let row = rows.row(pos, li, lj, lj + 1);
            pos += lj + 1;
            // Strict lk < lj (global i > j > k): fused 3-update.
            let pref = 2.0 * xia * xjb;
            let mut dot = 0.0;
            for ((&v, &xkv), ykv) in row[..lj].iter().zip(&xk[..lj]).zip(yk_local[..lj].iter_mut())
            {
                *ykv += pref * v;
                dot += v * xkv;
            }
            yi_row += 2.0 * xjb * dot;
            yk_local[lj] += 2.0 * xia * dot;
            // lj == lk epilogue (global i > j == k):
            // y_i += a·x_k² ; y_k += 2·a·x_i·x_k.
            let v = row[lj];
            yi_row += v * xjb * xjb;
            yk_local[lj] += 2.0 * v * xia * xjb;
            ternary += 3 * lj as u64 + 2;
        }
        yi_local[li] += yi_row;
    }
    add_into(&mut y[pi * b..pi * b + b], yi_local);
    add_into(&mut y[pk * b..pk * b + b], yk_local);
    ternary
}

/// Central (I, I, I): the packed `li ≥ lj ≥ lk` tetrahedron **is** a packed
/// symmetric `b`-tensor, so the kernel is a cursor walk delegating each
/// packed row to [`row_segment`] — literally the same inner loop as the
/// flat-slab sequential kernel in `core::seq`.
#[inline]
fn central<'d, R: Rows<'d>>(
    rows: R,
    b: usize,
    slots: [usize; 3],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    let pi = slots[0];
    let (yi_local, _) = scratch.split_at_mut(b);
    yi_local.fill(0.0);
    let xi = &x[pi * b..pi * b + b];
    let mut ternary = 0u64;
    let mut pos = 0;
    for li in 0..b {
        for lj in 0..=li {
            debug_assert_eq!(pos, tet_idx(li, lj, 0));
            ternary += row_segment(rows.row(pos, li, lj, lj + 1), li, lj, 0, xi, yi_local);
            pos += lj + 1;
        }
    }
    add_into(&mut y[pi * b..pi * b + b], yi_local);
    ternary
}

#[inline]
pub(crate) fn add_into(dst: &mut [f64], src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tetra::ternary_mults_in_block;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor_core::generate::random_symmetric;
    use symtensor_core::seq::sttsv_sym;
    use symtensor_steiner::{spherical, sqs8};

    /// Reference: run every rank's kernels serially and assemble the global
    /// y; must equal sequential Algorithm 4.
    fn run_all_ranks(part: &TetraPartition, tensor: &SymTensor3, x: &[f64]) -> (Vec<f64>, u64) {
        let n = part.dim();
        let b = part.block_size();
        let mut y = vec![0.0; n];
        let mut total_ternary = 0;
        for p in 0..part.num_procs() {
            let owned = OwnedBlocks::extract(tensor, part, p);
            let rp = part.r_set(p);
            let x_full: Vec<Vec<f64>> =
                rp.iter().map(|&i| x[part.block_range(i)].to_vec()).collect();
            let mut y_acc: Vec<Vec<f64>> = vec![vec![0.0; b]; rp.len()];
            let pos = |i: usize| rp.binary_search(&i).unwrap();
            total_ternary += owned.compute(&x_full, &mut y_acc, pos);
            for (t, &i) in rp.iter().enumerate() {
                for (off, g) in part.block_range(i).enumerate() {
                    y[g] += y_acc[t][off];
                }
            }
        }
        (y, total_ternary)
    }

    #[test]
    fn kernels_reproduce_sequential_sttsv_q2() {
        let mut rng = StdRng::seed_from_u64(71);
        let part = TetraPartition::new(spherical(2), 20).unwrap();
        let tensor = random_symmetric(20, &mut rng);
        let x: Vec<f64> = (0..20).map(|i| ((i + 1) as f64 * 0.31).sin()).collect();
        let (y_par, ternary) = run_all_ranks(&part, &tensor, &x);
        let (y_seq, ops) = sttsv_sym(&tensor, &x);
        for i in 0..20 {
            assert!((y_par[i] - y_seq[i]).abs() < 1e-10, "y[{i}]: {} vs {}", y_par[i], y_seq[i]);
        }
        assert_eq!(ternary, ops.ternary_mults);
    }

    #[test]
    fn kernels_reproduce_sequential_sttsv_q3() {
        let mut rng = StdRng::seed_from_u64(72);
        let n = 40; // b = 4.
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        let (y_par, ternary) = run_all_ranks(&part, &tensor, &x);
        let (y_seq, ops) = sttsv_sym(&tensor, &x);
        for i in 0..n {
            assert!((y_par[i] - y_seq[i]).abs() < 1e-9, "y[{i}]");
        }
        assert_eq!(ternary, ops.ternary_mults);
    }

    #[test]
    fn kernels_reproduce_sequential_sttsv_sqs8() {
        let mut rng = StdRng::seed_from_u64(73);
        let n = 24; // m = 8, b = 3.
        let part = TetraPartition::new(sqs8(), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        let (y_par, _) = run_all_ranks(&part, &tensor, &x);
        let (y_seq, _) = sttsv_sym(&tensor, &x);
        for i in 0..n {
            assert!((y_par[i] - y_seq[i]).abs() < 1e-10, "y[{i}]");
        }
    }

    #[test]
    fn per_block_ternary_counts_match_formulas() {
        let mut rng = StdRng::seed_from_u64(74);
        let n = 30; // q = 2, b = 6.
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let b = part.block_size();
        let x = vec![1.0; n];
        for p in 0..part.num_procs() {
            let owned = OwnedBlocks::extract(&tensor, &part, p);
            let rp = part.r_set(p);
            let x_full: Vec<Vec<f64>> =
                rp.iter().map(|&i| x[part.block_range(i)].to_vec()).collect();
            let mut y_acc: Vec<Vec<f64>> = vec![vec![0.0; b]; rp.len()];
            let pos = |i: usize| rp.binary_search(&i).unwrap();
            let measured = owned.compute(&x_full, &mut y_acc, pos);
            let formula: u64 =
                part.owned_blocks(p).iter().map(|blk| ternary_mults_in_block(blk.kind(), b)).sum();
            assert_eq!(measured, formula, "processor {p}");
            assert_eq!(measured, part.ternary_mults(p));
        }
    }

    #[test]
    fn compute_par_matches_compute_and_is_thread_count_invariant() {
        use symtensor_pool::Pool;
        let mut rng = StdRng::seed_from_u64(76);
        let n = 40; // q = 3, b = 4: every block kind occurs.
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let b = part.block_size();
        let x: Vec<f64> = (0..n).map(|i| ((i + 2) as f64 * 0.23).sin()).collect();
        for p in (0..part.num_procs()).step_by(7) {
            let owned = OwnedBlocks::extract(&tensor, &part, p);
            let rp = part.r_set(p);
            let x_full: Vec<Vec<f64>> =
                rp.iter().map(|&i| x[part.block_range(i)].to_vec()).collect();
            let pos = |i: usize| rp.binary_search(&i).unwrap();

            let mut y_seq: Vec<Vec<f64>> = vec![vec![0.0; b]; rp.len()];
            let t_seq = owned.compute(&x_full, &mut y_seq, pos);

            let mut reference: Option<Vec<Vec<f64>>> = None;
            for threads in [1usize, 2, 3, 8] {
                let pool = Pool::new(threads);
                let mut y_par: Vec<Vec<f64>> = vec![vec![0.0; b]; rp.len()];
                let t_par = owned.compute_par(&x_full, &mut y_par, pos, &pool);
                assert_eq!(t_par, t_seq, "rank {p} threads={threads}: ternary count");
                for (t, (vp, vs)) in y_par.iter().zip(&y_seq).enumerate() {
                    for (o, (&a, &c)) in vp.iter().zip(vs).enumerate() {
                        assert!(
                            (a - c).abs() <= 1e-12 * (1.0 + c.abs()),
                            "rank {p} threads={threads} y[{t}][{o}]"
                        );
                    }
                }
                match &reference {
                    None => reference = Some(y_par),
                    Some(r) => assert_eq!(
                        &y_par, r,
                        "rank {p} threads={threads}: must be bit-identical across thread counts"
                    ),
                }
            }
        }
    }

    #[test]
    fn extraction_word_counts_match_partition() {
        let mut rng = StdRng::seed_from_u64(75);
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        for p in 0..part.num_procs() {
            let owned = OwnedBlocks::extract(&tensor, &part, p);
            assert_eq!(owned.words(), part.tensor_words(p));
        }
    }
}
