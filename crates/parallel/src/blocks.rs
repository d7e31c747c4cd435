//! Per-rank owned tensor storage and the local STTSV kernels.
//!
//! Under the owner-compute rule each processor reads its blocks from the
//! global tensor **once** and never communicates them. All of a rank's
//! blocks live in one shared, `(i, j, k)`-ordered arena with a per-block
//! `(idx, kind, offset, len)` table ([`OwnedBlock`]); the compiled
//! [`crate::plan::RankPlan`] takes a second handle to that same arena
//! instead of copying it, so a rank holds exactly one copy of its tensor
//! blocks. Per-block layouts within the arena:
//!
//! * off-diagonal block `(I, J, K)`, `I > J > K`: dense `b³`, index
//!   `(li·b + lj)·b + lk` with `li/lj/lk` local to `I/J/K`,
//! * non-central `(I, I, K)`: the `li ≥ lj` triangle over `I` crossed with
//!   `K`, index `tri(li, lj)·b + lk`,
//! * non-central `(I, K, K)`: `I` crossed with the `lj ≥ lk` triangle over
//!   `K`, index `li·tri_len + tri(lj, lk)`,
//! * central `(I, I, I)`: the packed `li ≥ lj ≥ lk` tetrahedron.
//!
//! Every layout keeps `lk` innermost, and `lk` is also the fastest index of
//! the packed tensor, so ingest copies each `(li, lj)` row of a block as
//! one contiguous run (`b` words, or `lj + 1` when `J = K`) — at most `b²`
//! slice copies per block rather than `b³` indexed gathers.
//!
//! The kernels perform, per stored element, exactly the updates of the
//! paper's Algorithm 4 case analysis (lines 24–36 of Algorithm 5), and
//! count ternary multiplications in the paper's model (3 / 2 / 1 updates
//! per element depending on index coincidences).

use crate::partition::TetraPartition;
use crate::tetra::{entries_in_block, BlockIdx, BlockKind};
use std::sync::Arc;
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

/// Where one owned tensor block sits in its rank's arena; read its entries
/// with [`OwnedBlocks::data`].
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

/// All tensor blocks owned by one rank, in one shared arena.
#[derive(Clone, Debug)]
pub struct OwnedBlocks {
    /// The block table, sorted by block index (= arena order).
    blocks: Vec<OwnedBlock>,
    /// Every block's entries back-to-back, shared with the rank's plan.
    arena: Arc<Vec<f64>>,
    b: usize,
}

impl OwnedBlocks {
    /// Extracts processor `p`'s blocks from the global tensor, copying each
    /// block row as one contiguous run of the packed tetrahedron.
    pub fn extract(tensor: &SymTensor3, part: &TetraPartition, p: usize) -> Self {
        assert_eq!(tensor.dim(), part.dim(), "tensor dimension mismatch");
        let b = part.block_size();
        let (blocks, words) = layout(part, p);
        let packed = tensor.packed();
        let mut arena = Vec::with_capacity(words);
        for blk in &blocks {
            let (gi, gj, gk) = (blk.idx.i * b, blk.idx.j * b, blk.idx.k * b);
            for li in 0..b {
                let row_base = tet(gi + li);
                // I = J: only the lj ≤ li triangle is stored.
                let lj_end = if blk.idx.i == blk.idx.j { li + 1 } else { b };
                for lj in 0..lj_end {
                    // J = K: only the lk ≤ lj prefix is stored.
                    let run = if blk.idx.j == blk.idx.k { lj + 1 } else { b };
                    let start = row_base + tri(gj + lj) + gk;
                    arena.extend_from_slice(&packed[start..start + run]);
                }
            }
            debug_assert_eq!(arena.len(), blk.offset + blk.len, "block {:?}", blk.idx);
        }
        OwnedBlocks { blocks, arena: Arc::new(arena), b }
    }

    /// Adopts `arena` as processor `p`'s blocks, laid out as
    /// [`OwnedBlocks::extract`] lays them out — the receiving end of a
    /// tensor scatter. The layout is a deterministic function of the
    /// partition, so sender and receiver agree without metadata. Returns
    /// `None` when `arena` does not hold exactly `p`'s tensor words.
    pub fn from_arena(part: &TetraPartition, p: usize, arena: Vec<f64>) -> Option<Self> {
        let (blocks, words) = layout(part, p);
        (arena.len() == words).then(|| OwnedBlocks {
            blocks,
            arena: Arc::new(arena),
            b: part.block_size(),
        })
    }

    /// Gives up the arena, copying it only if a plan still shares it.
    pub fn into_arena(self) -> Vec<f64> {
        Arc::try_unwrap(self.arena).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// The block table, sorted by block index (= arena order).
    #[inline]
    pub fn blocks(&self) -> &[OwnedBlock] {
        &self.blocks
    }

    /// Total stored words.
    pub fn words(&self) -> usize {
        self.arena.len()
    }

    /// Every block's entries back-to-back, in block-table order.
    #[inline]
    pub fn arena(&self) -> &[f64] {
        &self.arena
    }

    /// A second handle to the arena, for the compiled plan.
    pub(crate) fn shared_arena(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.arena)
    }

    /// `blk`'s entries in its kind-specific layout.
    #[inline]
    pub fn data(&self, blk: &OwnedBlock) -> &[f64] {
        &self.arena[blk.offset..blk.offset + blk.len]
    }

    /// The block edge length `b` these blocks were extracted with.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Resolves every block's `(i, j, k)` row-block triple into row *slots*
    /// (positions within `R_p`) **once**, so the kernels index flat `x`/`y`
    /// slabs directly instead of dispatching a lookup closure per block.
    pub(crate) fn slot_table<F>(&self, row_pos: &F) -> Vec<[usize; 3]>
    where
        F: Fn(usize) -> usize,
    {
        self.blocks
            .iter()
            .map(|blk| [row_pos(blk.idx.i), row_pos(blk.idx.j), row_pos(blk.idx.k)])
            .collect()
    }

    /// Runs the local STTSV kernels: `x_full` maps row-block index → the
    /// gathered full row block (length `b`); contributions accumulate into
    /// `y_acc` (same keying). Returns the ternary-multiplication count in
    /// the paper's model.
    ///
    /// `x_full`/`y_acc` are indexed by *position within `R_p`*; the
    /// `row_pos` lookup supplied by the caller is resolved **once** into a
    /// slot table up front (not dispatched per block), and the kernels run
    /// over flat `t_count·b` slabs.
    pub fn compute<F>(&self, x_full: &[Vec<f64>], y_acc: &mut [Vec<f64>], row_pos: F) -> u64
    where
        F: Fn(usize) -> usize,
    {
        let b = self.b;
        let slots = self.slot_table(&row_pos);
        let t_count = x_full.len();
        let mut x_flat = vec![0.0; t_count * b];
        for (t, row) in x_full.iter().enumerate() {
            debug_assert_eq!(row.len(), b);
            x_flat[t * b..t * b + b].copy_from_slice(row);
        }
        let mut y_flat = vec![0.0; t_count * b];
        let mut scratch = vec![0.0; 3 * b];
        let mut ternary: u64 = 0;
        for (blk, &s) in self.blocks.iter().zip(&slots) {
            let data = self.data(blk);
            ternary += block_kernel_flat(blk.kind, data, b, s, &x_flat, &mut y_flat, &mut scratch);
        }
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
    /// sequential one.
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
        let b = self.b;
        let slots = self.slot_table(&row_pos);
        let t_count = x_full.len();
        let ws = pool.workspaces();
        let mut xy = ws.lease_zeroed(2 * t_count * b);
        let (x_flat, y_flat) = xy.split_at_mut(t_count * b);
        for (t, row) in x_full.iter().enumerate() {
            debug_assert_eq!(row.len(), b);
            x_flat[t * b..t * b + b].copy_from_slice(row);
        }
        let blocks = &self.blocks;
        let x_flat = &*x_flat;
        let ternary =
            chunked_compute_flat(blocks.len(), b, y_flat, pool, |range, partial, scratch| {
                let mut t = 0u64;
                for (blk, &s) in blocks[range.clone()].iter().zip(&slots[range]) {
                    t +=
                        block_kernel_flat(blk.kind, self.data(blk), b, s, x_flat, partial, scratch);
                }
                t
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

/// Dispatches one block's data to its kind-specific flat kernel.
///
/// `x`/`y` are flat `t_count·b` slabs keyed by row slot (`slots` holds the
/// precomputed slots of the block's `(i, j, k)` rows); `scratch` is a
/// caller-provided `3b`-word buffer, re-zeroed here so it can be reused
/// across blocks without reallocation. Returns the block's exact ternary
/// count.
#[inline]
pub(crate) fn block_kernel_flat(
    kind: BlockKind,
    data: &[f64],
    b: usize,
    slots: [usize; 3],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    match kind {
        BlockKind::OffDiagonal => off_diagonal_flat(data, b, slots, x, y, scratch),
        BlockKind::NonCentralIIK => iik_flat(data, b, slots, x, y, scratch),
        BlockKind::NonCentralIKK => ikk_flat(data, b, slots, x, y, scratch),
        BlockKind::CentralDiagonal => central_flat(data, b, slots, x, y, scratch),
    }
}

/// Off-diagonal block: all global indices strictly ordered, so every element
/// performs the full 3-update with symmetry factor 2 (3 ternary mults in the
/// model). The inner loop is one fused contiguous pass over `lk`: the
/// `y_K` update and the `Σ_k a·x_k` dot product share a single load of the
/// tensor element.
#[inline]
fn off_diagonal_flat(
    data: &[f64],
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
            let row = &data[(li * b + lj) * b..(li * b + lj) * b + b];
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
fn iik_flat(
    data: &[f64],
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
            let row = &data[pos..pos + b];
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
fn ikk_flat(
    data: &[f64],
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
        let slab = &data[li * tri_len..(li + 1) * tri_len];
        let mut pos = 0;
        let mut yi_row = 0.0;
        for (lj, &xjb) in xk.iter().enumerate() {
            let row = &slab[pos..pos + lj + 1];
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
fn central_flat(
    data: &[f64],
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
            ternary += row_segment(&data[pos..pos + lj + 1], li, lj, 0, xi, yi_local);
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
