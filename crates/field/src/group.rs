//! Lane-group trilinear sampling for the batched advection kernel.
//!
//! [`GroupSampler`] gives every streamline lane its own stencil cache — the
//! same cache policy as one [`CellSampler`](crate::sampler::CellSampler) per
//! lane — but stores the cached corners as lane-major structure-of-arrays
//! rows of `f64`, [`GROUP_WIDTH`] lanes per chunk. The batch kernel hands it
//! one Runge–Kutta stage of a whole chunk at a time as coordinate rows plus
//! a slot mask ([`GroupSampler::sample_rows`]); locating and blending run as
//! straight elementwise loops over `[f64; GROUP_WIDTH]` arrays, which the
//! compiler turns into AVX-512 (or AVX2) vector code when the CPU has it.
//! The instruction set is detected once at construction and falls back to
//! portable scalar code computing the same bits.
//!
//! # Exactness
//!
//! Every lane's sample is bit-identical to `CellSampler::sample` on the same
//! block, counters included:
//!
//! * The fractional-coordinate, cell-index and blend formulas are the same
//!   operation sequences as `interp::locate_cell` / `interp::lerp_corners`,
//!   applied elementwise across lanes. IEEE-754 arithmetic is elementwise —
//!   a vector `vaddpd`/`vmulpd`/`vrndscalepd` lane computes exactly what the
//!   scalar instruction computes — and Rust never contracts `a * b + c`
//!   into a fused multiply-add, so vector and scalar code produce the same
//!   bits. The one re-phrasing is the cell index: the scalar path computes
//!   `(fx.floor() as usize).min(nx - 2)` (where the `as usize` cast
//!   saturates negatives to zero), the group path computes
//!   `fx.floor().max(0.0).min((nx - 2) as f64)` in `f64`; for every
//!   in-lattice coordinate both yield the same integer and the same
//!   `i as f64` used by the fraction subtraction.
//! * Corners are gathered by the same `interp::gather_corners` and stored
//!   through the exact `f32 as f64` conversion the scalar blend performs,
//!   so the blend operands are the same bits.
//! * Cache keys, hit/miss decisions and per-lane [`SamplerStats`] follow the
//!   same rules per lane; lanes never share cached state, so grouping cannot
//!   change any lane's decisions.
//!
//! Out-of-lattice queries drop out of the returned slot mask and leave the
//! lane's cache and counters untouched, exactly like the scalar sampler
//! returning `None`.

use crate::block::Block;
use crate::interp::{self, EDGE_TOL};
use crate::sampler::SamplerStats;
use streamline_math::Vec3;

/// Lanes per SIMD chunk: 8 × `f64` fills one AVX-512 register and two AVX2
/// registers. Groups wider than this span several chunks.
pub const GROUP_WIDTH: usize = 8;
const W: usize = GROUP_WIDTH;

/// One chunk's cached state, all lane-major: the cached cell index per lane
/// as `f64` rows (so the hit test is a vector compare; `-1` marks a cold
/// lane and can never match a clamped index) and the corner stencils as 24
/// rows — corner `c`, component `a` at row `c * 3 + a` — of one `f64` per
/// lane.
struct Chunk {
    ci: [f64; W],
    cj: [f64; W],
    ck: [f64; W],
    rows: [[f64; W]; 24],
}

impl Chunk {
    fn new() -> Self {
        Chunk { ci: [-1.0; W], cj: [-1.0; W], ck: [-1.0; W], rows: [[0.0; W]; 24] }
    }
}

/// Store a freshly gathered stencil into lane `slot`'s column, converting
/// each `f32` corner exactly as the scalar blend does.
#[inline]
fn write_column(rows: &mut [[f64; W]; 24], slot: usize, corners: &[[f32; 3]; 8]) {
    for (c, corner) in corners.iter().enumerate() {
        for (a, &v) in corner.iter().enumerate() {
            rows[c * 3 + a][slot] = v as f64;
        }
    }
}

/// Blend lane `slot`'s cached column with fractions `t` — the
/// `interp::lerp_corners` tree reading the pre-converted `f64` corners.
#[inline]
fn lerp_column(rows: &[[f64; W]; 24], slot: usize, t: [f64; 3]) -> Vec3 {
    let [tx, ty, tz] = t;
    let mx = 1.0 - tx;
    let my = 1.0 - ty;
    let mz = 1.0 - tz;
    let mut out = [0.0f64; 3];
    for (a, o) in out.iter_mut().enumerate() {
        let x00 = rows[a][slot] * mx + rows[3 + a][slot] * tx;
        let x10 = rows[6 + a][slot] * mx + rows[9 + a][slot] * tx;
        let x01 = rows[12 + a][slot] * mx + rows[15 + a][slot] * tx;
        let x11 = rows[18 + a][slot] * mx + rows[21 + a][slot] * tx;
        let y0 = x00 * my + x10 * ty;
        let y1 = x01 * my + x11 * ty;
        *o = y0 * mz + y1 * tz;
    }
    Vec3::new(out[0], out[1], out[2])
}

/// Evaluate one stage for one chunk: coordinates in `pos` rows, lanes to
/// sample in `mask`. Returns the mask of sampled slots that were inside the
/// lattice, their components written to the `out` rows.
///
/// The arithmetic runs over all `W` slots (unmasked slots compute on
/// whatever coordinates their rows hold and are discarded) so the loops
/// stay branch-free and fixed-width; cache maintenance is per masked slot.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)] // index-coupled lane loops are the vectorization shape
fn run_chunk_body(
    block: &Block,
    chunk: &mut Chunk,
    base: usize,
    stats: &mut [SamplerStats],
    pos: &[[f64; W]; 3],
    mask: u8,
    out: &mut [[f64; W]; 3],
) -> u8 {
    let [nx, ny, nz] = block.nodes;
    let o = block.origin;
    let iv = block.inv_spacing;

    // Fractional lattice coordinates, elementwise across lanes — the
    // locate_cell formulas.
    let mut fx = [0.0f64; W];
    let mut fy = [0.0f64; W];
    let mut fz = [0.0f64; W];
    for l in 0..W {
        fx[l] = (pos[0][l] - o.x) * iv.x;
    }
    for l in 0..W {
        fy[l] = (pos[1][l] - o.y) * iv.y;
    }
    for l in 0..W {
        fz[l] = (pos[2][l] - o.z) * iv.z;
    }
    // Lower cell corner as f64 (see the module docs for why the
    // max/min pair is the scalar cast-and-clamp), then the fractions.
    let (cx, cy, cz) = ((nx - 2) as f64, (ny - 2) as f64, (nz - 2) as f64);
    let mut fi = [0.0f64; W];
    let mut fj = [0.0f64; W];
    let mut fk = [0.0f64; W];
    for l in 0..W {
        fi[l] = fx[l].floor().max(0.0).min(cx);
    }
    for l in 0..W {
        fj[l] = fy[l].floor().max(0.0).min(cy);
    }
    for l in 0..W {
        fk[l] = fz[l].floor().max(0.0).min(cz);
    }
    let mut tx = [0.0f64; W];
    let mut ty = [0.0f64; W];
    let mut tz = [0.0f64; W];
    for l in 0..W {
        tx[l] = (fx[l] - fi[l]).clamp(0.0, 1.0);
    }
    for l in 0..W {
        ty[l] = (fy[l] - fj[l]).clamp(0.0, 1.0);
    }
    for l in 0..W {
        tz[l] = (fz[l] - fk[l]).clamp(0.0, 1.0);
    }

    // Bounds mask (locate_cell's comparisons, negated) and cached-cell hit
    // mask, both elementwise; `-1` cell rows from cold lanes never match.
    let (hx, hy, hz) =
        ((nx - 1) as f64 + EDGE_TOL, (ny - 1) as f64 + EDGE_TOL, (nz - 1) as f64 + EDGE_TOL);
    let mut inside = [false; W];
    for l in 0..W {
        inside[l] = !(fx[l] < -EDGE_TOL
            || fy[l] < -EDGE_TOL
            || fz[l] < -EDGE_TOL
            || fx[l] > hx
            || fy[l] > hy
            || fz[l] > hz);
    }
    let mut same = [false; W];
    for l in 0..W {
        same[l] = chunk.ci[l] == fi[l] && chunk.cj[l] == fj[l] && chunk.ck[l] == fk[l];
    }
    // Per-slot bookkeeping: hits are a branchless counter bump, misses (the
    // rare case) gather a fresh stencil and re-key the lane.
    let mut ok = 0u8;
    for slot in 0..W {
        if mask & (1 << slot) == 0 || !inside[slot] {
            continue;
        }
        ok |= 1 << slot;
        let lane = base + slot;
        if same[slot] {
            stats[lane].hits += 1;
        } else {
            let cell = [fi[slot] as usize, fj[slot] as usize, fk[slot] as usize];
            write_column(&mut chunk.rows, slot, &interp::gather_corners(block, cell));
            chunk.ci[slot] = fi[slot];
            chunk.cj[slot] = fj[slot];
            chunk.ck[slot] = fk[slot];
            stats[lane].misses += 1;
        }
    }

    // The trilinear blend tree, elementwise across lanes, written straight
    // to the output rows (unmasked and out-of-lattice slots get garbage the
    // caller must ignore — they are absent from the returned mask).
    let mut mx = [0.0f64; W];
    let mut my = [0.0f64; W];
    let mut mz = [0.0f64; W];
    for l in 0..W {
        mx[l] = 1.0 - tx[l];
    }
    for l in 0..W {
        my[l] = 1.0 - ty[l];
    }
    for l in 0..W {
        mz[l] = 1.0 - tz[l];
    }
    let rows = &chunk.rows;
    for a in 0..3 {
        let oa = &mut out[a];
        for l in 0..W {
            let x00 = rows[a][l] * mx[l] + rows[3 + a][l] * tx[l];
            let x10 = rows[6 + a][l] * mx[l] + rows[9 + a][l] * tx[l];
            let x01 = rows[12 + a][l] * mx[l] + rows[15 + a][l] * tx[l];
            let x11 = rows[18 + a][l] * mx[l] + rows[21 + a][l] * tx[l];
            let y0 = x00 * my[l] + x10 * ty[l];
            let y1 = x01 * my[l] + x11 * ty[l];
            oa[l] = y0 * mz[l] + y1 * tz[l];
        }
    }
    ok
}

type RunFn = unsafe fn(
    &Block,
    &mut Chunk,
    usize,
    &mut [SamplerStats],
    &[[f64; W]; 3],
    u8,
    &mut [[f64; W]; 3],
) -> u8;

/// SAFETY: callers go through [`pick_kernel`], which only returns this when
/// the CPU reports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn run_chunk_avx512(
    block: &Block,
    chunk: &mut Chunk,
    base: usize,
    stats: &mut [SamplerStats],
    pos: &[[f64; W]; 3],
    mask: u8,
    out: &mut [[f64; W]; 3],
) -> u8 {
    run_chunk_body(block, chunk, base, stats, pos, mask, out)
}

/// SAFETY: callers go through [`pick_kernel`], which only returns this when
/// the CPU reports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn run_chunk_avx2(
    block: &Block,
    chunk: &mut Chunk,
    base: usize,
    stats: &mut [SamplerStats],
    pos: &[[f64; W]; 3],
    mask: u8,
    out: &mut [[f64; W]; 3],
) -> u8 {
    run_chunk_body(block, chunk, base, stats, pos, mask, out)
}

/// Portable fallback; `unsafe fn` only to share the [`RunFn`] signature.
#[allow(clippy::too_many_arguments)]
unsafe fn run_chunk_portable(
    block: &Block,
    chunk: &mut Chunk,
    base: usize,
    stats: &mut [SamplerStats],
    pos: &[[f64; W]; 3],
    mask: u8,
    out: &mut [[f64; W]; 3],
) -> u8 {
    run_chunk_body(block, chunk, base, stats, pos, mask, out)
}

fn pick_kernel() -> (&'static str, RunFn) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return ("avx512f", run_chunk_avx512);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return ("avx2", run_chunk_avx2);
        }
    }
    ("portable", run_chunk_portable)
}

/// The instruction set the group sampler will use on this machine —
/// `"avx512f"`, `"avx2"` or `"portable"`. Every choice computes the same
/// bits; this is surfaced for benchmark reports.
pub fn simd_isa() -> &'static str {
    pick_kernel().0
}

/// A group of per-lane stencil-cached samplers over one block, evaluated a
/// whole Runge–Kutta stage at a time. See the module docs for layout and
/// the exactness argument.
pub struct GroupSampler<'b> {
    block: &'b Block,
    lanes: usize,
    stats: Vec<SamplerStats>,
    chunks: Vec<Chunk>,
    run: RunFn,
}

impl<'b> GroupSampler<'b> {
    pub fn new(block: &'b Block, lanes: usize) -> Self {
        GroupSampler {
            block,
            lanes,
            stats: vec![SamplerStats::default(); lanes],
            chunks: (0..lanes.div_ceil(W)).map(|_| Chunk::new()).collect(),
            run: pick_kernel().1,
        }
    }

    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// This lane's hit/miss counters — the numbers a scalar
    /// [`CellSampler`](crate::sampler::CellSampler) fed the same evaluation
    /// sequence would report.
    pub fn lane_stats(&self, lane: usize) -> SamplerStats {
        self.stats[lane]
    }

    /// Counters summed over all lanes.
    pub fn stats(&self) -> SamplerStats {
        let mut total = SamplerStats::default();
        for s in &self.stats {
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    /// Sample one lane at `p` — the scalar continuation (pre-step checks,
    /// step-control retries, the shared-face nudge) against the same cached
    /// state the staged path uses.
    #[inline]
    pub fn sample_lane(&mut self, lane: usize, p: Vec3) -> Option<Vec3> {
        let c = interp::locate_cell(self.block, p)?;
        let chunk = &mut self.chunks[lane / W];
        let slot = lane % W;
        let key = [c.cell[0] as f64, c.cell[1] as f64, c.cell[2] as f64];
        if chunk.ci[slot] == key[0] && chunk.cj[slot] == key[1] && chunk.ck[slot] == key[2] {
            self.stats[lane].hits += 1;
        } else {
            write_column(&mut chunk.rows, slot, &interp::gather_corners(self.block, c.cell));
            chunk.ci[slot] = key[0];
            chunk.cj[slot] = key[1];
            chunk.ck[slot] = key[2];
            self.stats[lane].misses += 1;
        }
        Some(lerp_column(&chunk.rows, slot, c.t))
    }

    /// Evaluate one stage for the chunk of lanes `base .. base +
    /// GROUP_WIDTH` (`base` must be chunk-aligned): slot `l` of the `pos` /
    /// `out` rows is lane `base + l`, and only slots set in `mask` are
    /// sampled. Returns the sampled slots that were inside the lattice;
    /// their components are in `out` (other slots hold garbage).
    ///
    /// Behaves exactly like calling [`Self::sample_lane`] for each masked
    /// slot in ascending order — same values, same counters.
    #[inline]
    pub fn sample_rows(
        &mut self,
        base: usize,
        pos: &[[f64; GROUP_WIDTH]; 3],
        mask: u8,
        out: &mut [[f64; GROUP_WIDTH]; 3],
    ) -> u8 {
        debug_assert!(base.is_multiple_of(W), "row evaluation must be chunk-aligned");
        // SAFETY: `run` was chosen by `pick_kernel` after verifying the
        // matching CPU feature at construction time.
        unsafe {
            (self.run)(
                self.block,
                &mut self.chunks[base / W],
                base,
                &mut self.stats,
                pos,
                mask,
                out,
            )
        }
    }
}

impl std::fmt::Debug for GroupSampler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupSampler")
            .field("block", &self.block.id)
            .field("lanes", &self.lanes())
            .field("isa", &simd_isa())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use crate::sampler::CellSampler;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use streamline_math::Aabb;

    fn wavy_block() -> Block {
        let mut b = Block::zeroed(
            BlockId(0),
            Aabb::new(Vec3::ZERO, Vec3::splat(2.0)),
            1,
            [7, 7, 7],
            Vec3::splat(0.5),
        );
        for k in 0..7 {
            for j in 0..7 {
                for i in 0..7 {
                    let p = b.node_pos(i, j, k);
                    b.set(i, j, k, Vec3::new((p.x * 1.3).sin(), p.y * p.z, (p.z - p.x).cos()));
                }
            }
        }
        b
    }

    fn bits(v: Vec3) -> [u64; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    /// Random per-lane walks, staged through the group sampler's row
    /// evaluation vs a scalar `CellSampler` per lane: every sample and every
    /// counter must match bitwise, including lanes that wander off the
    /// lattice (which must drop out of the returned mask).
    #[test]
    #[allow(clippy::needless_range_loop)] // index-coupled lane loops mirror the kernel shape
    fn staged_walks_match_scalar_samplers_bitwise() {
        let b = wavy_block();
        let lanes = 11usize; // spans two chunks, last one partial
        let n_chunks = lanes.div_ceil(GROUP_WIDTH);
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let mut group = GroupSampler::new(&b, lanes);
        let mut scalars: Vec<CellSampler> = (0..lanes).map(|_| CellSampler::new(&b)).collect();
        let mut pos: Vec<Vec3> = (0..lanes)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(0.0f64..1.8),
                    rng.gen_range(0.0f64..1.8),
                    rng.gen_range(0.0f64..1.8),
                )
            })
            .collect();

        let mut rows = [[0.0f64; GROUP_WIDTH]; 3];
        let mut out = [[0.0f64; GROUP_WIDTH]; 3];
        for round in 0..400 {
            // A changing subset of lanes queries each round, like the batch
            // kernel's shrinking active set.
            for ci in 0..n_chunks {
                let base = ci * GROUP_WIDTH;
                let mut mask = 0u8;
                for slot in 0..GROUP_WIDTH {
                    let lane = base + slot;
                    if lane < lanes && !(lane + round).is_multiple_of(3) {
                        mask |= 1 << slot;
                        rows[0][slot] = pos[lane].x;
                        rows[1][slot] = pos[lane].y;
                        rows[2][slot] = pos[lane].z;
                    }
                }
                let ok = group.sample_rows(base, &rows, mask, &mut out);
                assert_eq!(ok & !mask, 0, "ok mask must be a subset of the query mask");
                for slot in 0..GROUP_WIDTH {
                    if mask & (1 << slot) == 0 {
                        continue;
                    }
                    let lane = base + slot;
                    let want = scalars[lane].sample(pos[lane]);
                    if ok & (1 << slot) != 0 {
                        let got = Vec3::new(out[0][slot], out[1][slot], out[2][slot]);
                        let want =
                            want.unwrap_or_else(|| panic!("lane {lane} scalar None, group Some"));
                        assert_eq!(bits(want), bits(got), "lane {lane} round {round}");
                    } else {
                        assert!(want.is_none(), "lane {lane}: scalar Some, group dropped");
                    }
                }
            }
            // Step each lane; occasionally leave the lattice on purpose.
            for (lane, p) in pos.iter_mut().enumerate() {
                let kick: f64 = if rng.gen_range(0..40) == 0 { 3.0 } else { 0.0 };
                *p = Vec3::new(
                    (p.x + rng.gen_range(-0.06f64..0.08) + kick).rem_euclid(2.6) - 0.2,
                    (p.y + rng.gen_range(-0.06f64..0.08)).rem_euclid(2.6) - 0.2,
                    (p.z + rng.gen_range(-0.05f64..0.07)).rem_euclid(2.6) - 0.2,
                );
                // Interleave scalar one-off samples on some lanes, mirroring
                // the kernel's Phase A / retry-path usage.
                if rng.gen_range(0..5) == 0 {
                    let want = scalars[lane].sample(*p);
                    let got = group.sample_lane(lane, *p);
                    assert_eq!(want.map(bits), got.map(bits), "scalar interleave lane {lane}");
                }
            }
        }
        for lane in 0..lanes {
            assert_eq!(group.lane_stats(lane), scalars[lane].stats(), "lane {lane} counters");
        }
        let total = group.stats();
        assert_eq!(
            total.hits + total.misses,
            scalars.iter().map(|s| s.stats().hits + s.stats().misses).sum::<u64>()
        );
    }

    #[test]
    fn lattice_face_and_edge_queries_match() {
        let b = wavy_block();
        let mut group = GroupSampler::new(&b, 4);
        let mut scalar = CellSampler::new(&b);
        let mut rows = [[0.0f64; GROUP_WIDTH]; 3];
        let mut out = [[0.0f64; GROUP_WIDTH]; 3];
        // The ghost lattice spans [-0.5, 2.5]; probe its faces, the domain
        // faces, points a hair outside, and a deep outside point.
        let probes = [
            Vec3::new(-0.5, 0.0, 0.0),
            Vec3::new(2.5, 2.5, 2.5),
            Vec3::new(-0.5 - 1e-7, 0.3, 0.3),
            Vec3::new(0.0, 2.5 + 1e-7, 0.0),
            Vec3::splat(42.0),
            Vec3::new(1.0, 1.0, 1.0),
        ];
        for p in probes {
            rows[0][1] = p.x;
            rows[1][1] = p.y;
            rows[2][1] = p.z;
            let ok = group.sample_rows(0, &rows, 1 << 1, &mut out);
            let want = scalar.sample(p);
            match want {
                Some(w) => {
                    assert_eq!(ok, 1 << 1, "at {p:?}");
                    assert_eq!(
                        bits(w),
                        bits(Vec3::new(out[0][1], out[1][1], out[2][1])),
                        "at {p:?}"
                    );
                }
                None => assert_eq!(ok, 0, "at {p:?}"),
            }
        }
        assert_eq!(group.lane_stats(1), scalar.stats());
        assert_eq!(group.lane_stats(0), SamplerStats::default(), "unqueried lane stays cold");
    }

    /// The per-lane counters the segment oracle books: after a mix of
    /// staged rows and one-off lane samples, each lane's hits and misses
    /// are its scalar sampler's, and the lanes sum to `stats()` field by
    /// field.
    #[test]
    fn lane_counters_match_scalar_samplers_and_sum_to_the_total() {
        let b = wavy_block();
        let lanes = 2 * GROUP_WIDTH + 3;
        let mut rng = ChaCha8Rng::seed_from_u64(0x1a4e);
        let mut group = GroupSampler::new(&b, lanes);
        let mut scalars: Vec<CellSampler> = (0..lanes).map(|_| CellSampler::new(&b)).collect();
        let mut rows = [[0.0f64; GROUP_WIDTH]; 3];
        let mut out = [[0.0f64; GROUP_WIDTH]; 3];
        for _ in 0..200 {
            for base in (0..lanes).step_by(GROUP_WIDTH) {
                let mut mask = 0u8;
                for slot in 0..GROUP_WIDTH.min(lanes - base) {
                    if rng.gen_range(0..4) == 0 {
                        continue;
                    }
                    // Small moves revisit cells (hits); some leave the lattice.
                    let p = Vec3::new(
                        rng.gen_range(-0.6f64..2.6),
                        rng.gen_range(0.0f64..0.4),
                        rng.gen_range(0.0f64..0.4),
                    );
                    rows[0][slot] = p.x;
                    rows[1][slot] = p.y;
                    rows[2][slot] = p.z;
                    mask |= 1 << slot;
                    scalars[base + slot].sample(p);
                }
                group.sample_rows(base, &rows, mask, &mut out);
            }
            let lane = rng.gen_range(0..lanes);
            let p = Vec3::splat(rng.gen_range(0.0f64..2.0));
            assert_eq!(group.sample_lane(lane, p).map(bits), scalars[lane].sample(p).map(bits));
        }
        let mut sum = SamplerStats::default();
        for (lane, scalar) in scalars.iter().enumerate() {
            let counted = group.lane_stats(lane);
            assert_eq!(counted, scalar.stats(), "lane {lane}");
            sum.hits += counted.hits;
            sum.misses += counted.misses;
        }
        assert!(sum.hits > 0 && sum.misses > 0, "{sum:?}");
        assert_eq!(sum, group.stats());
    }

    #[test]
    fn isa_name_is_reported() {
        let isa = simd_isa();
        assert!(["avx512f", "avx2", "portable"].contains(&isa), "{isa}");
    }
}
