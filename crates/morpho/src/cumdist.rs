//! The cumulative SAD distance `D_B` (paper eq. 2).
//!
//! `D_B(F(x,y)) = Σ_{(i,j) ∈ Z²(B)} SAD(F(x,y), F(i,j))` sums a pixel's
//! spectral angle to every pixel in its `B`-neighbourhood. A pixel that
//! resembles its neighbours — in AMEE's reading a *mixed* one, made of
//! the materials around it — has a small `D_B`; a pixel that stands out
//! from its neighbourhood, the spectrally *purest* one there, has a large
//! one. Erosion and dilation ([`crate::ops`]) order the neighbourhood by
//! this scalar.
//!
//! Out-of-image coordinates clamp to the border (edge replication).
//!
//! **Who owns the memo.** An angle is a pure function of two *input*
//! pixels, so it is remembered by that pair (`PairMemo`) and not by the
//! image position or the scale that happened to ask. The caller that
//! knows how long the input lives owns the memo: [`cumdist_map`] one
//! for its single map, [`crate::mei::mei`] one for all its scales — a
//! dilation only moves input pixels around, so later scales mostly ask
//! about pairs an earlier one measured. The memo's buffers are lent to
//! it (`MemoBuffers`) by whoever holds them across calls — an
//! [`crate::mei::MeiWorkspace`] — and every parallel step writes into
//! them in place, so a pool helper allocates nothing.

use crate::se::StructuringElement;
use hsi_cube::metrics::{dots_into, dots_with, sad, sad_from_sums};
use hsi_cube::HyperCube;
use rayon::prelude::*;

/// Fixed line-chunk granularity of the parallel morphology kernels.
/// The grid depends only on the image height, never on the thread
/// count, and chunk results are concatenated in index order — so every
/// operation is bit-identical to its sequential scan.
pub(crate) const PAR_CHUNK_LINES: usize = 8;

/// Runs `per_line` over every line in fixed chunks (parallel across
/// chunks, sequential within), concatenating the per-line outputs in
/// line order.
pub(crate) fn par_lines_flat_map<T: Send>(
    lines: usize,
    per_line: impl Fn(usize, &mut Vec<T>) + Sync,
) -> Vec<T> {
    let blocks: Vec<Vec<T>> = (0..lines.div_ceil(PAR_CHUNK_LINES))
        .into_par_iter()
        .map(|b| {
            let mut part = Vec::new();
            for line in b * PAR_CHUNK_LINES..((b + 1) * PAR_CHUNK_LINES).min(lines) {
                per_line(line, &mut part);
            }
            part
        })
        .collect();
    blocks.into_iter().flatten().collect()
}

/// Fills `out`, `per_line` values for each image line, in the fixed line
/// chunks of [`par_lines_flat_map`] (parallel across chunks, sequential
/// within): `fill_line(line, values)` writes one line's. Nothing is
/// allocated; every value depends on its line alone, so `out` is the
/// same for any thread count.
pub(crate) fn par_lines_fill<T: Send>(
    out: &mut [T],
    per_line: usize,
    fill_line: impl Fn(usize, &mut [T]) + Sync,
) {
    let per_line = per_line.max(1);
    out.par_chunks_mut(PAR_CHUNK_LINES * per_line)
        .enumerate()
        .for_each(|(chunk, part)| {
            for (i, values) in part.chunks_mut(per_line).enumerate() {
                fill_line(chunk * PAR_CHUNK_LINES + i, values);
            }
        });
}

/// Makes `v` hold `n` values without reallocating.
pub(crate) fn at_least<T>(v: &mut Vec<T>, n: usize) {
    v.reserve_exact(n.saturating_sub(v.len()));
}

/// Clamps `(line, sample)` + offset to the image, returning valid
/// coordinates under edge replication.
#[inline]
pub fn clamped(
    cube: &HyperCube,
    line: usize,
    sample: usize,
    dl: isize,
    ds: isize,
) -> (usize, usize) {
    let l = (line as isize + dl).clamp(0, cube.lines() as isize - 1) as usize;
    let s = (sample as isize + ds).clamp(0, cube.samples() as isize - 1) as usize;
    (l, s)
}

/// `D_B` at one pixel: the definition, one [`sad`] per offset. The map
/// builder below forms the same sums from shared parts; the tests hold it
/// to this function bit for bit.
pub fn cumdist_at(cube: &HyperCube, se: &StructuringElement, line: usize, sample: usize) -> f64 {
    let center = cube.pixel(line, sample);
    let mut sum = 0.0;
    for &(dl, ds) in se.offsets() {
        let (l, s) = clamped(cube, line, sample, dl, ds);
        sum += sad(center, cube.pixel(l, s));
    }
    sum
}

/// `D_B` for every pixel, as a row-major map.
///
/// This is the hot kernel of the MORPH family. The definition asks for
/// `|B|` SADs per pixel — `3·|B|` band sums — and that is what the
/// *virtual* clock is charged (`hetero_hsi::flops::mei_iteration`). The
/// *host* forms each sum once (`cumdist_map_of` below): one squared norm
/// per pixel and one dot and angle per unordered pixel pair within the
/// element's reach, `O(lines × samples × (1 + |B|/2) × bands)`. Blocks
/// are computed in parallel (each value depends on the pixels alone) and
/// concatenated in order, so the map is bit-identical to a sequential
/// scan for any thread count.
pub fn cumdist_map(cube: &HyperCube, se: &StructuringElement) -> Vec<f64> {
    // One scale of the image as it is: nothing to remember afterwards.
    let mut memo = PairMemo::new(cube, se, MemoBuffers::default());
    let (mut origin, mut map) = (Vec::new(), Vec::new());
    identity_into(cube, &mut origin);
    cumdist_map_of(&mut memo, &origin, se, &mut map);
    map
}

/// Makes `origin` the coordinate map of an image that is its input:
/// every position shows the input pixel there, row-major.
pub(crate) fn identity_into(cube: &HyperCube, origin: &mut Vec<(usize, usize)>) {
    let samples = cube.samples();
    origin.clear();
    origin
        .extend((0..cube.lines()).flat_map(|line| (0..samples).map(move |sample| (line, sample))));
}

/// `1 +` the number of pair deltas of `se`: how many angle slots the memo
/// keeps a pixel (its angle with itself first).
pub(crate) fn pair_width(se: &StructuringElement) -> usize {
    1 + pair_deltas(se).len()
}

/// The lexicographically positive deltas `q − p` between a pixel `p` and
/// any neighbour `q` an offset of the element can reach from either end,
/// border clamping included: clamping shrinks an offset toward zero axis
/// by axis, so every shrunk offset counts, turned positive.
fn pair_deltas(se: &StructuringElement) -> Vec<(isize, isize)> {
    let toward_zero = |d: isize| if d < 0 { d..=0 } else { 0..=d };
    let mut deltas: Vec<(isize, isize)> = se
        .offsets()
        .iter()
        .flat_map(|&(dl, ds)| {
            toward_zero(dl).flat_map(move |l| toward_zero(ds).map(move |s| (l, s)))
        })
        .filter(|&d| d != (0, 0))
        .map(|(l, s)| if (l, s) < (0, 0) { (-l, -s) } else { (l, s) })
        .collect();
    deltas.sort_unstable();
    deltas.dedup();
    deltas
}

/// How many reserved pairs one parallel block of [`PairMemo::measure`]
/// takes: a fixed grid over the list, so the angles come back in list
/// order for any thread count.
const MEASURE_BLOCK: usize = 256;

/// `SAD(x, y)` of unordered pairs of **input** pixels, each formed at most
/// once while the memo lives.
///
/// `SAD(x, y)` is `x·y`, `‖x‖²` and `‖y‖²` through one tail
/// ([`sad_from_sums`]), and symmetric to the bit; the norms are summed
/// once per input pixel, and `SAD(x, x)` reads its dot from the norm. An
/// angle is a pure function of its pair, so what the memo hands out does
/// not depend on who asked first, in which order, or on how many threads.
///
/// Every angle lives in one array, `angles`, and a pair is named by its
/// slot there. Two input pixels within the element's reach of each other
/// — every pair the first scale of any image over this input asks about —
/// have the fixed slot `a·|deltas| + k`, measured when the memo is made
/// in one sweep that shares each pixel's loads across its far ends
/// ([`dots_with`]): no look-up table, no hashing. Pairs a dilation has
/// brought together from further apart are appended behind, found
/// through `far`.
pub(crate) struct PairMemo<'c> {
    cube: &'c HyperCube,
    buf: MemoBuffers,
    /// Dots formed between different pixels so far.
    dots: usize,
}

/// What a [`PairMemo`] and the `D_B` maps asked of it work in, lent by
/// the caller ([`PairMemo::new`]) and handed back
/// ([`PairMemo::into_buffers`]) with whatever capacity they reached.
/// Nothing in them outlives a memo's use: a memo made over them starts
/// from scratch.
#[derive(Default)]
pub(crate) struct MemoBuffers {
    /// `‖x‖²` of every input pixel, row-major.
    norms: Vec<f64>,
    /// `(0, 0)`, then [`pair_deltas`]: sorted.
    deltas: Vec<(isize, isize)>,
    /// `angles[a·|deltas| + k]` is `SAD` of the input pixels `a` and
    /// `a + deltas[k]` (never read where that lies outside the image);
    /// from `pixels·|deltas|` on, the pairs of `far` in the order met.
    angles: Vec<f64>,
    far: FarPairs,
    /// Pairs that were given the slots `angles.len()..` and wait for
    /// [`PairMemo::measure`], smaller end first.
    reserved: Vec<(usize, usize)>,
    /// [`cumdist_map_of`]'s slot of every position pair it sums.
    slots: Vec<u32>,
}

impl MemoBuffers {
    /// Room for a memo over `pixels` input pixels under an element of
    /// pair width `width` ([`pair_width`]) that meets `far` pairs out of
    /// each other's reach.
    pub(crate) fn reserve(&mut self, pixels: usize, width: usize, far: usize) {
        at_least(&mut self.norms, pixels);
        at_least(&mut self.deltas, width);
        at_least(&mut self.angles, pixels * width + far);
        at_least(&mut self.reserved, far);
        at_least(&mut self.slots, pixels * width);
        self.far.reserve(far);
    }

    /// What the buffers hold without reallocating, summed: it rises
    /// exactly when one of them grows.
    pub(crate) fn room(&self) -> usize {
        self.norms.capacity()
            + self.deltas.capacity()
            + self.angles.capacity()
            + self.reserved.capacity()
            + self.slots.capacity()
            + self.far.keys.capacity()
            + self.far.slots.capacity()
    }
}

impl<'c> PairMemo<'c> {
    /// A memo over `cube`'s pixels for maps under `se`, holding the
    /// angles of the input's own neighbour pairs, in `buf`.
    pub(crate) fn new(cube: &'c HyperCube, se: &StructuringElement, mut buf: MemoBuffers) -> Self {
        let (lines, samples) = (cube.lines(), cube.samples());
        let pixels = cube.num_pixels();
        buf.norms.clear();
        buf.norms.resize(pixels, 0.0);
        par_lines_fill(&mut buf.norms, samples, |line, norms| {
            let own = |sample| (cube.pixel(line, sample), cube.pixel(line, sample));
            dots_into(own, norms);
        });
        buf.deltas.clear();
        buf.deltas.push((0, 0));
        buf.deltas.extend(pair_deltas(se));
        let width = buf.deltas.len();
        assert!(
            u32::try_from(pixels * width).is_ok(),
            "cumdist: the image's pixel pairs do not fit the memo's 32-bit slots"
        );
        buf.angles.clear();
        buf.angles.resize(pixels * width, 0.0);
        let (norms, deltas) = (&buf.norms, &buf.deltas);
        par_lines_fill(&mut buf.angles, samples * width, |line, angles| {
            let mut ends = Vec::with_capacity(width);
            let mut far = Vec::with_capacity(width);
            for (sample, part) in angles.chunks_mut(width).enumerate() {
                ends.clear();
                far.clear();
                for (k, &(dl, ds)) in deltas.iter().enumerate().skip(1) {
                    let l = line.checked_add_signed(dl).filter(|&l| l < lines);
                    let s = sample.checked_add_signed(ds).filter(|&s| s < samples);
                    if let (Some(l), Some(s)) = (l, s) {
                        ends.push((k, l * samples + s));
                        far.push(cube.pixel(l, s));
                    }
                }
                let p = line * samples + sample;
                part[0] = sad_from_sums(norms[p], norms[p], norms[p]);
                dots_with(cube.pixel(line, sample), &far, |i, xy| {
                    let (k, q) = ends[i];
                    part[k] = sad_from_sums(xy, norms[p], norms[q]);
                });
            }
        });
        // A lexicographically positive delta goes down `dl` lines.
        let dots = buf.deltas[1..]
            .iter()
            .map(|&(dl, ds)| {
                lines.saturating_sub(dl.unsigned_abs()) * samples.saturating_sub(ds.unsigned_abs())
            })
            .sum();
        buf.far.clear();
        buf.reserved.clear();
        PairMemo { cube, buf, dots }
    }

    /// The buffers back, for the next memo.
    pub(crate) fn into_buffers(self) -> MemoBuffers {
        self.buf
    }

    /// Where a table of `pixels × |deltas|` entries keeps the unordered
    /// pair of the pixels at `a` and `b` — at its smaller end, under the
    /// delta to the other — when they lie within the element's reach.
    fn near_index(&self, a: (usize, usize), b: (usize, usize)) -> Option<usize> {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let delta = (b.0 as isize - a.0 as isize, b.1 as isize - a.1 as isize);
        let k = self.buf.deltas.binary_search(&delta).ok()?;
        Some((a.0 * self.cube.samples() + a.1) * self.buf.deltas.len() + k)
    }

    /// Where the angle between the input pixels at `a` and `b` is kept.
    /// A far pair asked about for the first time is given the next slot,
    /// which [`PairMemo::measure`] fills.
    pub(crate) fn slot(&mut self, a: (usize, usize), b: (usize, usize)) -> u32 {
        if let Some(near) = self.near_index(a, b) {
            return near as u32;
        }
        let samples = self.cube.samples();
        let (a, b) = (a.0 * samples + a.1, b.0 * samples + b.1);
        let (from, to) = (a.min(b), a.max(b));
        let next = (self.buf.angles.len() + self.buf.reserved.len()) as u32;
        let slot = self
            .buf
            .far
            .get_or_insert((from as u64) << 32 | to as u64, next);
        if slot == next {
            self.buf.reserved.push((from, to));
        }
        slot
    }

    /// Forms the angle of every pair reserved since the last call: one
    /// dot each, four pairs abreast ([`dots_into`]), in fixed blocks of
    /// the list written in place behind the angles already kept.
    pub(crate) fn measure(&mut self) {
        let buf = &mut self.buf;
        let (cube, norms, reserved) = (self.cube, &buf.norms, &buf.reserved);
        let at = buf.angles.len();
        buf.angles.resize(at + reserved.len(), 0.0);
        buf.angles[at..]
            .par_chunks_mut(MEASURE_BLOCK)
            .enumerate()
            .for_each(|(block, part)| {
                let pairs = &reserved[block * MEASURE_BLOCK..][..part.len()];
                dots_into(
                    |i| (cube.pixel_flat(pairs[i].0), cube.pixel_flat(pairs[i].1)),
                    part,
                );
                for (angle, &(a, b)) in part.iter_mut().zip(pairs) {
                    *angle = sad_from_sums(*angle, norms[a], norms[b]);
                }
            });
        self.dots += reserved.len();
        buf.reserved.clear();
    }

    /// The angle kept in `slot`, once measured.
    #[inline]
    pub(crate) fn angle(&self, slot: u32) -> f64 {
        self.buf.angles[slot as usize]
    }

    /// How many dots between different input pixels the memo has formed.
    pub(crate) fn dots(&self) -> usize {
        self.dots
    }
}

/// The memo's table for pairs out of each other's reach in the input:
/// pair key → slot, open addressing with linear probing on a power-of-two
/// capacity kept at most half full. Nothing is ever removed. (Keys are
/// this program's own pixel indices, so a multiplicative hash will do.)
#[derive(Default)]
struct FarPairs {
    keys: Vec<u64>,
    slots: Vec<u32>,
    len: usize,
}

impl FarPairs {
    /// No key: a pair's smaller index is in the high half, so a key never
    /// has every bit set.
    const VACANT: u64 = u64::MAX;

    /// The slot kept under `key`, which becomes `fresh` when there is none.
    fn get_or_insert(&mut self, key: u64, fresh: u32) -> u32 {
        if self.len * 2 >= self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            if self.keys[at] == key {
                return self.slots[at];
            }
            if self.keys[at] == Self::VACANT {
                self.keys[at] = key;
                self.slots[at] = fresh;
                self.len += 1;
                return fresh;
            }
            at = (at + 1) & mask;
        }
    }

    /// Room for `pairs` keys without growing: a capacity above twice
    /// that.
    fn reserve(&mut self, pairs: usize) {
        let capacity = (2 * pairs + 1).next_power_of_two().max(1024);
        if capacity > self.keys.len() {
            let old = std::mem::take(self);
            self.keys = vec![Self::VACANT; capacity];
            self.slots = vec![0; capacity];
            for (key, slot) in old.keys.into_iter().zip(old.slots) {
                if key != Self::VACANT {
                    self.get_or_insert(key, slot);
                }
            }
        }
    }

    /// Forgets every key, keeping the capacity.
    fn clear(&mut self) {
        self.keys.fill(Self::VACANT);
        self.len = 0;
    }

    fn grow(&mut self) {
        let capacity = (self.keys.len() * 2).max(1024);
        let grown = FarPairs {
            keys: vec![Self::VACANT; capacity],
            slots: vec![0; capacity],
            len: 0,
        };
        let old = std::mem::replace(self, grown);
        for (key, slot) in old.keys.into_iter().zip(old.slots) {
            if key != Self::VACANT {
                self.get_or_insert(key, slot);
            }
        }
    }
}

/// [`cumdist_map`] of the image that shows, at every position, the input
/// pixel `origin` names there — the input itself under [`identity`], MEI's
/// propagated cube later. Nothing cube-sized is materialised, and a pair
/// of input pixels `memo` has measured is not measured again.
///
/// Every unordered pair of positions an offset of the element joins
/// (a position with itself included) is looked up by its two input
/// pixels, new pairs are measured in one sweep, and `D_B` then sums its
/// SADs in `se.offsets()` order from the slots: every sum has the
/// operands and the order [`cumdist_at`] gives it.
pub(crate) fn cumdist_map_of(
    memo: &mut PairMemo<'_>,
    origin: &[(usize, usize)],
    se: &StructuringElement,
    map: &mut Vec<f64>,
) {
    let shape = memo.cube;
    let (lines, samples) = (shape.lines(), shape.samples());
    assert_eq!(origin.len(), lines * samples, "cumdist: wrong map size");
    // `slots[p·|deltas| + k]`: the slot of the pair of positions `p` and
    // `p + deltas[k]`; entries whose far end lies outside the image are
    // never read.
    let width = memo.buf.deltas.len();
    let mut slots = std::mem::take(&mut memo.buf.slots);
    slots.clear();
    slots.resize(origin.len() * width, 0);
    for line in 0..lines {
        for sample in 0..samples {
            let p = line * samples + sample;
            for k in 0..width {
                let (dl, ds) = memo.buf.deltas[k];
                let l = line.checked_add_signed(dl).filter(|&l| l < lines);
                let s = sample.checked_add_signed(ds).filter(|&s| s < samples);
                if let (Some(l), Some(s)) = (l, s) {
                    slots[p * width + k] = memo.slot(origin[p], origin[l * samples + s]);
                }
            }
        }
    }
    memo.measure();
    map.clear();
    map.resize(origin.len(), 0.0);
    let (memo_ref, slots_ref) = (&*memo, &slots);
    par_lines_fill(map, samples, |line, sums| {
        for (sample, sum) in sums.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &(dl, ds) in se.offsets() {
                let pair = memo_ref
                    .near_index((line, sample), clamped(shape, line, sample, dl, ds))
                    .expect("pair_deltas covers every clamped offset");
                acc += memo_ref.angle(slots_ref[pair]);
            }
            *sum = acc;
        }
    });
    memo.buf.slots = slots;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// 4x4, 2 bands: left half points one way, right half another.
    fn split_cube() -> HyperCube {
        let mut c = HyperCube::zeros(4, 4, 2);
        for l in 0..4 {
            for s in 0..4 {
                let px = c.pixel_mut(l, s);
                if s < 2 {
                    px[0] = 1.0;
                    px[1] = 0.0;
                } else {
                    px[0] = 0.0;
                    px[1] = 1.0;
                }
            }
        }
        c
    }

    #[test]
    fn constant_cube_has_zero_cumdist() {
        let c = HyperCube::from_vec(3, 3, 2, vec![0.5; 18]);
        let se = StructuringElement::square(1);
        let map = cumdist_map(&c, &se);
        assert!(map.iter().all(|&v| v < 1e-6));
    }

    #[test]
    fn boundary_pixels_score_higher() {
        let c = split_cube();
        let se = StructuringElement::square(1);
        let map = cumdist_map(&c, &se);
        let at = |l: usize, s: usize| map[l * 4 + s];
        // Column 1 touches the boundary; column 0 is interior-left.
        assert!(at(1, 1) > at(1, 0));
        // Symmetric on the right side.
        assert!(at(1, 2) > at(1, 3));
    }

    #[test]
    fn clamping_replicates_edges() {
        let c = split_cube();
        assert_eq!(clamped(&c, 0, 0, -1, -1), (0, 0));
        assert_eq!(clamped(&c, 3, 3, 2, 2), (3, 3));
        assert_eq!(clamped(&c, 1, 1, 1, 0), (2, 1));
    }

    #[test]
    fn cumdist_at_matches_manual_sum() {
        let c = split_cube();
        let se = StructuringElement::cross(1);
        // Pixel (1,1): neighbours (0,1),(2,1),(1,0) same class (SAD 0),
        // (1,2) orthogonal (SAD π/2), self 0.
        let d = cumdist_at(&c, &se, 1, 1);
        assert!((d - std::f64::consts::FRAC_PI_2).abs() < 1e-9, "{d}");
    }

    #[test]
    fn map_has_one_entry_per_pixel() {
        let c = split_cube();
        let se = StructuringElement::square(1);
        assert_eq!(cumdist_map(&c, &se).len(), 16);
    }

    /// The elements the map is pinned on: the paper's, a wider square, a
    /// thin one, a round one and one that is neither symmetric nor convex.
    pub(crate) fn elements() -> Vec<StructuringElement> {
        vec![
            StructuringElement::square(1),
            StructuringElement::square(2),
            StructuringElement::cross(2),
            StructuringElement::disk(2),
            StructuringElement::from_offsets(vec![(0, 1), (1, -1), (2, 0)]),
        ]
    }

    /// A textured cube (an LCG) with an all-zero pixel and a repeated one
    /// wherever the image is large enough to hold them.
    pub(crate) fn textured_cube(
        lines: usize,
        samples: usize,
        bands: usize,
        seed: u32,
    ) -> HyperCube {
        let mut state = seed;
        let data = (0..lines * samples * bands)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                0.05 + (state >> 8) as f32 / (1 << 24) as f32
            })
            .collect();
        let mut cube = HyperCube::from_vec(lines, samples, bands, data);
        if cube.num_pixels() > 3 {
            cube.pixel_mut(lines / 2, samples / 2).fill(0.0);
            let first = cube.pixel(0, 0).to_vec();
            cube.pixel_mut(lines - 1, samples - 1)
                .copy_from_slice(&first);
        }
        cube
    }

    fn assert_map_is_the_definition(cube: &HyperCube, se: &StructuringElement) {
        let map = cumdist_map(cube, se);
        assert_eq!(map.len(), cube.num_pixels());
        for (i, got) in map.iter().enumerate() {
            let (line, sample) = cube.coord_of(i);
            let want = cumdist_at(cube, se, line, sample);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}x{} {:?} at ({line},{sample}): {got} vs {want}",
                cube.lines(),
                cube.samples(),
                se.offsets()
            );
        }
    }

    #[test]
    fn map_equals_definition_on_degenerate_geometry() {
        // 1×1, single rows and columns, and images smaller than every
        // element's radius: all clamping, hardly any interior.
        for (lines, samples) in [
            (1, 1),
            (1, 2),
            (2, 1),
            (1, 9),
            (9, 1),
            (2, 2),
            (2, 5),
            (3, 3),
        ] {
            for se in elements() {
                assert_map_is_the_definition(&textured_cube(lines, samples, 5, 7), &se);
            }
        }
    }

    #[test]
    fn pair_deltas_of_the_paper_element_are_its_positive_half() {
        let se = StructuringElement::square(1);
        assert_eq!(pair_deltas(&se), vec![(0, 1), (1, -1), (1, 0), (1, 1)]);
        // Clamping can shrink (1,-1) to (0,-1) and (2,0) to (1,0).
        let se = StructuringElement::from_offsets(vec![(0, 1), (1, -1), (2, 0)]);
        assert_eq!(pair_deltas(&se), vec![(0, 1), (1, -1), (1, 0), (2, 0)]);
    }

    #[test]
    fn far_pairs_keep_their_slots_through_growth() {
        let mut table = FarPairs::default();
        let key = |i: u64| i << 32 | (i * 7 + 1);
        // Well past the first capacity, so the table rehashes twice.
        for i in 0..3000 {
            assert_eq!(table.get_or_insert(key(i), i as u32), i as u32);
        }
        for i in 0..3000 {
            assert_eq!(table.get_or_insert(key(i), u32::MAX), i as u32);
        }
        assert_eq!(table.len, 3000);
        assert!(table.keys.len() >= 2 * table.len);
    }

    #[test]
    fn the_memo_measures_a_pair_once_whoever_asks() {
        let cube = textured_cube(4, 5, 3, 5);
        let mut memo = PairMemo::new(
            &cube,
            &StructuringElement::square(1),
            MemoBuffers::default(),
        );
        // The input's own neighbour pairs are there from the start:
        // 4·4 along lines, 3·5 down columns, 2·3·4 diagonal.
        let near = 4 * 4 + 3 * 5 + 2 * 3 * 4;
        assert_eq!(memo.dots(), near);
        // A neighbour pair, a distant pair either way round, another, a
        // pixel with itself — then all of them again.
        let asks = [
            ((1, 1), (2, 2)),
            ((0, 0), (3, 4)),
            ((3, 4), (0, 0)),
            ((2, 0), (0, 3)),
            ((2, 3), (2, 3)),
        ];
        let slots: Vec<u32> = asks.iter().map(|&(a, b)| memo.slot(a, b)).collect();
        let behind = (cube.num_pixels() * 5) as u32;
        assert_eq!(slots[1..4], [behind, behind, behind + 1]);
        assert!(slots[0] < behind && slots[4] < behind);
        memo.measure();
        assert_eq!(memo.dots(), near + 2);
        let again: Vec<u32> = asks.iter().map(|&(a, b)| memo.slot(a, b)).collect();
        memo.measure();
        assert_eq!((again, memo.dots()), (slots.clone(), near + 2));
        for (&(a, b), slot) in asks.iter().zip(slots) {
            let want = sad(cube.pixel(a.0, a.1), cube.pixel(b.0, b.1));
            assert_eq!(memo.angle(slot).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn thread_counts_give_one_map() {
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool")
        };
        // 21 lines: three chunks of the fixed grid.
        let cube = textured_cube(21, 5, 6, 99);
        for se in elements() {
            let bits = |map: Vec<f64>| map.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let one = bits(pool(1).install(|| cumdist_map(&cube, &se)));
            for threads in [2, 3] {
                assert_eq!(bits(pool(threads).install(|| cumdist_map(&cube, &se))), one);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn map_equals_definition_on_random_geometry(
            lines in 1usize..12,
            samples in 1usize..8,
            bands in 1usize..9,
            seed in 0u32..u32::MAX,
            which in 0usize..5,
        ) {
            let se = &elements()[which];
            assert_map_is_the_definition(&textured_cube(lines, samples, bands, seed), se);
        }
    }
}
