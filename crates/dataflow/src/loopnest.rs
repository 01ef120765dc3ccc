//! The tiled loop nest of the paper's Figure 4.
//!
//! Unrolling splits the six CONV loops into an outer sequential nest
//! (stepping by the factors) and an inner parallel box (executed by the
//! PE array in one engine step). [`TileIter`] walks the outer nest in the
//! paper's loop order (`m, n, r, c, i, j`), yielding one [`Tile`] per
//! engine step with edge-clamped extents. [`MacsPrefix`] sums the MACs
//! of any prefix of that walk in closed form, without walking it.

use crate::unroll::Unroll;
use crate::utilization::tile_count;
use flexsim_model::ConvLayer;

/// One engine step: the origin and (edge-clamped) extents of the inner
/// parallel box.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Output feature-map origin (`m`).
    pub m0: usize,
    /// Input feature-map origin (`n`).
    pub n0: usize,
    /// Output-neuron row origin (`r`).
    pub r0: usize,
    /// Output-neuron column origin (`c`).
    pub c0: usize,
    /// Synapse row origin (`i`).
    pub i0: usize,
    /// Synapse column origin (`j`).
    pub j0: usize,
    /// Effective `Tm` at this tile (clamped at the `M` edge).
    pub tm: usize,
    /// Effective `Tn` at this tile.
    pub tn: usize,
    /// Effective `Tr` at this tile.
    pub tr: usize,
    /// Effective `Tc` at this tile.
    pub tc: usize,
    /// Effective `Ti` at this tile.
    pub ti: usize,
    /// Effective `Tj` at this tile.
    pub tj: usize,
}

impl Tile {
    /// Useful MACs performed in this engine step.
    pub fn macs(&self) -> u64 {
        (self.tm * self.tn * self.tr * self.tc * self.ti * self.tj) as u64
    }
}

/// Iterator over the outer sequential nest.
///
/// # Example
///
/// ```
/// use flexsim_dataflow::{TileIter, Unroll};
/// use flexsim_model::ConvLayer;
///
/// let layer = ConvLayer::new("C", 2, 1, 4, 3);
/// let u = Unroll::new(2, 1, 1, 4, 1, 3);
/// let total: u64 = TileIter::new(&layer, u).map(|t| t.macs()).sum();
/// assert_eq!(total, layer.macs());
/// ```
#[derive(Clone, Debug)]
pub struct TileIter {
    m: usize,
    n: usize,
    s: usize,
    k: usize,
    u: Unroll,
    // Current origins; `done` marks exhaustion.
    m0: usize,
    n0: usize,
    r0: usize,
    c0: usize,
    i0: usize,
    j0: usize,
    done: bool,
    remaining: u64,
}

impl TileIter {
    /// Creates an iterator over the tiles of `layer` under `u`.
    pub fn new(layer: &ConvLayer, u: Unroll) -> Self {
        let remaining = tile_count(layer, &u);
        TileIter {
            m: layer.m(),
            n: layer.n(),
            s: layer.s(),
            k: layer.k(),
            u,
            m0: 0,
            n0: 0,
            r0: 0,
            c0: 0,
            i0: 0,
            j0: 0,
            done: false,
            remaining,
        }
    }

    fn advance(&mut self) {
        // Innermost-to-outermost carry, matching Fig. 4's loop order.
        self.j0 += self.u.tj;
        if self.j0 < self.k {
            return;
        }
        self.j0 = 0;
        self.i0 += self.u.ti;
        if self.i0 < self.k {
            return;
        }
        self.i0 = 0;
        self.c0 += self.u.tc;
        if self.c0 < self.s {
            return;
        }
        self.c0 = 0;
        self.r0 += self.u.tr;
        if self.r0 < self.s {
            return;
        }
        self.r0 = 0;
        self.n0 += self.u.tn;
        if self.n0 < self.n {
            return;
        }
        self.n0 = 0;
        self.m0 += self.u.tm;
        if self.m0 < self.m {
            return;
        }
        self.done = true;
    }
}

impl Iterator for TileIter {
    type Item = Tile;

    fn next(&mut self) -> Option<Tile> {
        if self.done {
            return None;
        }
        let tile = Tile {
            m0: self.m0,
            n0: self.n0,
            r0: self.r0,
            c0: self.c0,
            i0: self.i0,
            j0: self.j0,
            tm: self.u.tm.min(self.m - self.m0),
            tn: self.u.tn.min(self.n - self.n0),
            tr: self.u.tr.min(self.s - self.r0),
            tc: self.u.tc.min(self.s - self.c0),
            ti: self.u.ti.min(self.k - self.i0),
            tj: self.u.tj.min(self.k - self.j0),
        };
        self.advance();
        self.remaining -= 1;
        Some(tile)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining as usize;
        (r, Some(r))
    }
}

impl ExactSizeIterator for TileIter {}

/// Closed-form prefix sums of tile MACs along the [`TileIter`] walk of
/// one layer: [`MacsPrefix::at`]`(t)` is the sum of [`Tile::macs`] over
/// the first `t` tiles, in O(6) and without walking them.
///
/// `t` is written in mixed radix over the per-axis tile counts
/// (`m, n, r, c, i, j`, outermost first). The tiles before position `t`
/// are, for each axis `a`, those that agree with `t`'s digits on the
/// axes outside `a`, sit before `t`'s digit `dₐ` on `a`, and range
/// freely over the axes inside `a`. A tile's MACs are the product of
/// its six clamped extents, so each such block sums to
/// `∏ₒᵤₜₑᵣ clamped extent × dₐ·Tₐ × ∏ᵢₙₙₑᵣ E`, and
/// the blocks fold innermost first as
/// `Pₐ = dₐ·Tₐ·∏ᵢₙₙₑᵣ E + min(Tₐ, Eₐ − dₐ·Tₐ)·Pₐ₊₁`.
///
/// # Example
///
/// ```
/// use flexsim_dataflow::loopnest::MacsPrefix;
/// use flexsim_dataflow::{TileIter, Unroll};
/// use flexsim_model::ConvLayer;
///
/// let layer = ConvLayer::new("C", 3, 2, 5, 3);
/// let u = Unroll::new(2, 1, 2, 3, 2, 2);
/// let prefix = MacsPrefix::new(&layer, u);
/// let walked: u64 = TileIter::new(&layer, u).take(7).map(|t| t.macs()).sum();
/// assert_eq!(prefix.at(7), walked);
/// assert_eq!(prefix.at(u64::MAX), layer.macs());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MacsPrefix {
    // (extent, factor, tile count) per axis, outermost (`m`) first.
    axes: [(u64, u64, u64); 6],
    tiles: u64,
    macs: u64,
}

impl MacsPrefix {
    /// Precomputes the per-axis tile counts of `layer` under `u`.
    pub fn new(layer: &ConvLayer, u: Unroll) -> MacsPrefix {
        let axes = [
            (layer.m(), u.tm),
            (layer.n(), u.tn),
            (layer.s(), u.tr),
            (layer.s(), u.tc),
            (layer.k(), u.ti),
            (layer.k(), u.tj),
        ]
        .map(|(e, f)| (e as u64, f as u64, e.div_ceil(f) as u64));
        MacsPrefix {
            axes,
            tiles: axes.iter().map(|&(_, _, count)| count).product(),
            macs: axes.iter().map(|&(e, _, _)| e).product(),
        }
    }

    /// Useful MACs of the first `t` tiles (`t` past the end gives the
    /// whole layer).
    pub fn at(&self, t: u64) -> u64 {
        if t >= self.tiles {
            return self.macs;
        }
        self.fold(self.digits(t))
    }

    /// [`MacsPrefix::at`] at `stride`, `2·stride`, …, ending with the
    /// first multiple at or past the end of the walk (the whole layer).
    /// The position advances as mixed-radix digits with carries, so no
    /// step divides; that makes a step about 40% cheaper than `at`.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn strided(&self, stride: u64) -> impl Iterator<Item = u64> + '_ {
        assert!(stride > 0, "prefix stride must be non-zero");
        let step = self.digits(stride);
        let (mut t, mut pos) = (0u64, [0u64; 6]);
        std::iter::from_fn(move || {
            if t >= self.tiles {
                return None;
            }
            t = t.saturating_add(stride);
            if t >= self.tiles {
                return Some(self.macs);
            }
            let mut carry = 0;
            for a in (0..6).rev() {
                let count = self.axes[a].2;
                let digit = pos[a] + step[a] + carry;
                carry = u64::from(digit >= count);
                pos[a] = digit - carry * count;
            }
            Some(self.fold(pos))
        })
    }

    /// `t`'s mixed-radix digits over the per-axis tile counts (modulo
    /// the tile count), outermost first.
    fn digits(&self, t: u64) -> [u64; 6] {
        let mut digits = [0u64; 6];
        let mut rest = t;
        for a in (0..6).rev() {
            let count = self.axes[a].2;
            digits[a] = rest % count;
            rest /= count;
        }
        digits
    }

    /// MACs of the tiles before the position with `digits`, folded
    /// innermost axis first. (Index loops here and above: the
    /// zipped-iterator forms run about twice as slow.)
    fn fold(&self, digits: [u64; 6]) -> u64 {
        let (mut inner, mut sum) = (1u64, 0u64);
        for a in (0..6).rev() {
            let (e, f, _) = self.axes[a];
            let digit = digits[a];
            sum = digit * f * inner + f.min(e - digit * f) * sum;
            inner *= e;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_testkit::prop;
    use flexsim_testkit::prop_assert_eq;

    #[test]
    fn macs_prefix_equals_the_walked_running_sum() {
        // Extents and factors from overlapping ranges: factors larger
        // than their extents, exact fits and ragged edges on every axis
        // all occur; the scalar unroll is checked on every layer too.
        prop::check(
            "macs_prefix_equals_the_walked_running_sum",
            64,
            (
                (1usize..=6, 1usize..=6, 1usize..=8, 1usize..=4),
                (
                    1usize..=7,
                    1usize..=7,
                    1usize..=9,
                    1usize..=9,
                    1usize..=5,
                    1usize..=5,
                ),
            ),
            |&((m, n, s, k), (tm, tn, tr, tc, ti, tj))| {
                let layer = ConvLayer::new("P", m, n, s, k);
                for u in [Unroll::new(tm, tn, tr, tc, ti, tj), Unroll::scalar()] {
                    let prefix = MacsPrefix::new(&layer, u);
                    let count = tile_count(&layer, &u);
                    let mut running = 0u64;
                    let mut walk = TileIter::new(&layer, u);
                    for t in 0..=count {
                        prop_assert_eq!(prefix.at(t), running, "{u} at t={t}");
                        running += walk.next().map_or(0, |tile| tile.macs());
                    }
                    // Past the end: the whole layer.
                    for t in [count + 1, count + 7, u64::MAX] {
                        prop_assert_eq!(prefix.at(t), layer.macs(), "{u} at t={t}");
                    }
                    // Strided: the same values, one per stride, ending at
                    // the whole layer.
                    for stride in [1, 2, 3, 7, count, count + 1, u64::MAX] {
                        let want: Vec<u64> = (1..=count.div_ceil(stride))
                            .map(|i| prefix.at(i.saturating_mul(stride)))
                            .collect();
                        let got: Vec<u64> = prefix.strided(stride).collect();
                        prop_assert_eq!(got, want, "{u} stride {stride}");
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn covers_all_macs_exactly_once() {
        let layer = ConvLayer::new("C", 3, 2, 5, 4);
        for u in [
            Unroll::scalar(),
            Unroll::new(2, 2, 2, 3, 3, 2),
            Unroll::new(3, 2, 5, 5, 4, 4),
        ] {
            let total: u64 = TileIter::new(&layer, u).map(|t| t.macs()).sum();
            assert_eq!(total, layer.macs(), "coverage violated for {u}");
        }
    }

    #[test]
    fn length_matches_tile_count() {
        let layer = ConvLayer::new("C", 3, 2, 5, 4);
        let u = Unroll::new(2, 1, 2, 2, 3, 3);
        let iter = TileIter::new(&layer, u);
        assert_eq!(iter.len() as u64, tile_count(&layer, &u));
        assert_eq!(iter.count() as u64, tile_count(&layer, &u));
    }

    #[test]
    fn edge_tiles_are_clamped() {
        let layer = ConvLayer::new("C", 3, 1, 5, 2);
        let u = Unroll::new(2, 1, 3, 5, 2, 2);
        let tiles: Vec<_> = TileIter::new(&layer, u).collect();
        // m: 0..2 then 2..3 (clamped to 1); r: 0..3 then 3..5 (clamped to 2).
        assert!(tiles.iter().any(|t| t.m0 == 2 && t.tm == 1));
        assert!(tiles.iter().any(|t| t.r0 == 3 && t.tr == 2));
        // No tile extends past bounds.
        for t in &tiles {
            assert!(t.m0 + t.tm <= 3);
            assert!(t.r0 + t.tr <= 5);
        }
    }

    #[test]
    fn loop_order_is_m_outer_j_inner() {
        let layer = ConvLayer::new("C", 2, 1, 2, 2);
        let u = Unroll::scalar();
        let tiles: Vec<_> = TileIter::new(&layer, u).collect();
        // First tiles iterate j fastest.
        assert_eq!((tiles[0].j0, tiles[1].j0), (0, 1));
        assert_eq!(tiles[0].i0, tiles[1].i0);
        // m changes last.
        assert!(tiles[..tiles.len() / 2].iter().all(|t| t.m0 == 0));
        assert!(tiles[tiles.len() / 2..].iter().all(|t| t.m0 == 1));
    }

    #[test]
    fn single_tile_when_factors_cover_layer() {
        let layer = ConvLayer::new("C", 2, 2, 3, 2);
        let u = Unroll::new(2, 2, 3, 3, 2, 2);
        let tiles: Vec<_> = TileIter::new(&layer, u).collect();
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].macs(), layer.macs());
    }
}
