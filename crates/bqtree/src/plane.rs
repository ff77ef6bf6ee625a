//! Padded square bitmaps: one bitplane of a tile.

/// A `side × side` binary image (side a power of two), bit-packed per row
/// into `u64` words. Bit `(r, c)` is word `r * words_per_row + c/64`, bit
/// `c % 64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    side: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// All-zero bitmap. `side` must be a power of two and ≥ 4 (the literal
    /// leaf size).
    pub fn zero(side: usize) -> Self {
        assert!(
            side.is_power_of_two() && side >= 4,
            "side must be a power of two ≥ 4"
        );
        let words_per_row = side.div_ceil(64);
        Bitmap {
            side,
            words_per_row,
            words: vec![0; words_per_row * side],
        }
    }

    /// Smallest legal bitmap side covering a `rows × cols` tile.
    pub fn side_for(rows: usize, cols: usize) -> usize {
        rows.max(cols).max(4).next_power_of_two()
    }

    /// Extract bitplane `plane` of a row-major `u16` tile, zero-padded to a
    /// power-of-two square. Each row is built a `u64` word at a time.
    pub fn from_plane(values: &[u16], rows: usize, cols: usize, plane: u32) -> Self {
        debug_assert_eq!(values.len(), rows * cols);
        debug_assert!(plane < 16);
        let mut bm = Bitmap::zero(Self::side_for(rows, cols));
        for (r, row) in values.chunks_exact(cols).enumerate() {
            let out = &mut bm.words[r * bm.words_per_row..];
            for (word, cells) in out.iter_mut().zip(row.chunks(64)) {
                *word = cells
                    .iter()
                    .enumerate()
                    .fold(0, |w, (i, &v)| w | (((v >> plane) & 1) as u64) << i);
            }
        }
        bm
    }

    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.side && c < self.side);
        (self.words[r * self.words_per_row + c / 64] >> (c % 64)) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.side && c < self.side);
        self.words[r * self.words_per_row + c / 64] |= 1 << (c % 64);
    }

    /// Classify a quadtree region — the square `(r0..r0+size,
    /// c0..c0+size)`, `size` a power of two and `r0`, `c0` multiples of
    /// it: `Some(false)` all zeros, `Some(true)` all ones, `None` mixed.
    pub fn region_uniform(&self, r0: usize, c0: usize, size: usize) -> Option<bool> {
        debug_assert!(size.is_power_of_two() && r0.is_multiple_of(size) && c0.is_multiple_of(size));
        let first = self.get(r0, c0);
        let rows = self.words[r0 * self.words_per_row..(r0 + size) * self.words_per_row]
            .chunks_exact(self.words_per_row);
        if size >= 64 {
            let want = if first { u64::MAX } else { 0 };
            let words = c0 / 64..(c0 + size) / 64;
            for row in rows {
                if row[words.clone()].iter().any(|&w| w != want) {
                    return None;
                }
            }
        } else {
            // Aligned and narrower than a word: one masked compare per row.
            let mask = (u64::MAX >> (64 - size)) << (c0 % 64);
            let want = if first { mask } else { 0 };
            if rows.map(|row| row[c0 / 64] & mask).any(|w| w != want) {
                return None;
            }
        }
        Some(first)
    }

    /// Pack the 4×4 region at `(r0, c0)` (`c0` a multiple of 4) into 16
    /// bits, row-major LSB-first: one nibble per row.
    pub fn literal16(&self, r0: usize, c0: usize) -> u16 {
        debug_assert!(c0.is_multiple_of(4));
        (0..4).fold(0u16, |out, dr| {
            let word = self.words[(r0 + dr) * self.words_per_row + c0 / 64];
            out | (((word >> (c0 % 64)) & 0xF) as u16) << (4 * dr)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_for_covers_and_pads() {
        assert_eq!(Bitmap::side_for(1, 1), 4);
        assert_eq!(Bitmap::side_for(4, 4), 4);
        assert_eq!(Bitmap::side_for(5, 3), 8);
        assert_eq!(Bitmap::side_for(360, 360), 512);
        assert_eq!(Bitmap::side_for(100, 300), 512);
    }

    #[test]
    fn set_get() {
        let mut bm = Bitmap::zero(8);
        assert!(!bm.get(3, 5));
        bm.set(3, 5);
        assert!(bm.get(3, 5));
        assert!(!bm.get(5, 3));
    }

    #[test]
    fn plane_extraction() {
        // Values chosen so plane 0 and plane 3 differ.
        let values = vec![0b0001u16, 0b1000, 0b1001, 0b0000];
        let bm0 = Bitmap::from_plane(&values, 2, 2, 0);
        let bm3 = Bitmap::from_plane(&values, 2, 2, 3);
        assert!(bm0.get(0, 0) && !bm0.get(0, 1) && bm0.get(1, 0) && !bm0.get(1, 1));
        assert!(!bm3.get(0, 0) && bm3.get(0, 1) && bm3.get(1, 0) && !bm3.get(1, 1));
        // Padding is zero.
        assert!(!bm0.get(3, 3));
    }

    /// A `side` bitmap with the square `(r0, c0, size)` set.
    fn with_square(side: usize, r0: usize, c0: usize, size: usize) -> Bitmap {
        let mut bm = Bitmap::zero(side);
        for r in r0..r0 + size {
            for c in c0..c0 + size {
                bm.set(r, c);
            }
        }
        bm
    }

    #[test]
    fn region_uniform_detection() {
        assert_eq!(Bitmap::zero(8).region_uniform(0, 0, 8), Some(false));
        let bm = with_square(8, 0, 0, 4);
        assert_eq!(bm.region_uniform(0, 0, 4), Some(true));
        assert_eq!(bm.region_uniform(4, 4, 4), Some(false));
        assert_eq!(bm.region_uniform(0, 0, 8), None);
    }

    #[test]
    fn region_uniform_large_aligned() {
        assert_eq!(Bitmap::zero(128).region_uniform(0, 0, 128), Some(false));
        let bm = with_square(128, 0, 64, 64);
        assert_eq!(bm.region_uniform(0, 64, 64), Some(true));
        assert_eq!(bm.region_uniform(0, 0, 64), Some(false));
        assert_eq!(bm.region_uniform(0, 0, 128), None);
    }

    #[test]
    fn word_ops_match_per_cell_reference() {
        // Sparse and dense pseudo-random planes over a 100-column tile, so
        // rows span two words and regions sit at every in-word offset.
        let mut state = 0x9E37_79B9u32;
        for density in [1u32, 8, 15] {
            let values: Vec<u16> = (0..100 * 100)
                .map(|_| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    u16::from((state >> 28) < density)
                })
                .collect();
            let bm = Bitmap::from_plane(&values, 100, 100, 0);
            for r in 0..bm.side() {
                for c in 0..bm.side() {
                    let want = r < 100 && c < 100 && values[r * 100 + c] == 1;
                    assert_eq!(bm.get(r, c), want, "cell ({r}, {c})");
                }
            }
            let mut size = bm.side();
            while size >= 4 {
                for r0 in (0..bm.side()).step_by(size) {
                    for c0 in (0..bm.side()).step_by(size) {
                        let cells: Vec<bool> = (r0..r0 + size)
                            .flat_map(|r| (c0..c0 + size).map(move |c| (r, c)))
                            .map(|(r, c)| bm.get(r, c))
                            .collect();
                        let want = if cells.iter().all(|&b| b == cells[0]) {
                            Some(cells[0])
                        } else {
                            None
                        };
                        assert_eq!(bm.region_uniform(r0, c0, size), want, "{r0},{c0},{size}");
                        if size == 4 {
                            let lit = cells
                                .iter()
                                .enumerate()
                                .fold(0u16, |l, (i, &b)| l | u16::from(b) << i);
                            assert_eq!(bm.literal16(r0, c0), lit, "literal {r0},{c0}");
                        }
                    }
                }
                size /= 2;
            }
        }
    }

    #[test]
    fn literal_packing() {
        let mut bm = Bitmap::zero(8);
        bm.set(4, 5);
        bm.set(5, 4);
        bm.set(7, 7);
        assert_eq!(bm.literal16(4, 4), 1 << 1 | 1 << 4 | 1 << 15);
    }
}
