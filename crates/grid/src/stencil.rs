//! Row slices for seven-point stencils on 3-D arrays.
//!
//! A stencil phase such as NAS SP's `compute_rhs` reads, for every point,
//! its two neighbours along each of the three dimensions. Done one row at a
//! time along the unit-stride last dimension, those six values come from
//! five contiguous slices — the row itself (widened by one point each side)
//! and the rows one step down and up dimensions 0 and 1 — so the point loop
//! does no index arithmetic and allocates nothing.
//!
//! [`HaloArray::star_row`](crate::HaloArray::star_row) yields these slices
//! from ghost-padded tile storage. [`dense_star_rows`] yields them from a
//! plain dense array under a zero boundary, splitting the boundary out
//! dimension by dimension so no point loop tests for it.

/// The seven-point neighbourhood of one row of a 3-D array along its last
/// dimension: everything a stencil needs to update the row's points.
#[derive(Debug, Clone, Copy)]
pub struct StarRow<'a> {
    /// The row with one extra point on each side along dimension 2:
    /// point `k` is `mid[k + 1]`.
    pub mid: &'a [f64],
    /// The rows one step down dimensions 0 and 1 (`lo[dim][k]`).
    pub lo: [&'a [f64]; 2],
    /// The rows one step up dimensions 0 and 1 (`hi[dim][k]`).
    pub hi: [&'a [f64]; 2],
}

impl<'a> StarRow<'a> {
    /// Build a star from its five slices.
    ///
    /// # Panics
    /// Panics unless `mid` is two points longer than each of the four
    /// neighbour rows, so every access in [`StarRow::nb`] is in bounds.
    pub fn new(mid: &'a [f64], lo: [&'a [f64]; 2], hi: [&'a [f64]; 2]) -> Self {
        assert!(mid.len() >= 2, "a star row needs its two dim-2 neighbours");
        let n = mid.len() - 2;
        assert!(
            lo.iter().chain(hi.iter()).all(|r| r.len() == n),
            "neighbour rows must hold {n} points"
        );
        StarRow { mid, lo, hi }
    }

    /// Number of points in the row.
    pub fn len(&self) -> usize {
        self.mid.len() - 2
    }

    /// True for a row of no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at point `k`.
    #[inline]
    pub fn center(&self, k: usize) -> f64 {
        self.mid[k + 1]
    }

    /// Neighbours of point `k`: `nb[dim] = [low, high]`.
    #[inline]
    pub fn nb(&self, k: usize) -> [[f64; 2]; 3] {
        [
            [self.lo[0][k], self.hi[0][k]],
            [self.lo[1][k], self.hi[1][k]],
            [self.mid[k], self.mid[k + 2]],
        ]
    }
}

/// Visit every row of a dense row-major 3-D array of extents `dims`, with
/// neighbours outside the array read as `0.0` (a zero Dirichlet boundary).
///
/// `f(off, star)` gets the storage offset of the star's point 0 and the
/// star itself; `data[off + k]` is `star.center(k)`. The boundary is split
/// out per dimension, the `[a,b) [b,c) [c,d)` way: along dimensions 0 and 1
/// a row on the boundary reads a zero row, and along dimension 2 each row
/// is visited as the points `[0, 1)`, `[1, n−1)` and `[n−1, n)`, the outer
/// two with a zero-padded copy of their three-point window. Every star's
/// inner points are therefore interior, and the caller's point loop holds
/// no boundary test.
///
/// ```
/// use mp_grid::stencil::dense_star_rows;
/// let data: Vec<f64> = (1..=6).map(f64::from).collect(); // 1×2×3
/// let mut sums = vec![0.0; 6];
/// dense_star_rows([1, 2, 3], &data, |off, star| {
///     for k in 0..star.len() {
///         let nb = star.nb(k);
///         sums[off + k] = nb.iter().map(|p| p[0] + p[1]).sum();
///     }
/// });
/// // Point (0, 0, 0) = 1 sees 2 along dim 2 and 4 along dim 1.
/// assert_eq!(sums, vec![6.0, 9.0, 8.0, 6.0, 12.0, 8.0]);
/// ```
pub fn dense_star_rows(dims: [usize; 3], data: &[f64], mut f: impl FnMut(usize, StarRow<'_>)) {
    let [n0, n1, n] = dims;
    assert_eq!(data.len(), n0 * n1 * n, "data must hold {dims:?} points");
    let (s0, s1) = (n1 * n, n);
    let zeros = vec![0.0; n];
    let row = |present: bool, at: usize| {
        if present {
            &data[at..at + n]
        } else {
            &zeros[..]
        }
    };
    for i in 0..n0 {
        for j in 0..n1 {
            let c = i * s0 + j * s1;
            let lo = [
                row(i > 0, c.wrapping_sub(s0)),
                row(j > 0, c.wrapping_sub(s1)),
            ];
            let hi = [row(i + 1 < n0, c + s0), row(j + 1 < n1, c + s1)];
            let line = &data[c..c + n];
            let at = |k: usize, len: usize| {
                (
                    [&lo[0][k..k + len], &lo[1][k..k + len]],
                    [&hi[0][k..k + len], &hi[1][k..k + len]],
                )
            };
            if n == 1 {
                let (l, h) = at(0, 1);
                f(c, StarRow::new(&[0.0, line[0], 0.0], l, h));
                continue;
            }
            let (l, h) = at(0, 1);
            f(c, StarRow::new(&[0.0, line[0], line[1]], l, h));
            let (l, h) = at(1, n - 2);
            f(c + 1, StarRow::new(line, l, h));
            let (l, h) = at(n - 1, 1);
            f(
                c + n - 1,
                StarRow::new(&[line[n - 2], line[n - 1], 0.0], l, h),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayD;
    use crate::halo::HaloArray;

    /// Visit every point once, through whichever star covers it, and return
    /// its neighbour values in storage order.
    fn dense_neighbours(dims: [usize; 3], data: &[f64]) -> Vec<[[f64; 2]; 3]> {
        let mut out = vec![[[f64::NAN; 2]; 3]; data.len()];
        let mut seen = vec![0u32; data.len()];
        dense_star_rows(dims, data, |off, star| {
            for k in 0..star.len() {
                assert_eq!(star.center(k), data[off + k]);
                out[off + k] = star.nb(k);
                seen[off + k] += 1;
            }
        });
        assert!(seen.iter().all(|&s| s == 1), "every point exactly once");
        out
    }

    #[test]
    fn dense_rows_match_zero_padded_halo_array() {
        // Odd, non-cubic extents, plus the one- and two-point rows whose
        // dim-2 split degenerates.
        for dims in [[3usize, 5, 7], [2, 3, 1], [4, 1, 2], [1, 1, 3]] {
            let a = ArrayD::from_fn(&dims, |g| (g[0] * 100 + g[1] * 10 + g[2]) as f64 + 1.0);
            let mut h = HaloArray::zeros(&dims, 1);
            h.set_interior_from(&a);
            let got = dense_neighbours(dims, a.as_slice());
            for i in 0..dims[0] {
                for j in 0..dims[1] {
                    let star = h.star_row(i, j);
                    for k in 0..dims[2] {
                        let off = (i * dims[1] + j) * dims[2] + k;
                        assert_eq!(got[off], star.nb(k), "{dims:?} at {:?}", (i, j, k));
                        assert_eq!(star.center(k), a.as_slice()[off]);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "neighbour rows")]
    fn mismatched_rows_are_refused() {
        let (mid, row) = ([0.0; 5], [0.0; 2]);
        let _ = StarRow::new(&mid, [&row, &row], [&row, &row]);
    }
}
