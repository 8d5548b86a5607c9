//! Serial reference BT implementation (shares the distributed kernels so
//! parallel runs are bit-identical).

// Kernel inner loops index several parallel buffers at the same row;
// iterator zips would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

use crate::problem::{BtProblem, NCOMP};
use mp_core::multipart::Direction;
use mp_grid::{dense_star_rows, ArrayD, StarRow};
use mp_sweep::block::{BlockTriBackwardKernel, BlockTriForwardKernel};
use mp_sweep::verify::serial_sweep;

/// Explicit right-hand side of one component at one point: diffusion of the
/// component itself plus a weak coupling to the *next* component (cyclic),
/// plus forcing. `nb` holds the component's 6 neighbor values (0 outside);
/// `next_center` is the next component's value at the point.
///
/// Shared by the serial and distributed implementations (through the
/// crate's row-slice `Stencil`, which hoists only its loop invariants) so
/// the arithmetic (and hence rounding) is identical.
pub fn bt_rhs_at(
    prob: &BtProblem,
    center: f64,
    nb: &[[f64; 2]; 3],
    next_center: f64,
    forcing: f64,
) -> f64 {
    Stencil::new(prob).at(center, nb, next_center, forcing)
}

/// [`bt_rhs_at`] with its loop invariants — `dt`, the coupling weight and
/// `h²` per dimension — computed once, by the same float operations, so
/// hoisting them out of a point loop leaves every result bitwise unchanged.
/// The Laplacian still divides by `h²`, as `bt_rhs_at` always has.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stencil {
    dt: f64,
    coupling: f64,
    h2: [f64; 3],
}

impl Stencil {
    /// The invariants of `prob`.
    pub(crate) fn new(prob: &BtProblem) -> Self {
        let h2 = prob.eta.map(|e| {
            let h = 1.0 / (e as f64 + 1.0);
            h * h
        });
        Stencil {
            dt: prob.dt,
            coupling: prob.coupling(),
            h2,
        }
    }

    /// The right-hand side at one point (see [`bt_rhs_at`]).
    #[inline]
    pub(crate) fn at(
        &self,
        center: f64,
        nb: &[[f64; 2]; 3],
        next_center: f64,
        forcing: f64,
    ) -> f64 {
        let mut lap = 0.0;
        for (pair, h2) in nb.iter().zip(self.h2) {
            lap += (pair[0] + pair[1] - 2.0 * center) / h2;
        }
        self.dt * (lap + self.coupling * (next_center - center) + forcing)
    }

    /// The right-hand side along one row: `out[k]` for point `k` of `star`,
    /// whose next component is `next[k]` and forcing `forcing[k]`.
    #[inline]
    pub(crate) fn row(&self, star: StarRow<'_>, next: &[f64], forcing: &[f64], out: &mut [f64]) {
        let n = out.len();
        assert!(
            star.len() == n && next.len() == n && forcing.len() == n,
            "row lengths differ"
        );
        for (k, (o, (&x, &f))) in out.iter_mut().zip(next.iter().zip(forcing)).enumerate() {
            *o = self.at(star.center(k), &star.nb(k), x, f);
        }
    }
}

/// Serial BT state: five full-domain component fields.
#[derive(Debug, Clone)]
pub struct SerialBt {
    /// Problem constants.
    pub prob: BtProblem,
    /// Solution components.
    pub u: Vec<ArrayD<f64>>,
    /// Forcing components.
    pub forcing: Vec<ArrayD<f64>>,
    /// Completed iterations.
    pub iters_done: usize,
    /// The step's work arrays — five right-hand sides, then the 25 block
    /// elimination scratch fields — kept across steps so a step allocates
    /// nothing.
    work: Vec<ArrayD<f64>>,
}

impl SerialBt {
    /// Initialize all five components.
    pub fn new(prob: BtProblem) -> Self {
        let u = (0..NCOMP)
            .map(|c| ArrayD::from_fn(&prob.eta, |g| prob.initial(g, c)))
            .collect();
        let forcing = (0..NCOMP)
            .map(|c| ArrayD::from_fn(&prob.eta, |g| prob.forcing(g, c)))
            .collect();
        SerialBt {
            prob,
            u,
            forcing,
            iters_done: 0,
            work: (0..NCOMP + NCOMP * NCOMP)
                .map(|_| ArrayD::zeros(&prob.eta))
                .collect(),
        }
    }

    /// One BT iteration: coupled `compute_rhs` → block solves along x/y/z →
    /// `add`.
    pub fn iterate(&mut self) {
        let prob = self.prob;
        let (rhs, _) = self.work.split_at_mut(NCOMP);
        compute_rhs(&prob, &self.u, &self.forcing, rhs);

        // Block solves over the 5 rhs fields and 25 scratch fields. The
        // forward sweep writes every scratch value before the backward one
        // reads it, so one scratch set serves all three dimensions.
        let rhs_idx: Vec<usize> = (0..NCOMP).collect();
        let scratch_idx: Vec<usize> = (NCOMP..NCOMP + NCOMP * NCOMP).collect();
        let mut fields: Vec<&mut ArrayD<f64>> = self.work.iter_mut().collect();
        for dim in 0..3 {
            let fwd = BlockTriForwardKernel::<NCOMP, _>::new(prob, &scratch_idx, &rhs_idx);
            serial_sweep(&mut fields, dim, Direction::Forward, &fwd);
            let bwd = BlockTriBackwardKernel::<NCOMP>::new(&scratch_idx, &rhs_idx);
            serial_sweep(&mut fields, dim, Direction::Backward, &bwd);
        }

        // add
        for (u, r) in self.u.iter_mut().zip(&self.work) {
            for (uv, rv) in u.as_mut_slice().iter_mut().zip(r.as_slice()) {
                *uv += rv;
            }
        }
        self.iters_done += 1;
    }

    /// Run several iterations.
    pub fn run(&mut self, iterations: usize) {
        for _ in 0..iterations {
            self.iterate();
        }
    }

    /// L2 norm over all components.
    pub fn norm(&self) -> f64 {
        self.u
            .iter()
            .map(|f| {
                let n = f.l2_norm();
                n * n
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// The explicit stencil phase of every component into `rhs`, row by row
/// with the physical boundary split out per dimension (see
/// [`dense_star_rows`]).
fn compute_rhs(
    prob: &BtProblem,
    u: &[ArrayD<f64>],
    forcing: &[ArrayD<f64>],
    rhs: &mut [ArrayD<f64>],
) {
    let st = Stencil::new(prob);
    for (c, out) in rhs.iter_mut().enumerate() {
        let (un, f, out) = (
            u[(c + 1) % NCOMP].as_slice(),
            forcing[c].as_slice(),
            out.as_mut_slice(),
        );
        dense_star_rows(prob.eta, u[c].as_slice(), |off, star| {
            let r = off..off + star.len();
            st.row(star, &un[r.clone()], &f[r.clone()], &mut out[r]);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prob() -> BtProblem {
        BtProblem::new([6, 6, 6], 0.002)
    }

    /// The index-vector `compute_rhs` the row-slice one replaced: one
    /// neighbour lookup per access, the boundary tested per point.
    fn naive_rhs(s: &SerialBt) -> Vec<ArrayD<f64>> {
        let (prob, eta) = (s.prob, s.prob.eta);
        (0..NCOMP)
            .map(|c| {
                let (uc, un, fc) = (&s.u[c], &s.u[(c + 1) % NCOMP], &s.forcing[c]);
                ArrayD::from_fn(&eta, |g| {
                    let mut nb = [[0.0f64; 2]; 3];
                    for (dim, pair) in nb.iter_mut().enumerate() {
                        if g[dim] > 0 {
                            let mut gg = g.to_vec();
                            gg[dim] -= 1;
                            pair[0] = uc.get(&gg);
                        }
                        if g[dim] + 1 < eta[dim] {
                            let mut gg = g.to_vec();
                            gg[dim] += 1;
                            pair[1] = uc.get(&gg);
                        }
                    }
                    bt_rhs_at(&prob, uc.get(g), &nb, un.get(g), fc.get(g))
                })
            })
            .collect()
    }

    /// One iteration from [`naive_rhs`], fresh scratch per dimension.
    fn naive_iterate(s: &mut SerialBt) {
        let (prob, eta) = (s.prob, s.prob.eta);
        let mut rhs = naive_rhs(s);
        let scratch_idx: Vec<usize> = (0..NCOMP * NCOMP).collect();
        let rhs_idx: Vec<usize> = (NCOMP * NCOMP..NCOMP * NCOMP + NCOMP).collect();
        for dim in 0..3 {
            let mut scratch: Vec<ArrayD<f64>> =
                (0..NCOMP * NCOMP).map(|_| ArrayD::zeros(&eta)).collect();
            let mut fields: Vec<&mut ArrayD<f64>> =
                scratch.iter_mut().chain(rhs.iter_mut()).collect();
            let fwd = BlockTriForwardKernel::<NCOMP, _>::new(prob, &scratch_idx, &rhs_idx);
            serial_sweep(&mut fields, dim, Direction::Forward, &fwd);
            let bwd = BlockTriBackwardKernel::<NCOMP>::new(&scratch_idx, &rhs_idx);
            serial_sweep(&mut fields, dim, Direction::Backward, &bwd);
        }
        for (u, r) in s.u.iter_mut().zip(&rhs) {
            u.zip_with(r, |u, r| u + r);
        }
    }

    fn bits(a: &[ArrayD<f64>]) -> Vec<u64> {
        a.iter()
            .flat_map(|f| f.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn row_slices_match_naive_reference_bitwise() {
        let mut fast = SerialBt::new(BtProblem::new([7, 9, 11], 0.002));
        let mut naive = fast.clone();
        let mut rhs: Vec<ArrayD<f64>> = (0..NCOMP).map(|_| ArrayD::zeros(&fast.prob.eta)).collect();
        compute_rhs(&fast.prob, &fast.u, &fast.forcing, &mut rhs);
        assert_eq!(bits(&rhs), bits(&naive_rhs(&naive)));
        for step in 1..=2 {
            fast.iterate();
            naive_iterate(&mut naive);
            assert_eq!(bits(&fast.u), bits(&naive.u), "step {step}");
        }
    }

    #[test]
    fn deterministic() {
        let mut a = SerialBt::new(prob());
        let mut b = SerialBt::new(prob());
        a.run(2);
        b.run(2);
        for c in 0..NCOMP {
            assert_eq!(a.u[c].max_abs_diff(&b.u[c]), 0.0);
        }
    }

    #[test]
    fn stays_bounded() {
        let mut s = SerialBt::new(prob());
        s.run(8);
        assert!(s.norm().is_finite() && s.norm() < 1000.0);
    }

    #[test]
    fn components_evolve_differently() {
        let mut s = SerialBt::new(prob());
        s.run(1);
        assert!(s.u[0].max_abs_diff(&s.u[1]) > 0.0);
    }

    #[test]
    fn iteration_changes_state() {
        let mut s = SerialBt::new(prob());
        let before = s.u[2].clone();
        s.iterate();
        assert!(s.u[2].max_abs_diff(&before) > 0.0);
    }
}
