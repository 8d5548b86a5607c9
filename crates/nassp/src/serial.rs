//! Serial reference implementation of the simplified SP iteration.
//!
//! Uses the *same* segmented sweep kernels as the distributed version (via
//! `mp_sweep::verify::serial_sweep`), so parallel runs must be bit-identical
//! — the test-suites assert equality with `== 0.0`, not a tolerance.

use crate::kernels::SpPentaForwardKernel;
use crate::problem::{SolverKind, SpProblem};
use mp_core::multipart::Direction;
use mp_grid::{dense_star_rows, ArrayD, StarRow};
use mp_sweep::penta::PentaBackwardKernel;
use mp_sweep::thomas::{ThomasBackwardKernel, ThomasForwardKernel};
use mp_sweep::verify::serial_sweep;

/// Explicit right-hand side at one element, from the 7-point Laplacian with
/// zero Dirichlet boundary. `nb[dim][0]`/`nb[dim][1]` are the low/high
/// neighbor values (0.0 outside the domain).
///
/// Shared by the serial and distributed implementations (through the
/// crate's row-slice `Stencil`, which hoists only its loop invariants) so
/// the arithmetic (and hence rounding) is identical.
pub fn rhs_at(prob: &SpProblem, center: f64, nb: &[[f64; 2]; 3], forcing: f64) -> f64 {
    Stencil::new(prob).at(center, nb, forcing)
}

/// [`rhs_at`] with its loop invariants — `dt` and `1/h²` per dimension —
/// computed once, by the same float operations, so hoisting them out of a
/// point loop leaves every result bitwise unchanged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stencil {
    dt: f64,
    inv_h2: [f64; 3],
}

impl Stencil {
    /// The invariants of `prob`.
    pub(crate) fn new(prob: &SpProblem) -> Self {
        let inv_h2 = prob.eta.map(|e| {
            let h = 1.0 / (e as f64 + 1.0);
            1.0 / (h * h)
        });
        Stencil {
            dt: prob.dt,
            inv_h2,
        }
    }

    /// The right-hand side at one point (see [`rhs_at`]).
    #[inline]
    pub(crate) fn at(&self, center: f64, nb: &[[f64; 2]; 3], forcing: f64) -> f64 {
        let mut lap = 0.0;
        for (pair, inv_h2) in nb.iter().zip(self.inv_h2) {
            lap += (pair[0] + pair[1] - 2.0 * center) * inv_h2;
        }
        self.dt * (lap + forcing)
    }

    /// The right-hand side along one row: `out[k]` for point `k` of `star`,
    /// whose forcing is `forcing[k]`.
    #[inline]
    pub(crate) fn row(&self, star: StarRow<'_>, forcing: &[f64], out: &mut [f64]) {
        let n = out.len();
        assert!(star.len() == n && forcing.len() == n, "row lengths differ");
        for (k, (o, &f)) in out.iter_mut().zip(forcing).enumerate() {
            *o = self.at(star.center(k), &star.nb(k), f);
        }
    }
}

/// Serial state: full-domain fields.
#[derive(Debug, Clone)]
pub struct SerialSp {
    /// Problem constants.
    pub prob: SpProblem,
    /// Solution field.
    pub u: ArrayD<f64>,
    /// Forcing field.
    pub forcing: ArrayD<f64>,
    /// Completed iterations.
    pub iters_done: usize,
    /// The step's work arrays — the right-hand side and three solve
    /// arrays — kept across steps so a step allocates nothing.
    work: [ArrayD<f64>; 4],
}

impl SerialSp {
    /// Initialize from the problem's initial condition and forcing.
    pub fn new(prob: SpProblem) -> Self {
        let u = ArrayD::from_fn(&prob.eta, |g| prob.initial(g));
        let forcing = ArrayD::from_fn(&prob.eta, |g| prob.forcing(g));
        SerialSp {
            prob,
            u,
            forcing,
            iters_done: 0,
            work: [(); 4].map(|_| ArrayD::zeros(&prob.eta)),
        }
    }

    /// ```
    /// use mp_nassp::{SerialSp, SpProblem};
    /// let mut sp = SerialSp::new(SpProblem::new([6, 6, 6], 0.001));
    /// sp.run(2);
    /// assert_eq!(sp.iters_done, 2);
    /// assert!(sp.u_norm().is_finite());
    /// ```
    /// One ADI iteration: `compute_rhs` → x/y/z implicit solves → `add`.
    pub fn iterate(&mut self) {
        let prob = self.prob;
        let eta = prob.eta;
        let [rhs, a, b, c] = &mut self.work;
        compute_rhs(&prob, &self.u, &self.forcing, rhs);

        // Implicit solve along each dimension, as two directional sweeps.
        // Every solve rewrites the three solve arrays before reading them:
        // the tridiagonal a, b, c, or the pentadiagonal C/F scratch.
        for dim in 0..3 {
            match prob.solver {
                SolverKind::Tridiagonal => {
                    let abc = [a.as_mut_slice(), b.as_mut_slice(), c.as_mut_slice()];
                    prob.fill_coefficients(dim, [0; 3], eta, abc);
                    let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
                    serial_sweep(&mut [a, b, c, rhs], dim, Direction::Forward, &fwd);
                    let bwd = ThomasBackwardKernel::new(0, 1);
                    serial_sweep(&mut [c, rhs], dim, Direction::Backward, &bwd);
                }
                SolverKind::Pentadiagonal => {
                    let fwd = SpPentaForwardKernel::new(prob, 0, 1, 2);
                    serial_sweep(&mut [a, b, rhs], dim, Direction::Forward, &fwd);
                    let bwd = PentaBackwardKernel::new(0, 1, 2);
                    serial_sweep(&mut [a, b, rhs], dim, Direction::Backward, &bwd);
                }
            }
        }

        // add
        for (uv, rv) in self.u.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *uv += rv;
        }
        self.iters_done += 1;
    }

    /// Run several iterations.
    pub fn run(&mut self, iterations: usize) {
        for _ in 0..iterations {
            self.iterate();
        }
    }

    /// L2 norm of the solution — the verification scalar.
    pub fn u_norm(&self) -> f64 {
        self.u.l2_norm()
    }
}

/// The explicit stencil phase into `rhs`, row by row over `u` with the
/// physical boundary split out per dimension (see [`dense_star_rows`]).
fn compute_rhs(prob: &SpProblem, u: &ArrayD<f64>, forcing: &ArrayD<f64>, rhs: &mut ArrayD<f64>) {
    let st = Stencil::new(prob);
    let (f, out) = (forcing.as_slice(), rhs.as_mut_slice());
    dense_star_rows(prob.eta, u.as_slice(), |off, star| {
        let n = star.len();
        st.row(star, &f[off..off + n], &mut out[off..off + n]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_prob() -> SpProblem {
        SpProblem::new([8, 8, 8], 0.001)
    }

    /// The index-vector `compute_rhs` the row-slice one replaced: one
    /// neighbour lookup per access, the boundary tested per point.
    fn naive_rhs(prob: &SpProblem, u: &ArrayD<f64>, forcing: &ArrayD<f64>) -> ArrayD<f64> {
        let eta = prob.eta;
        ArrayD::from_fn(&eta, |g| {
            let mut nb = [[0.0f64; 2]; 3];
            for (dim, pair) in nb.iter_mut().enumerate() {
                if g[dim] > 0 {
                    let mut gg = g.to_vec();
                    gg[dim] -= 1;
                    pair[0] = u.get(&gg);
                }
                if g[dim] + 1 < eta[dim] {
                    let mut gg = g.to_vec();
                    gg[dim] += 1;
                    pair[1] = u.get(&gg);
                }
            }
            rhs_at(prob, u.get(g), &nb, forcing.get(g))
        })
    }

    /// One iteration built from the per-point pieces alone: [`naive_rhs`]
    /// and one [`SpProblem::coefficients`] call per coefficient.
    fn naive_iterate(s: &mut SerialSp) {
        let (prob, eta) = (s.prob, s.prob.eta);
        let mut rhs = naive_rhs(&prob, &s.u, &s.forcing);
        for dim in 0..3 {
            match prob.solver {
                SolverKind::Tridiagonal => {
                    let mut a = ArrayD::from_fn(&eta, |g| prob.coefficients(g, dim).0);
                    let mut b = ArrayD::from_fn(&eta, |g| prob.coefficients(g, dim).1);
                    let mut c = ArrayD::from_fn(&eta, |g| prob.coefficients(g, dim).2);
                    let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
                    let fields = &mut [&mut a, &mut b, &mut c, &mut rhs];
                    serial_sweep(fields, dim, Direction::Forward, &fwd);
                    let bwd = ThomasBackwardKernel::new(0, 1);
                    serial_sweep(&mut [&mut c, &mut rhs], dim, Direction::Backward, &bwd);
                }
                SolverKind::Pentadiagonal => {
                    let (mut cw, mut fw) = (ArrayD::zeros(&eta), ArrayD::zeros(&eta));
                    let fields = &mut [&mut cw, &mut fw, &mut rhs];
                    let fwd = SpPentaForwardKernel::new(prob, 0, 1, 2);
                    serial_sweep(fields, dim, Direction::Forward, &fwd);
                    let bwd = PentaBackwardKernel::new(0, 1, 2);
                    serial_sweep(fields, dim, Direction::Backward, &bwd);
                }
            }
        }
        s.u.zip_with(&rhs, |u, r| u + r);
    }

    fn bits(a: &ArrayD<f64>) -> Vec<u64> {
        a.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_slices_match_naive_reference_bitwise() {
        // Non-cubic, odd extents: every row, plane and boundary differs in
        // length, so a stride or offset mix-up cannot cancel out.
        for prob in [
            SpProblem::new([7, 9, 11], 0.001),
            SpProblem::pentadiagonal([7, 9, 11], 0.001),
        ] {
            let mut fast = SerialSp::new(prob);
            let mut naive = fast.clone();
            let mut rhs = ArrayD::zeros(&prob.eta);
            compute_rhs(&prob, &fast.u, &fast.forcing, &mut rhs);
            assert_eq!(
                bits(&rhs),
                bits(&naive_rhs(&prob, &naive.u, &naive.forcing))
            );
            for step in 1..=2 {
                fast.iterate();
                naive_iterate(&mut naive);
                assert_eq!(
                    bits(&fast.u),
                    bits(&naive.u),
                    "{:?} step {step}",
                    prob.solver
                );
            }
        }
    }

    #[test]
    fn fill_coefficients_matches_per_point_calls() {
        let prob = SpProblem::new([7, 9, 11], 0.001);
        let (origin, ext) = ([2, 3, 4], [5, 4, 7]);
        let len = ext.iter().product();
        for dim in 0..3 {
            let mut abc = [vec![0.0; len], vec![0.0; len], vec![0.0; len]];
            let [a, b, c] = &mut abc;
            prob.fill_coefficients(dim, origin, ext, [a, b, c]);
            let box_shape = mp_grid::Shape::new(&ext);
            box_shape.for_each_index(|l| {
                let g: Vec<usize> = l.iter().zip(origin).map(|(l, o)| l + o).collect();
                let off = box_shape.offset(l);
                let want = prob.coefficients(&g, dim);
                let got = (abc[0][off], abc[1][off], abc[2][off]);
                assert_eq!(
                    [got.0, got.1, got.2].map(f64::to_bits),
                    [want.0, want.1, want.2].map(f64::to_bits),
                    "dim {dim} at {g:?}"
                );
            });
        }
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut s1 = SerialSp::new(small_prob());
        let mut s2 = SerialSp::new(small_prob());
        s1.run(3);
        s2.run(3);
        assert_eq!(s1.u.max_abs_diff(&s2.u), 0.0);
        assert_eq!(s1.iters_done, 3);
    }

    #[test]
    fn norm_decays_without_forcing() {
        // Pure diffusion (zero forcing) must shrink the solution norm.
        let prob = small_prob();
        let mut s = SerialSp::new(prob);
        s.forcing = ArrayD::zeros(&prob.eta);
        let n0 = s.u_norm();
        s.run(5);
        let n5 = s.u_norm();
        assert!(n5 < n0, "diffusion should decay the norm: {n0} → {n5}");
        assert!(n5 > 0.0);
    }

    #[test]
    fn forced_solution_stays_bounded() {
        let mut s = SerialSp::new(small_prob());
        s.run(10);
        let n = s.u_norm();
        assert!(n.is_finite());
        assert!(n < 100.0, "solution blew up: {n}");
    }

    #[test]
    fn rhs_at_boundary_uses_zeros() {
        let prob = small_prob();
        // Element at the corner: all low neighbors are outside (0.0).
        let nb = [[0.0, 1.0]; 3];
        let v = rhs_at(&prob, 1.0, &nb, 0.0);
        // lap = Σ (0 + 1 − 2)·81 = 3·(−81) ⇒ rhs = dt·(−243)
        let expect = 0.001 * (-3.0 * 81.0);
        assert!((v - expect).abs() < 1e-12, "{v} vs {expect}");
    }

    #[test]
    fn single_iteration_changes_solution() {
        let mut s = SerialSp::new(small_prob());
        let before = s.u.clone();
        s.iterate();
        assert!(s.u.max_abs_diff(&before) > 0.0);
    }
}
