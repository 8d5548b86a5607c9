//! The simplified SP problem definition: initial condition, forcing term,
//! and the spatially varying tridiagonal coefficients of the implicit
//! solves.
//!
//! Real NAS SP solves the 3-D compressible Navier-Stokes equations with a
//! Beam-Warming approximate factorization: each time step is
//! `compute_rhs` (explicit stencil) followed by scalar-pentadiagonal solves
//! along x, y and z, then `add`. Our simplified kernel keeps the identical
//! *parallel structure* — one stencil phase with halo exchange plus two
//! directional line sweeps per dimension per iteration — on an ADI scheme
//! for an anisotropic diffusion equation with spatially varying
//! coefficients (tridiagonal rather than pentadiagonal systems; same
//! communication pattern, slightly less local flops).
//!
//! Everything is a pure function of the *global* element index, so
//! distributed ranks can build their local coefficient tiles without
//! communication, exactly as SP builds its systems from local state.

/// Which line-system shape the implicit solves use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Three-point coupling per line (2 carries per direction) — the
    /// simplified default.
    Tridiagonal,
    /// Five-point coupling per line (6 forward / 3 backward carries) — the
    /// system shape of the real NAS SP scalar solves.
    Pentadiagonal,
}

/// Problem-wide constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpProblem {
    /// Grid extents.
    pub eta: [usize; 3],
    /// Time step.
    pub dt: f64,
    /// Implicitness factor θ (0.5 = Crank-Nicolson-like).
    pub theta: f64,
    /// Line-system shape of the implicit solves.
    pub solver: SolverKind,
}

impl SpProblem {
    /// Standard setup for a grid (tridiagonal solves).
    pub fn new(eta: [usize; 3], dt: f64) -> Self {
        SpProblem {
            eta,
            dt,
            theta: 0.5,
            solver: SolverKind::Tridiagonal,
        }
    }

    /// Same problem with pentadiagonal solves (the real SP system shape).
    pub fn pentadiagonal(eta: [usize; 3], dt: f64) -> Self {
        SpProblem {
            solver: SolverKind::Pentadiagonal,
            ..Self::new(eta, dt)
        }
    }

    /// Diffusion number along `dim` (`θ·dt/h²` with `h = 1/(η_dim+1)`).
    pub fn lambda(&self, dim: usize) -> f64 {
        let h = 1.0 / (self.eta[dim] as f64 + 1.0);
        self.theta * self.dt / (h * h)
    }

    /// Smooth spatially varying diffusivity in `(0.8, 1.2)`; cheap and
    /// deterministic.
    pub fn diffusivity(&self, g: &[usize]) -> f64 {
        self.diffusivity_xy(g[0], g[1]) + self.diffusivity_z(g[2])
    }

    /// The `x`/`y` part of [`SpProblem::diffusivity`], `1 + 0.2·(x−½)(y−½)`:
    /// the left operand of its final addition, so a row along `z` can
    /// compute it once.
    fn diffusivity_xy(&self, g0: usize, g1: usize) -> f64 {
        let x = (g0 as f64 + 1.0) / (self.eta[0] as f64 + 1.0);
        let y = (g1 as f64 + 1.0) / (self.eta[1] as f64 + 1.0);
        1.0 + 0.2 * (x - 0.5) * (y - 0.5)
    }

    /// The `z` part of [`SpProblem::diffusivity`], `0.1·(z−½)`.
    fn diffusivity_z(&self, g2: usize) -> f64 {
        let z = (g2 as f64 + 1.0) / (self.eta[2] as f64 + 1.0);
        0.1 * (z - 0.5)
    }

    /// Initial condition: a smooth product-of-parabolas bump satisfying the
    /// zero Dirichlet boundary.
    pub fn initial(&self, g: &[usize]) -> f64 {
        let f = |k: usize| {
            let t = (g[k] as f64 + 1.0) / (self.eta[k] as f64 + 1.0);
            4.0 * t * (1.0 - t)
        };
        f(0) * f(1) * f(2)
    }

    /// Steady forcing term.
    pub fn forcing(&self, g: &[usize]) -> f64 {
        let x = (g[0] as f64 + 1.0) / (self.eta[0] as f64 + 1.0);
        let y = (g[1] as f64 + 1.0) / (self.eta[1] as f64 + 1.0);
        let z = (g[2] as f64 + 1.0) / (self.eta[2] as f64 + 1.0);
        (2.0 * std::f64::consts::PI * x).sin()
            * (2.0 * std::f64::consts::PI * y).sin()
            * (std::f64::consts::PI * z).sin()
    }

    /// Tridiagonal coefficients at global index `g` for the implicit solve
    /// along `dim`: returns `(a, b, c)` = (sub-diagonal, diagonal,
    /// super-diagonal). Rows at the domain boundary have their outside
    /// coupling removed (zero Dirichlet).
    pub fn coefficients(&self, g: &[usize], dim: usize) -> (f64, f64, f64) {
        let lam = self.lambda(dim) * self.diffusivity(g);
        Self::tri_row(lam, g[dim] == 0, g[dim] == self.eta[dim] - 1)
    }

    /// One row of the tridiagonal system from its `λ·diffusivity`.
    #[inline]
    fn tri_row(lam: f64, first: bool, last: bool) -> (f64, f64, f64) {
        let a = if first { 0.0 } else { -lam };
        let c = if last { 0.0 } else { -lam };
        let b = 1.0 + 2.0 * lam;
        (a, b, c)
    }

    /// [`SpProblem::coefficients`] for every point of the box of global
    /// points `origin + [0, ext)`, written row-major into `a`, `b` and `c` in
    /// one pass. `λ(dim)` and the per-row `x`/`y` diffusivity terms are
    /// computed once and each point's value is bitwise the one
    /// [`SpProblem::coefficients`] returns.
    ///
    /// # Panics
    /// Panics unless each output holds exactly the box's points.
    pub(crate) fn fill_coefficients(
        &self,
        dim: usize,
        origin: [usize; 3],
        ext: [usize; 3],
        [a, b, c]: [&mut [f64]; 3],
    ) {
        let len = ext.iter().product::<usize>();
        assert!(
            a.len() == len && b.len() == len && c.len() == len,
            "coefficient outputs must hold the {ext:?} box"
        );
        let lam_dim = self.lambda(dim);
        let last = self.eta[dim] - 1;
        let z: Vec<f64> = (0..ext[2])
            .map(|k| self.diffusivity_z(origin[2] + k))
            .collect();
        let rows = a
            .chunks_exact_mut(ext[2])
            .zip(b.chunks_exact_mut(ext[2]))
            .zip(c.chunks_exact_mut(ext[2]));
        for (r, ((a, b), c)) in rows.enumerate() {
            let g = [origin[0] + r / ext[1], origin[1] + r % ext[1], origin[2]];
            let xy = self.diffusivity_xy(g[0], g[1]);
            let points = a.iter_mut().zip(b.iter_mut()).zip(c.iter_mut()).zip(&z);
            for (k, (((a, b), c), &z)) in points.enumerate() {
                let at = if dim == 2 { g[2] + k } else { g[dim] };
                (*a, *b, *c) = Self::tri_row(lam_dim * (xy + z), at == 0, at == last);
            }
        }
    }

    /// Pentadiagonal coefficients at global index `g` for the implicit
    /// solve along `dim`: `(e, a, d, c, f)` = (2nd sub, sub, diagonal,
    /// super, 2nd super). A wider, still strictly diagonally dominant
    /// implicit operator (|e|+|a|+|c|+|f| = 1.4·λ < 2·λ); couplings that
    /// would reach outside the domain are removed.
    pub fn penta_coefficients(&self, g: &[usize], dim: usize) -> (f64, f64, f64, f64, f64) {
        let lam = self.lambda(dim) * self.diffusivity(g);
        let i = g[dim];
        let n = self.eta[dim];
        let e = if i >= 2 { 0.1 * lam } else { 0.0 };
        let a = if i >= 1 { -0.6 * lam } else { 0.0 };
        let c = if i + 1 < n { -0.6 * lam } else { 0.0 };
        let f = if i + 2 < n { 0.1 * lam } else { 0.0 };
        let d = 1.0 + 2.0 * lam;
        (e, a, d, c, f)
    }
}

/// Per-element relative work factors of each SP phase, used by the
/// performance simulation (counts of flops-per-element, normalized so one
/// unit equals the machine's `elem_compute`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpWorkFactors {
    /// `compute_rhs` stencil (7-point Laplacian + forcing).
    pub rhs: f64,
    /// Coefficient construction per dimension.
    pub coeffs: f64,
    /// Forward elimination per dimension.
    pub forward: f64,
    /// Back substitution per dimension.
    pub backward: f64,
    /// Final `add`.
    pub add: f64,
}

impl Default for SpWorkFactors {
    fn default() -> Self {
        // Rough per-element op counts of the simplified kernels.
        SpWorkFactors {
            rhs: 9.0,
            coeffs: 4.0,
            forward: 6.0,
            backward: 2.0,
            add: 1.0,
        }
    }
}

impl SpWorkFactors {
    /// Total per-element work of one full iteration over `d` dimensions.
    pub fn total(&self, d: usize) -> f64 {
        self.rhs + d as f64 * (self.coeffs + self.forward + self.backward) + self.add
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prob() -> SpProblem {
        SpProblem::new([12, 12, 12], 0.015)
    }

    #[test]
    fn initial_is_zero_compatible_at_boundary() {
        let p = prob();
        // Not exactly zero at the first interior point but small near edges,
        // and strictly positive inside.
        assert!(p.initial(&[5, 5, 5]) > 0.9);
        assert!(p.initial(&[0, 5, 5]) < 0.4);
    }

    #[test]
    fn diffusivity_bounds() {
        let p = prob();
        for i in 0..12 {
            for j in 0..12 {
                for k in 0..12 {
                    let d = p.diffusivity(&[i, j, k]);
                    assert!(d > 0.8 && d < 1.2, "diffusivity {d} out of range");
                }
            }
        }
    }

    #[test]
    fn coefficients_diagonally_dominant() {
        let p = prob();
        for dim in 0..3 {
            for i in 0..12 {
                let (a, b, c) = p.coefficients(&[i, 6, 6], dim);
                assert!(b > a.abs() + c.abs(), "not diagonally dominant");
            }
        }
    }

    #[test]
    fn boundary_rows_decoupled() {
        let p = prob();
        let (a, _, _) = p.coefficients(&[0, 3, 3], 0);
        assert_eq!(a, 0.0);
        let (_, _, c) = p.coefficients(&[11, 3, 3], 0);
        assert_eq!(c, 0.0);
        // interior untouched
        let (a, _, c) = p.coefficients(&[5, 3, 3], 0);
        assert!(a != 0.0 && c != 0.0);
    }

    #[test]
    fn lambda_scales_inverse_square() {
        let small = SpProblem::new([10, 10, 10], 0.01);
        let big = SpProblem::new([100, 100, 100], 0.01);
        assert!(big.lambda(0) > 50.0 * small.lambda(0));
    }

    #[test]
    fn work_factors_total() {
        let w = SpWorkFactors::default();
        assert!((w.total(3) - (9.0 + 3.0 * 12.0 + 1.0)).abs() < 1e-12);
    }
}
