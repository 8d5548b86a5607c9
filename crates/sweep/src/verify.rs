//! Serial reference executors used to validate the distributed engines.
//!
//! [`serial_sweep`] applies a [`LineSweepKernel`] to whole (unsplit) lines of
//! global arrays. Because the distributed executor processes each line as
//! consecutive segments with carry passing — the same arithmetic in the same
//! order — distributed results must be **bit-identical** to these references,
//! and the test-suites assert exactly that.

use crate::recurrence::{LineSweepKernel, SegmentCtx};
use mp_core::multipart::Direction;
use mp_grid::{ArrayD, Shape};

/// Apply `kernel` along every `axis` line of the given global fields.
///
/// `fields[k]` must be indexable by the kernel's field indices. All arrays
/// must share one shape.
/// ```
/// use mp_core::multipart::Direction;
/// use mp_grid::{ArrayD, Shape};
/// use mp_sweep::{verify::serial_sweep, PrefixSumKernel};
/// let mut a = ArrayD::from_fn(&[2, 3], |g| (g[1] + 1) as f64);
/// serial_sweep(&mut [&mut a], 1, Direction::Forward, &PrefixSumKernel::new(0));
/// assert_eq!(a.as_slice(), &[1.0, 3.0, 6.0, 1.0, 3.0, 6.0]);
/// ```
///
pub fn serial_sweep(
    fields: &mut [&mut ArrayD<f64>],
    axis: usize,
    dir: Direction,
    kernel: &impl LineSweepKernel,
) {
    let d = fields[0].dims().len();
    serial_sweep_with_origin(fields, axis, dir, kernel, &vec![0; d]);
}

/// [`serial_sweep`] over arrays that are a *window* of a larger global
/// domain: `origin` is the global coordinate of the arrays' `[0, …, 0]`
/// element, so position-dependent kernels see correct global coordinates.
pub fn serial_sweep_with_origin(
    fields: &mut [&mut ArrayD<f64>],
    axis: usize,
    dir: Direction,
    kernel: &impl LineSweepKernel,
    origin: &[usize],
) {
    assert!(!fields.is_empty());
    let dims = fields[0].dims().to_vec();
    for f in fields.iter() {
        assert_eq!(f.dims(), dims.as_slice(), "field shapes must match");
    }
    let n = dims[axis];
    let stride = fields[0].shape().strides()[axis];
    // Line `base` occupies `off0 + k·stride` for k in 0..n; the segment
    // buffers hold it in sweep order (a backward sweep starts at k = n − 1).
    let span = (n - 1) * stride + 1;
    let forward = dir == Direction::Forward;
    let mut lines = dims.clone();
    lines[axis] = 1;
    let nk = kernel.fields().len();
    let mut seg: Vec<Vec<f64>> = vec![vec![0.0; n]; nk];
    let initial = kernel.initial_carry(dir);
    let mut carry = initial.clone();
    let mut ctx = SegmentCtx::new(origin.to_vec(), axis, dir);
    Shape::new(&lines).for_each_index(|base| {
        let off0 = fields[0].shape().offset(base);
        for (buf, &fi) in seg.iter_mut().zip(kernel.fields()) {
            let line = fields[fi].as_slice()[off0..off0 + span].iter();
            if forward {
                buf.iter_mut()
                    .zip(line.step_by(stride))
                    .for_each(|(b, &v)| *b = v);
            } else {
                buf.iter_mut()
                    .zip(line.rev().step_by(stride))
                    .for_each(|(b, &v)| *b = v);
            }
        }
        for (g, (&b, &o)) in ctx.global_start.iter_mut().zip(base.iter().zip(origin)) {
            *g = b + o;
        }
        ctx.global_start[axis] = origin[axis] + if forward { 0 } else { n - 1 };
        carry.copy_from_slice(&initial);
        kernel.sweep_segment(dir, &mut carry, &mut seg, &ctx);
        for (buf, &fi) in seg.iter().zip(kernel.fields()) {
            let line = fields[fi].as_mut_slice()[off0..off0 + span].iter_mut();
            if forward {
                line.step_by(stride).zip(buf).for_each(|(d, &v)| *d = v);
            } else {
                line.rev()
                    .step_by(stride)
                    .zip(buf)
                    .for_each(|(d, &v)| *d = v);
            }
        }
    });
}

/// Solve tridiagonal systems along every `axis` line of global coefficient
/// fields (a serial reference for the two-sweep distributed Thomas solve):
/// after the call, `d` holds the solutions; `c` and `d` are clobbered as in
/// [`crate::thomas::thomas_solve_in_place`].
pub fn serial_tridiag_solve(
    a: &ArrayD<f64>,
    b: &ArrayD<f64>,
    c: &mut ArrayD<f64>,
    d: &mut ArrayD<f64>,
    axis: usize,
) {
    let n = a.dims()[axis];
    let (mut la, mut lb, mut lc, mut ld) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    a.for_each_line(axis, |base| {
        a.read_line(axis, base, &mut la);
        b.read_line(axis, base, &mut lb);
        c.read_line(axis, base, &mut lc);
        d.read_line(axis, base, &mut ld);
        crate::thomas::thomas_solve_in_place(&la, &mut lb, &mut lc, &mut ld);
        c.write_line(axis, base, &lc);
        d.write_line(axis, base, &ld);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recurrence::PrefixSumKernel;
    use crate::thomas::{ThomasBackwardKernel, ThomasForwardKernel};

    #[test]
    fn serial_prefix_sum_axis1() {
        let mut a = ArrayD::from_fn(&[2, 4], |i| (i[1] + 1) as f64);
        let k = PrefixSumKernel::new(0);
        serial_sweep(&mut [&mut a], 1, Direction::Forward, &k);
        for i in 0..2 {
            let row: Vec<f64> = (0..4).map(|j| a.get(&[i, j])).collect();
            assert_eq!(row, vec![1.0, 3.0, 6.0, 10.0]);
        }
    }

    #[test]
    fn serial_backward_prefix_sum() {
        let mut a = ArrayD::from_fn(&[3], |i| (i[0] + 1) as f64);
        let k = PrefixSumKernel::new(0);
        serial_sweep(&mut [&mut a], 0, Direction::Backward, &k);
        assert_eq!(a.as_slice(), &[6.0, 5.0, 3.0]);
    }

    #[test]
    fn two_sweep_thomas_equals_direct_solve() {
        // Set up per-line tridiagonal systems as 3-D fields and check that
        // forward + backward kernel sweeps reproduce serial_tridiag_solve.
        let dims = [4usize, 5, 6];
        let a = ArrayD::from_fn(&dims, |i| {
            if i[1] == 0 {
                0.0
            } else {
                0.3 + 0.01 * (i[0] + i[2]) as f64
            }
        });
        let b = ArrayD::from_fn(&dims, |i| 2.0 + 0.05 * i[1] as f64);
        let c0 = ArrayD::from_fn(&dims, |i| {
            if i[1] == dims[1] - 1 {
                0.0
            } else {
                0.4 - 0.01 * i[2] as f64
            }
        });
        let d0 = ArrayD::from_fn(&dims, |i| ((i[0] * 31 + i[1] * 7 + i[2]) % 11) as f64 - 5.0);

        // Reference.
        let mut c_ref = c0.clone();
        let mut d_ref = d0.clone();
        serial_tridiag_solve(&a, &b, &mut c_ref, &mut d_ref, 1);

        // Two-sweep via serial_sweep with the segment kernels.
        let mut aa = a.clone();
        let mut bb = b.clone();
        let mut cc = c0.clone();
        let mut dd = d0.clone();
        let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
        serial_sweep(
            &mut [&mut aa, &mut bb, &mut cc, &mut dd],
            1,
            Direction::Forward,
            &fwd,
        );
        let bwd = ThomasBackwardKernel::new(0, 1);
        serial_sweep(&mut [&mut cc, &mut dd], 1, Direction::Backward, &bwd);

        assert!(
            dd.max_abs_diff(&d_ref) < 1e-12,
            "two-sweep Thomas diverges from direct solve: {}",
            dd.max_abs_diff(&d_ref)
        );
    }
}
