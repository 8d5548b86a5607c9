//! Dense row-major `d`-dimensional arrays with region pack/unpack and
//! line access — the storage substrate for tiles and whole domains.

use crate::shape::{Region, Shape};

/// A dense row-major multi-dimensional array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayD<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Copy + Default> ArrayD<T> {
    /// Allocate a zero/default-filled array.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![T::default(); shape.len()];
        ArrayD { shape, data }
    }

    /// Allocate filled with a constant.
    pub fn full(dims: &[usize], value: T) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        ArrayD { shape, data }
    }

    /// Build from existing storage (row-major, must match the shape's size).
    pub fn from_vec(dims: &[usize], data: Vec<T>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(data.len(), shape.len(), "data length must match shape");
        ArrayD { shape, data }
    }

    /// ```
    /// use mp_grid::ArrayD;
    /// let a = ArrayD::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f64);
    /// assert_eq!(a.get(&[1, 2]), 5.0);
    /// assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]); // row-major
    /// ```
    /// Build by evaluating `f` at every index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let shape = Shape::new(dims);
        let mut data = Vec::with_capacity(shape.len());
        shape.for_each_index(|idx| data.push(f(idx)));
        ArrayD { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Extents per dimension.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false (shapes have positive extents).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw storage (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.shape.offset(idx)]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: T) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// Mutable element reference.
    #[inline]
    pub fn get_mut(&mut self, idx: &[usize]) -> &mut T {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(T) -> T) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Element-wise combine with another array of the same shape:
    /// `self[i] = f(self[i], other[i])`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_with(&mut self, other: &ArrayD<T>, mut f: impl FnMut(T, T) -> T) {
        assert_eq!(self.shape, other.shape, "shapes must match");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, *b);
        }
    }

    /// Copy the elements of `region` (in row-major region order) into a
    /// fresh buffer — the message-packing primitive.
    pub fn pack(&self, region: &Region) -> Vec<T> {
        let mut out = Vec::with_capacity(region.len());
        self.pack_into(region, &mut out);
        out
    }

    /// [`ArrayD::pack`] without the allocation: append `region`'s elements
    /// to `out`. Lets callers assemble multi-region messages (e.g. halo
    /// exchanges aggregating several tile faces) in one reused buffer.
    pub fn pack_into(&self, region: &Region, out: &mut Vec<T>) {
        assert_eq!(region.ndim(), self.shape.ndim());
        out.reserve(region.len());
        region.for_each_index(|idx| out.push(self.get(idx)));
    }

    /// Inverse of [`ArrayD::pack`]: scatter `buf` into `region`.
    ///
    /// # Panics
    /// Panics if `buf.len() != region.len()`.
    pub fn unpack(&mut self, region: &Region, buf: &[T]) {
        assert_eq!(region.ndim(), self.shape.ndim());
        assert_eq!(buf.len(), region.len(), "buffer/region size mismatch");
        let mut it = buf.iter();
        region.for_each_index(|idx| {
            self.set(idx, *it.next().unwrap());
        });
    }

    /// Copy a whole sub-region from another array (regions must have equal
    /// extents; origins may differ).
    pub fn copy_region_from(&mut self, dst: &Region, src_arr: &ArrayD<T>, src: &Region) {
        assert_eq!(dst.extent, src.extent, "region extents must match");
        let buf = src_arr.pack(src);
        self.unpack(dst, &buf);
    }

    /// The full-array region.
    pub fn full_region(&self) -> Region {
        Region::new(vec![0; self.shape.ndim()], self.shape.dims().to_vec())
    }

    /// Start offset and stride for the line along `axis` passing through
    /// `base` (whose `axis` component is ignored), plus its length.
    /// Lines are the unit of 1-D recurrences.
    pub fn line(&self, axis: usize, base: &[usize]) -> (usize, usize, usize) {
        debug_assert_eq!(base.len(), self.shape.ndim());
        let mut start = 0;
        for (k, ((&b, &s), &e)) in base
            .iter()
            .zip(self.shape.strides())
            .zip(self.shape.dims())
            .enumerate()
        {
            if k != axis {
                debug_assert!(b < e, "index {b} out of bounds for dim {k}");
                start += b * s;
            }
        }
        (start, self.shape.strides()[axis], self.shape.dim(axis))
    }

    /// Copy the line along `axis` through `base` into `out`.
    pub fn read_line(&self, axis: usize, base: &[usize], out: &mut Vec<T>) {
        let (start, stride, len) = self.line(axis, base);
        out.clear();
        out.reserve(len);
        for k in 0..len {
            out.push(self.data[start + k * stride]);
        }
    }

    /// Write `vals` into the line along `axis` through `base`.
    pub fn write_line(&mut self, axis: usize, base: &[usize], vals: &[T]) {
        let (start, stride, len) = self.line(axis, base);
        assert_eq!(vals.len(), len);
        for (k, &v) in vals.iter().enumerate() {
            self.data[start + k * stride] = v;
        }
    }

    /// Visit all lines along `axis`: calls `f(base)` once per line, where
    /// `base` has `base[axis] == 0` and ranges over all other coordinates in
    /// row-major order.
    pub fn for_each_line(&self, axis: usize, mut f: impl FnMut(&[usize])) {
        let mut reduced: Vec<usize> = self.shape.dims().to_vec();
        reduced[axis] = 1;
        Shape::new(&reduced).for_each_index(|idx| f(idx));
    }
}

impl ArrayD<f64> {
    /// Max-norm difference against another array of the same shape.
    pub fn max_abs_diff(&self, other: &ArrayD<f64>) -> f64 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Euclidean norm of the whole array.
    pub fn l2_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Side;

    fn seq(dims: &[usize]) -> ArrayD<f64> {
        let mut c = 0.0;
        ArrayD::from_fn(dims, |_| {
            c += 1.0;
            c
        })
    }

    #[test]
    fn zeros_and_full() {
        let a: ArrayD<f64> = ArrayD::zeros(&[2, 3]);
        assert_eq!(a.len(), 6);
        assert!(a.as_slice().iter().all(|&v| v == 0.0));
        let b = ArrayD::full(&[2, 2], 7.0);
        assert!(b.as_slice().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a: ArrayD<i64> = ArrayD::zeros(&[3, 4, 2]);
        a.set(&[2, 1, 0], 42);
        assert_eq!(a.get(&[2, 1, 0]), 42);
        *a.get_mut(&[0, 3, 1]) = -5;
        assert_eq!(a.get(&[0, 3, 1]), -5);
    }

    #[test]
    fn from_fn_row_major() {
        let a = ArrayD::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f64);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn map_and_zip() {
        let mut a = seq(&[2, 3]);
        a.map_inplace(|v| v * 2.0);
        assert_eq!(a.get(&[0, 0]), 2.0);
        assert_eq!(a.get(&[1, 2]), 12.0);
        let b = seq(&[2, 3]);
        a.zip_with(&b, |x, y| x - y);
        // 2v − v = v
        assert_eq!(a.as_slice(), seq(&[2, 3]).as_slice());
    }

    #[test]
    #[should_panic(expected = "shapes must match")]
    fn zip_shape_mismatch() {
        let mut a = seq(&[2, 3]);
        let b = seq(&[3, 2]);
        a.zip_with(&b, |x, _| x);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let a = seq(&[4, 5]);
        let r = Region::new(vec![1, 2], vec![2, 3]);
        let buf = a.pack(&r);
        assert_eq!(buf.len(), 6);
        let mut b: ArrayD<f64> = ArrayD::zeros(&[4, 5]);
        b.unpack(&r, &buf);
        r.for_each_index(|idx| assert_eq!(b.get(idx), a.get(idx)));
        // Outside the region b is untouched.
        assert_eq!(b.get(&[0, 0]), 0.0);
        assert_eq!(b.get(&[3, 4]), 0.0);
    }

    #[test]
    fn copy_region_between_offsets() {
        let a = seq(&[4, 4]);
        let mut b: ArrayD<f64> = ArrayD::zeros(&[4, 4]);
        let src = Region::new(vec![0, 0], vec![2, 2]);
        let dst = Region::new(vec![2, 2], vec![2, 2]);
        b.copy_region_from(&dst, &a, &src);
        assert_eq!(b.get(&[2, 2]), a.get(&[0, 0]));
        assert_eq!(b.get(&[3, 3]), a.get(&[1, 1]));
    }

    #[test]
    fn line_access_axis0() {
        let a = seq(&[3, 4]);
        let mut buf = Vec::new();
        a.read_line(0, &[0, 2], &mut buf);
        // Column 2: elements (0,2), (1,2), (2,2) = 3, 7, 11
        assert_eq!(buf, vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn line_access_axis1_contiguous() {
        let a = seq(&[3, 4]);
        let (start, stride, len) = a.line(1, &[1, 0]);
        assert_eq!((start, stride, len), (4, 1, 4));
        let mut buf = Vec::new();
        a.read_line(1, &[1, 3], &mut buf);
        assert_eq!(buf, vec![5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn write_line_roundtrip() {
        let mut a: ArrayD<f64> = ArrayD::zeros(&[3, 3]);
        a.write_line(0, &[0, 1], &[1.0, 2.0, 3.0]);
        assert_eq!(a.get(&[0, 1]), 1.0);
        assert_eq!(a.get(&[1, 1]), 2.0);
        assert_eq!(a.get(&[2, 1]), 3.0);
    }

    #[test]
    fn for_each_line_counts() {
        let a: ArrayD<f64> = ArrayD::zeros(&[3, 4, 5]);
        for (axis, expect) in [(0usize, 20usize), (1, 15), (2, 12)] {
            let mut n = 0;
            a.for_each_line(axis, |base| {
                assert_eq!(base[axis], 0);
                n += 1;
            });
            assert_eq!(n, expect, "axis {axis}");
        }
    }

    #[test]
    fn face_pack_is_boundary_layer() {
        let a = seq(&[3, 3]);
        let face = a.full_region().face(0, Side::High, 1);
        let buf = a.pack(&face);
        assert_eq!(buf, vec![7.0, 8.0, 9.0]); // last row
    }

    #[test]
    fn norms() {
        let a = ArrayD::from_vec(&[2, 2], vec![3.0, 4.0, 0.0, 0.0]);
        assert!((a.l2_norm() - 5.0).abs() < 1e-12);
        let b: ArrayD<f64> = ArrayD::zeros(&[2, 2]);
        assert_eq!(a.max_abs_diff(&b), 4.0);
    }

    #[test]
    #[should_panic(expected = "data length must match shape")]
    fn from_vec_wrong_len() {
        let _ = ArrayD::from_vec(&[2, 2], vec![1.0; 5]);
    }
}
