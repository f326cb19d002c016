//! Owned 3-D scalar fields.

use crate::{Dim3, GridError, Scalar};

/// An owned, row-major (z fastest) 3-D scalar field.
///
/// This is the unit the compressor, the analyses and the models all operate
/// on — either a full simulation field or one per-rank partition brick.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3<T: Scalar> {
    dims: Dim3,
    data: Vec<T>,
}

impl<T: Scalar> Field3<T> {
    /// Zero-filled field.
    pub fn zeros(dims: Dim3) -> Self {
        Self { dims, data: vec![T::zero(); dims.len()] }
    }

    /// Field filled with a constant.
    pub fn constant(dims: Dim3, v: T) -> Self {
        Self { dims, data: vec![v; dims.len()] }
    }

    /// Wrap an existing buffer; its length must equal `dims.len()`.
    pub fn from_vec(dims: Dim3, data: Vec<T>) -> Result<Self, GridError> {
        if data.len() != dims.len() {
            return Err(GridError::ShapeMismatch { expected: dims.len(), got: data.len() });
        }
        Ok(Self { dims, data })
    }

    /// Build by evaluating `f(x, y, z)` at every cell.
    pub fn from_fn(dims: Dim3, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(dims.len());
        for x in 0..dims.nx {
            for y in 0..dims.ny {
                for z in 0..dims.nz {
                    data.push(f(x, y, z));
                }
            }
        }
        Self { dims, data }
    }

    #[inline]
    pub fn dims(&self) -> Dim3 {
        self.dims
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the field and return the raw buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        self.data[self.dims.index(x, y, z)]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.dims.index(x, y, z);
        self.data[i] = v;
    }

    /// Apply `f` to every value in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise difference `self - other` as a new field.
    pub fn difference(&self, other: &Self) -> Result<Self, GridError> {
        if self.dims != other.dims {
            return Err(GridError::ShapeMismatch { expected: self.len(), got: other.len() });
        }
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| a - b).collect();
        Ok(Self { dims: self.dims, data })
    }

    /// Maximum absolute point-wise difference against `other`.
    ///
    /// This is the quantity an ABS-mode error-bounded compressor promises to
    /// keep below the bound, so tests lean on it heavily.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.dims, other.dims, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Convert precision (e.g. `f32` field to `f64` for model arithmetic).
    pub fn cast<U: Scalar>(&self) -> Field3<U> {
        Field3 {
            dims: self.dims,
            data: self.data.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// The z-pencils of the sub-brick at `origin` with extents `brick`, in
    /// place: `brick.nx · brick.ny` contiguous runs of `brick.nz` cells,
    /// x-major — [`Field3::extract`]'s copy order without the copy.
    ///
    /// Panics if the brick overruns the field.
    pub fn pencils(
        &self,
        origin: (usize, usize, usize),
        brick: Dim3,
    ) -> impl Iterator<Item = &[T]> + Clone + '_ {
        let (ox, oy, oz) = origin;
        assert!(
            ox + brick.nx <= self.dims.nx
                && oy + brick.ny <= self.dims.ny
                && oz + brick.nz <= self.dims.nz,
            "brick overruns field"
        );
        let (dims, data) = (self.dims, self.data.as_slice());
        (0..brick.nx).flat_map(move |x| {
            let plane = dims.index(ox + x, oy, oz);
            (0..brick.ny).map(move |y| {
                let start = plane + y * dims.nz;
                &data[start..start + brick.nz]
            })
        })
    }

    /// Copy a sub-brick starting at `origin` with extents `brick`.
    ///
    /// Panics if the brick overruns the field.
    pub fn extract(&self, origin: (usize, usize, usize), brick: Dim3) -> Field3<T> {
        let mut data = Vec::with_capacity(brick.len());
        for pencil in self.pencils(origin, brick) {
            data.extend_from_slice(pencil);
        }
        Field3 { dims: brick, data }
    }

    /// Write a sub-brick back at `origin` (inverse of [`Field3::extract`]).
    pub fn insert(&mut self, origin: (usize, usize, usize), brick: &Field3<T>) {
        let (ox, oy, oz) = origin;
        let b = brick.dims;
        assert!(
            ox + b.nx <= self.dims.nx && oy + b.ny <= self.dims.ny && oz + b.nz <= self.dims.nz,
            "brick overruns field"
        );
        for x in 0..b.nx {
            for y in 0..b.ny {
                let src = b.index(x, y, 0);
                let dst = self.dims.index(ox + x, oy + y, oz);
                self.data[dst..dst + b.nz].copy_from_slice(&brick.data[src..src + b.nz]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let d = Dim3::new(2, 3, 4);
        let mut f = Field3::<f32>::zeros(d);
        assert_eq!(f.len(), 24);
        f.set(1, 2, 3, 7.5);
        assert_eq!(f.get(1, 2, 3), 7.5);
        assert_eq!(f.as_slice()[d.index(1, 2, 3)], 7.5);
    }

    #[test]
    fn from_vec_checks_shape() {
        let d = Dim3::cube(2);
        assert!(Field3::from_vec(d, vec![0.0f32; 8]).is_ok());
        assert!(Field3::from_vec(d, vec![0.0f32; 7]).is_err());
    }

    #[test]
    fn from_fn_orders_z_fastest() {
        let d = Dim3::new(2, 2, 2);
        let f = Field3::from_fn(d, |x, y, z| (x * 100 + y * 10 + z) as f64);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0]);
    }

    #[test]
    fn extract_insert_roundtrip() {
        let d = Dim3::cube(4);
        let f = Field3::from_fn(d, |x, y, z| (x * 16 + y * 4 + z) as f32);
        let brick = f.extract((1, 2, 0), Dim3::new(2, 2, 4));
        assert_eq!(brick.get(0, 0, 0), f.get(1, 2, 0));
        assert_eq!(brick.get(1, 1, 3), f.get(2, 3, 3));

        let mut g = Field3::<f32>::zeros(d);
        g.insert((1, 2, 0), &brick);
        assert_eq!(g.get(2, 3, 3), f.get(2, 3, 3));
        assert_eq!(g.get(0, 0, 0), 0.0);
    }

    #[test]
    fn pencils_are_the_rows_extract_copies() {
        let f = Field3::from_fn(Dim3::new(4, 5, 6), |x, y, z| (x * 30 + y * 6 + z) as f32);
        let (origin, brick) = ((1, 2, 3), Dim3::new(2, 3, 2));
        let rows: Vec<&[f32]> = f.pencils(origin, brick).collect();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.len() == 2));
        assert_eq!(rows.concat(), f.extract(origin, brick).into_vec());
    }

    #[test]
    fn difference_and_max_abs_diff() {
        let d = Dim3::cube(2);
        let a = Field3::constant(d, 3.0f64);
        let b = Field3::constant(d, 1.0f64);
        let diff = a.difference(&b).unwrap();
        assert!(diff.as_slice().iter().all(|&v| v == 2.0));
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    fn cast_precision() {
        let d = Dim3::cube(2);
        let a = Field3::constant(d, 1.25f32);
        let b: Field3<f64> = a.cast();
        assert_eq!(b.get(1, 1, 1), 1.25);
    }

    #[test]
    #[should_panic]
    fn extract_out_of_bounds_panics() {
        let f = Field3::<f32>::zeros(Dim3::cube(4));
        let _ = f.extract((3, 0, 0), Dim3::cube(2));
    }

    #[test]
    fn map_inplace_applies() {
        let mut f = Field3::constant(Dim3::cube(2), 2.0f32);
        f.map_inplace(|v| v * v);
        assert!(f.as_slice().iter().all(|&v| v == 4.0));
    }
}
