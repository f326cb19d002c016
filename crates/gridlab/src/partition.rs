//! Brick domain decomposition.
//!
//! Nyx distributes its grid over MPI ranks as equal axis-aligned bricks; the
//! paper assigns one compression configuration per brick. [`Decomposition`]
//! captures that layout and [`Partition`] is the per-rank view (origin +
//! extents + rank id).

use crate::stats::{scan_rows, Scan};
use crate::{Dim3, Field3, GridError, Scalar};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Identifier of a partition within a [`Decomposition`] (row-major over the
/// brick grid, z fastest — the same convention as cell indexing).
pub type PartitionId = usize;

/// One axis-aligned brick of the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Index of this brick in its decomposition.
    pub id: PartitionId,
    /// Cell coordinates of the brick's low corner in the global grid.
    pub origin: (usize, usize, usize),
    /// Brick extents in cells.
    pub dims: Dim3,
}

impl Partition {
    /// Number of cells in this brick.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// True when the brick holds no cells (never for valid decompositions).
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }
}

/// Fields with fewer cells than this are scanned inline by
/// [`Decomposition::scan`]; larger ones fan out over partitions. The rayon
/// shim spawns scoped workers per fan-out — tens of µs on an idle host, a
/// few hundred beside a busy server — which a scan of ~1 ns/cell repays
/// only from about a million cells up.
pub const PAR_SCAN_MIN_CELLS: usize = 1 << 20;

/// Equal-brick decomposition of a global grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decomposition {
    domain: Dim3,
    brick: Dim3,
    /// Bricks along each axis.
    counts: (usize, usize, usize),
}

impl Decomposition {
    /// Decompose `domain` into bricks of `brick` cells.
    ///
    /// Fails unless the bricks tile the domain exactly, mirroring Nyx's
    /// static rank layout.
    pub fn new(domain: Dim3, brick: Dim3) -> Result<Self, GridError> {
        if !domain.divides(brick) {
            return Err(GridError::BadDecomposition {
                domain: domain.to_string(),
                brick: brick.to_string(),
            });
        }
        Ok(Self {
            domain,
            brick,
            counts: (domain.nx / brick.nx, domain.ny / brick.ny, domain.nz / brick.nz),
        })
    }

    /// Decomposition of a cubic domain into `parts_per_axis`³ bricks.
    pub fn cubic(domain_n: usize, parts_per_axis: usize) -> Result<Self, GridError> {
        let domain = Dim3::cube(domain_n);
        if parts_per_axis == 0 || !domain_n.is_multiple_of(parts_per_axis) {
            return Err(GridError::BadDecomposition {
                domain: domain.to_string(),
                brick: format!("{parts_per_axis} parts/axis"),
            });
        }
        Decomposition::new(domain, Dim3::cube(domain_n / parts_per_axis))
    }

    pub fn domain(&self) -> Dim3 {
        self.domain
    }

    pub fn brick(&self) -> Dim3 {
        self.brick
    }

    /// Total number of partitions (the paper's `M`).
    pub fn num_partitions(&self) -> usize {
        self.counts.0 * self.counts.1 * self.counts.2
    }

    /// Bricks along each axis.
    pub fn counts(&self) -> (usize, usize, usize) {
        self.counts
    }

    /// The partition with the given id.
    pub fn partition(&self, id: PartitionId) -> Result<Partition, GridError> {
        let n = self.num_partitions();
        if id >= n {
            return Err(GridError::PartitionOutOfRange { id, count: n });
        }
        let (cx, cy, cz) = self.counts;
        let bz = id % cz;
        let rest = id / cz;
        let by = rest % cy;
        let bx = rest / cy;
        debug_assert!(bx < cx);
        Ok(Partition {
            id,
            origin: (bx * self.brick.nx, by * self.brick.ny, bz * self.brick.nz),
            dims: self.brick,
        })
    }

    /// Iterate over all partitions in id order.
    pub fn iter(&self) -> impl Iterator<Item = Partition> + '_ {
        (0..self.num_partitions()).map(move |id| self.partition(id).expect("id in range"))
    }

    /// Id of the partition containing global cell `(x, y, z)`.
    pub fn partition_of_cell(&self, x: usize, y: usize, z: usize) -> PartitionId {
        debug_assert!(x < self.domain.nx && y < self.domain.ny && z < self.domain.nz);
        let bx = x / self.brick.nx;
        let by = y / self.brick.ny;
        let bz = z / self.brick.nz;
        (bx * self.counts.1 + by) * self.counts.2 + bz
    }

    /// Extract every partition brick of `field` (id order).
    pub fn split<T: Scalar>(&self, field: &Field3<T>) -> Vec<Field3<T>> {
        assert_eq!(field.dims(), self.domain, "field does not match decomposition domain");
        self.iter().map(|p| field.extract(p.origin, p.dims)).collect()
    }

    /// Reassemble a global field from per-partition bricks (id order).
    pub fn assemble<T: Scalar>(&self, bricks: &[Field3<T>]) -> Result<Field3<T>, GridError> {
        if bricks.len() != self.num_partitions() {
            return Err(GridError::PartitionOutOfRange {
                id: bricks.len(),
                count: self.num_partitions(),
            });
        }
        let mut out = Field3::zeros(self.domain);
        for (p, b) in self.iter().zip(bricks) {
            if b.dims() != self.brick {
                return Err(GridError::ShapeMismatch { expected: self.brick.len(), got: b.len() });
            }
            out.insert(p.origin, b);
        }
        Ok(out)
    }

    /// The fused pre-compress scan: every partition's non-finite count,
    /// moments and `(lo, hi)` boundary-cell count (id order) from one pass
    /// over the field, each partition's z-pencils read in place.
    ///
    /// Partition `p`'s record is exactly
    /// `scan_rows(field.pencils(p.origin, p.dims), lo, hi)`, computed
    /// inline below [`PAR_SCAN_MIN_CELLS`] and by parallel workers above
    /// it, so the output — and anything folded from it in id order, like
    /// the field's σ via [`Moments::merge`](crate::stats::Moments::merge) —
    /// is a pure function of (field, decomposition): identical bits for
    /// any worker count.
    pub fn scan<T: Scalar>(&self, field: &Field3<T>, lo: f64, hi: f64) -> Vec<Scan> {
        assert_eq!(field.dims(), self.domain, "field does not match decomposition domain");
        let scan = |p: Partition| scan_rows(field.pencils(p.origin, p.dims), lo, hi);
        if field.len() < PAR_SCAN_MIN_CELLS {
            self.iter().map(scan).collect()
        } else {
            self.iter().collect::<Vec<_>>().into_par_iter().map(scan).collect()
        }
    }

    /// Map `f` over every partition brick in parallel, preserving id order.
    ///
    /// This is the in-process analogue of "each MPI rank works on its own
    /// brick": rayon distributes bricks over cores.
    pub fn par_map<T, R, F>(&self, field: &Field3<T>, f: F) -> Vec<R>
    where
        T: Scalar,
        R: Send,
        F: Fn(Partition, &Field3<T>) -> R + Sync,
    {
        assert_eq!(field.dims(), self.domain, "field does not match decomposition domain");
        let parts: Vec<Partition> = self.iter().collect();
        parts
            .into_par_iter()
            .map(|p| {
                let brick = field.extract(p.origin, p.dims);
                f(p, &brick)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_decomposition_counts() {
        let d = Decomposition::cubic(64, 4).unwrap();
        assert_eq!(d.num_partitions(), 64);
        assert_eq!(d.brick(), Dim3::cube(16));
    }

    #[test]
    fn rejects_non_tiling() {
        assert!(Decomposition::new(Dim3::cube(10), Dim3::cube(3)).is_err());
        assert!(Decomposition::cubic(10, 3).is_err());
        assert!(Decomposition::cubic(10, 0).is_err());
    }

    #[test]
    fn partition_origins_cover_domain() {
        let d = Decomposition::new(Dim3::new(8, 4, 4), Dim3::new(4, 2, 4)).unwrap();
        assert_eq!(d.num_partitions(), 4);
        let origins: Vec<_> = d.iter().map(|p| p.origin).collect();
        assert!(origins.contains(&(0, 0, 0)));
        assert!(origins.contains(&(4, 2, 0)));
    }

    #[test]
    fn partition_of_cell_is_consistent() {
        let d = Decomposition::cubic(16, 4).unwrap();
        for p in d.iter() {
            let (ox, oy, oz) = p.origin;
            assert_eq!(d.partition_of_cell(ox, oy, oz), p.id);
            assert_eq!(
                d.partition_of_cell(ox + p.dims.nx - 1, oy + p.dims.ny - 1, oz + p.dims.nz - 1),
                p.id
            );
        }
    }

    #[test]
    fn split_assemble_roundtrip() {
        let dec = Decomposition::cubic(8, 2).unwrap();
        let f = Field3::from_fn(Dim3::cube(8), |x, y, z| (x * 64 + y * 8 + z) as f32);
        let bricks = dec.split(&f);
        assert_eq!(bricks.len(), 8);
        let g = dec.assemble(&bricks).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn assemble_rejects_wrong_count() {
        let dec = Decomposition::cubic(8, 2).unwrap();
        let bricks = vec![Field3::<f32>::zeros(Dim3::cube(4)); 7];
        assert!(dec.assemble(&bricks).is_err());
    }

    #[test]
    fn scan_reads_each_partition_in_place() {
        let dec = Decomposition::new(Dim3::new(6, 10, 14), Dim3::new(3, 5, 7)).unwrap();
        let f = Field3::from_fn(dec.domain(), |x, y, z| (x * 140 + y * 14 + z) as f32);
        let scans = dec.scan(&f, 100.0, 400.0);
        assert_eq!(scans.len(), 8);
        for (p, scan) in dec.iter().zip(&scans) {
            let brick = f.extract(p.origin, p.dims);
            let s = crate::stats::summarize(brick.as_slice());
            assert_eq!(scan.non_finite, 0);
            assert_eq!(scan.moments.count, 105);
            assert_eq!((scan.moments.min, scan.moments.max), (s.min, s.max));
            assert!((scan.moments.mean - s.mean).abs() < 1e-9);
            assert!((scan.moments.variance() - s.variance).abs() < 1e-6);
            assert_eq!(
                scan.boundary_cells,
                crate::stats::count_in_range(brick.as_slice(), 100.0, 400.0)
            );
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let dec = Decomposition::cubic(8, 2).unwrap();
        let f = Field3::from_fn(Dim3::cube(8), |x, _, _| x as f64);
        let ids = dec.par_map(&f, |p, _| p.id);
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_bricks_match_extract() {
        let dec = Decomposition::cubic(8, 2).unwrap();
        let f = Field3::from_fn(Dim3::cube(8), |x, y, z| (x + 2 * y + 3 * z) as f64);
        let sums = dec.par_map(&f, |_, b| b.as_slice().iter().sum::<f64>());
        let serial: Vec<f64> =
            dec.split(&f).iter().map(|b| b.as_slice().iter().sum::<f64>()).collect();
        assert_eq!(sums, serial);
    }
}
