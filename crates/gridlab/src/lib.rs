//! # gridlab — 3-D scalar fields and domain decomposition
//!
//! Foundation crate for the HPDC'21 adaptive-compression reproduction.
//! It provides:
//!
//! * [`Dim3`] — dimensions and index arithmetic for row-major 3-D grids,
//! * [`Field3`] — an owned 3-D scalar field over [`Scalar`] (`f32`/`f64`),
//! * [`Decomposition`] / [`Partition`] — brick domain decomposition mirroring
//!   the per-MPI-rank partitions of a Nyx run, and the one in-place
//!   per-partition scan ([`Decomposition::scan`]) an in situ push takes over
//!   a field before compressing it,
//! * [`stats`] — the cheap per-partition features the paper's models consume
//!   (mean, histograms, entropy, boundary-cell counts) and the mergeable
//!   moments kernel behind them,
//! * [`io`] — a small self-describing binary snapshot format.
//!
//! Everything is deterministic and dependency-light so the higher layers
//! (compressor, models, pipeline) can be tested hermetically.

pub mod dims;
pub mod error;
pub mod field;
pub mod io;
pub mod partition;
pub mod scalar;
pub mod stats;

pub use dims::Dim3;
pub use error::GridError;
pub use field::Field3;
pub use partition::{Decomposition, Partition, PartitionId};
pub use scalar::Scalar;
