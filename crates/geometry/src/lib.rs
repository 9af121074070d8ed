//! Rectilinear polygon geometry for pathology image cross-comparison.
//!
//! Polygons segmented from whole-slide pathology images are *rectilinear*:
//! every vertex has integer coordinates and every edge is horizontal or
//! vertical, because segmentation boundaries follow the pixel grid of the
//! underlying raster image (paper §3.1, Figure 3).
//!
//! This crate provides the shared geometric vocabulary used by every other
//! crate in the workspace:
//!
//! * [`Point`] — an integer pixel-grid coordinate.
//! * [`Rect`] — an axis-aligned rectangle on the grid (used for MBRs and
//!   sampling boxes).
//! * [`RectilinearPolygon`] — a validated, closed rectilinear polygon with
//!   exact integer area, ray-cast containment tests and edge iteration.
//! * [`edge_table`] — the scanline [`EdgeTable`]: a per-polygon row-interval
//!   decomposition (rebuilt in place from reusable [`EdgeTableScratch`]
//!   buffers) that turns pixel counting into O(crossing edges) interval
//!   arithmetic per row.
//! * [`raster`] — pixel rasterization oracles: interval-scanline fast paths
//!   plus the retained brute-force per-pixel loops ([`raster::brute`]) they
//!   are verified against.
//! * [`text`] — the line-oriented text format in which segmentation results
//!   are exchanged (one polygon per line), mirroring the polygon files the
//!   paper's parser stage consumes.
//!
//! # Pixel semantics
//!
//! A pixel `(i, j)` denotes the half-open unit cell `[i, i+1) × [j, j+1)`.
//! Its representative sample location is the cell centre `(i + ½, j + ½)`.
//! Because polygon vertices are integers, a pixel centre never lies exactly
//! on a polygon edge, so containment tests have no degenerate cases and the
//! pixel-counting area of a polygon equals its shoelace area exactly
//! (paper §3.4, "Algorithm accuracy").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edge_table;
pub mod error;
pub mod point;
pub mod polygon;
pub mod raster;
pub mod rect;
pub mod text;

pub use edge_table::{EdgeTable, EdgeTableScratch};
pub use error::GeometryError;
pub use point::Point;
pub use polygon::{Edge, EdgeKind, RectilinearPolygon};
pub use rect::Rect;

/// Result alias for geometry operations.
pub type Result<T> = std::result::Result<T, GeometryError>;
