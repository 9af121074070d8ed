//! Query requests: what a caller asks the [`crate::ComparisonService`] to
//! compare, built fluently from a slide pair.

use crate::store::SlideId;
use sccg::pixelbox::{AggregationDevice, Variant};
use std::time::Duration;

/// Which tiles of the slide pair a query covers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TileSelection {
    /// Every tile of both slides (requires equal tile counts).
    #[default]
    WholeSlide,
    /// An explicit list of tile indices, compared (and merged) in the given
    /// order. Indices must be valid in both slides and free of duplicates.
    Tiles(Vec<usize>),
}

/// Scheduling priority of a query. Higher priorities are dispatched to
/// engines before lower ones whenever shards of several queries are waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryPriority {
    /// Served before everything else (interactive viewers).
    High,
    /// The default.
    #[default]
    Normal,
    /// Served only when nothing more urgent is queued (batch re-analysis).
    Low,
}

impl QueryPriority {
    /// Dispatch-lane index: `0` is the most urgent.
    pub(crate) fn lane(self) -> usize {
        match self {
            QueryPriority::High => 0,
            QueryPriority::Normal => 1,
            QueryPriority::Low => 2,
        }
    }
}

/// A cross-comparison query over a registered slide pair.
///
/// Marked `#[non_exhaustive]` so future fields are not breaking changes:
/// construct it with [`QueryRequest::new`] and the builder methods.
///
/// ```
/// use sccg_serve::{QueryRequest, QueryPriority, SlideStore};
/// use sccg::pixelbox::AggregationDevice;
///
/// let store = SlideStore::new();
/// let a = store.register_slide("result-a", vec![vec![]]);
/// let b = store.register_slide("result-b", vec![vec![]]);
/// let request = QueryRequest::new(a, b)
///     .tiles(vec![0])
///     .on_device(AggregationDevice::Hybrid)
///     .priority(QueryPriority::High);
/// assert_eq!(request.first, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct QueryRequest {
    /// First slide (segmentation result) of the pair.
    pub first: SlideId,
    /// Second slide of the pair.
    pub second: SlideId,
    /// Tile coverage (whole slide by default).
    pub tiles: TileSelection,
    /// Device preference: `None` lets any engine of the pool serve shards;
    /// `Some(device)` restricts shards to engines on that substrate.
    pub device: Option<AggregationDevice>,
    /// PixelBox algorithm variant override; `None` uses the service's
    /// configured variant.
    pub variant: Option<Variant>,
    /// Scheduling priority.
    pub priority: QueryPriority,
    /// Per-query deadline, measured from submission. When it expires before
    /// every shard completed, the query fails with
    /// [`sccg::SccgError::DeadlineExceeded`] instead of occupying engines
    /// further; `None` (the default) never expires.
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    /// A whole-slide comparison of `first` vs `second` with no device
    /// preference, the service's default variant and normal priority.
    pub fn new(first: SlideId, second: SlideId) -> Self {
        QueryRequest {
            first,
            second,
            tiles: TileSelection::WholeSlide,
            device: None,
            variant: None,
            priority: QueryPriority::default(),
            deadline: None,
        }
    }

    /// Restricts the query to an explicit tile subset (indices into both
    /// slides, merged in the given order).
    pub fn tiles(mut self, indices: Vec<usize>) -> Self {
        self.tiles = TileSelection::Tiles(indices);
        self
    }

    /// Restricts the query's shards to engines on `device`.
    pub fn on_device(mut self, device: AggregationDevice) -> Self {
        self.device = Some(device);
        self
    }

    /// Overrides the PixelBox algorithm variant for this query.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = Some(variant);
        self
    }

    /// Sets the scheduling priority.
    pub fn priority(mut self, priority: QueryPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Bounds the query's total latency: if `deadline` elapses (measured
    /// from submission) before every shard completed, the query fails with
    /// [`sccg::SccgError::DeadlineExceeded`] and its remaining shards are
    /// abandoned without computing.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_all_fields() {
        let request = QueryRequest::new(SlideId(0), SlideId(1))
            .tiles(vec![2, 0, 1])
            .on_device(AggregationDevice::Cpu)
            .variant(Variant::NoSep)
            .priority(QueryPriority::Low)
            .with_deadline(Duration::from_millis(250));
        assert_eq!(request.tiles, TileSelection::Tiles(vec![2, 0, 1]));
        assert_eq!(request.device, Some(AggregationDevice::Cpu));
        assert_eq!(request.variant, Some(Variant::NoSep));
        assert_eq!(request.priority, QueryPriority::Low);
        assert_eq!(request.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn priority_lanes_are_ordered() {
        assert!(QueryPriority::High.lane() < QueryPriority::Normal.lane());
        assert!(QueryPriority::Normal.lane() < QueryPriority::Low.lane());
    }
}
