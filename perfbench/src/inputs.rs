//! Seeded inputs: the 18-slide study catalog with the workload seed mixed
//! into every data set, serialised to polygon text the way a segmentation
//! run would hand it over.

use sccg_datagen::{catalog, generate_dataset, DatasetSpec};
use sccg_geometry::text::PolygonRecord;
use sccg_net::wire::WireRequestSpec;
use sccg_net::WireResponse;
use sccg_serve::{ComparisonService, ServiceConfig, SlideStore};

/// Number of slide pairs in the catalog.
pub const CATALOG_PAIRS: usize = 18;

/// One catalog entry: two segmentation results of the same slide.
pub struct SlidePair {
    /// Data-set name.
    pub name: String,
    /// Parsed polygons of the first result, per tile.
    pub first: Vec<Vec<PolygonRecord>>,
    /// Parsed polygons of the second result, per tile.
    pub second: Vec<Vec<PolygonRecord>>,
    /// Polygon text of the first result, per tile.
    pub first_text: Vec<String>,
    /// Polygon text of the second result, per tile.
    pub second_text: Vec<String>,
}

impl SlidePair {
    /// Tiles per result.
    pub fn tiles(&self) -> usize {
        self.first_text.len()
    }

    /// Polygon-text bytes of one tile, both results.
    pub fn tile_text_bytes(&self, tile: usize) -> usize {
        self.first_text[tile].len() + self.second_text[tile].len()
    }

    /// Polygon-text bytes of the whole pair: the data-set size of §5.6.
    pub fn text_bytes(&self) -> usize {
        (0..self.tiles()).map(|t| self.tile_text_bytes(t)).sum()
    }
}

/// Generates the catalog entries at `indices`, with `seed` XOR-ed into
/// every data set's seed. Generation runs on one thread: with two, the
/// allocator's per-thread arenas made `peak_rss_mb` vary from run to run.
pub fn generate(seed: u64, indices: &[usize]) -> Vec<SlidePair> {
    let specs = catalog();
    indices
        .iter()
        .map(|&i| generate_pair(&specs[i], seed))
        .collect()
}

fn generate_pair(spec: &DatasetSpec, seed: u64) -> SlidePair {
    let mut spec = spec.clone();
    spec.seed ^= seed;
    let dataset = generate_dataset(&spec);
    let mut pair = SlidePair {
        name: spec.name.clone(),
        first: Vec::with_capacity(dataset.tiles.len()),
        second: Vec::with_capacity(dataset.tiles.len()),
        first_text: Vec::with_capacity(dataset.tiles.len()),
        second_text: Vec::with_capacity(dataset.tiles.len()),
    };
    for tile in dataset.tiles {
        pair.first_text.push(tile.first_as_text());
        pair.second_text.push(tile.second_as_text());
        pair.first.push(tile.first);
        pair.second.push(tile.second);
    }
    pair
}

/// Every catalog index.
pub fn all_indices() -> Vec<usize> {
    (0..CATALOG_PAIRS).collect()
}

/// A service over an in-memory copy of `pairs` that computes reference
/// answers: its own engines, no response cache, so every answer is
/// computed, never replayed.
pub struct Reference {
    service: ComparisonService,
}

impl Reference {
    /// Registers `pairs` in a private in-memory store. Slide handles match
    /// those of any other store that registered the same pairs, first
    /// result then second, in the same order.
    pub fn new(pairs: &[SlidePair]) -> Self {
        let store = SlideStore::new();
        for pair in pairs {
            store.register_slide(format!("{}-a", pair.name), pair.first.clone());
            store.register_slide(format!("{}-b", pair.name), pair.second.clone());
        }
        let service =
            ComparisonService::new(store, ServiceConfig::default().with_cache_capacity(0))
                .expect("the default service configuration is valid");
        Reference { service }
    }

    /// The reference answers to `specs`, computed in process. All are
    /// submitted before the first is awaited, so the engine pool computes
    /// several at once.
    pub fn answers(&self, specs: &[WireRequestSpec]) -> Result<Vec<WireResponse>, String> {
        let handles = specs
            .iter()
            .map(|spec| self.service.submit(spec.to_request()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("reference query refused: {e}"))?;
        handles
            .into_iter()
            .map(|handle| {
                let response = handle
                    .wait()
                    .map_err(|e| format!("reference query failed: {e}"))?;
                Ok(WireResponse::of_response(&response))
            })
            .collect()
    }
}

/// Whether a served response equals its reference bit for bit, ignoring
/// only which engine computed each tile and whether the answer came from
/// the response cache.
pub fn matches_reference(served: &WireResponse, reference: &WireResponse) -> bool {
    normalised(served) == normalised(reference)
}

fn normalised(response: &WireResponse) -> WireResponse {
    let mut out = response.clone();
    out.cache_hit = false;
    for tile in &mut out.tiles {
        tile.engine = 0;
        tile.backend.clear();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccg_serve::SlideId;

    #[test]
    fn the_seed_changes_the_inputs_and_repeats_them() {
        let a = generate(1, &[0, 2, 1]);
        let b = generate(1, &[0, 2, 1]);
        let c = generate(2, &[0]);
        assert_eq!(a[0].first_text, b[0].first_text);
        assert_eq!(a[2].second_text, b[2].second_text);
        assert_ne!(a[0].first_text, c[0].first_text);
        assert!(a[0].text_bytes() > 0);
        // Entries come back in the order asked for.
        let names: Vec<&str> = a.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["oligoastroIII_1", "oligoastroIII_3", "oligoastroIII_2"]
        );
    }

    #[test]
    fn engine_attribution_and_cache_hits_are_ignored_but_nothing_else() {
        let pairs = generate(3, &[0]);
        let reference = Reference::new(&pairs);
        let (a, b) = (SlideId::from_raw(0), SlideId::from_raw(1));
        let answer = reference
            .answers(&[WireRequestSpec::new(a, b)])
            .unwrap()
            .remove(0);
        let mut served = answer.clone();
        served.cache_hit = true;
        served.tiles[0].engine += 1;
        served.tiles[0].backend = "elsewhere".to_string();
        assert!(matches_reference(&served, &answer));
        served.summary.similarity_bits ^= 1;
        assert!(!matches_reference(&served, &answer));
    }
}
