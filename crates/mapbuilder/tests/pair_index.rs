//! `ConduitPairIndex` against the linear scan it replaces, on the
//! reference map: the overlay resolves every adjacent hop pair through the
//! index, and its hint and busiest-conduit choices break ties on id order.

use intertubes_atlas::World;
use intertubes_map::{build_map, ConduitPairIndex, MapNodeId, PipelineConfig};
use intertubes_records::{generate_corpus, CorpusConfig};

#[test]
fn pair_index_equals_conduits_between_on_reference_map() {
    let world = World::reference();
    let corpus = generate_corpus(&world, &CorpusConfig::default());
    let map = build_map(
        &world.publish_maps(),
        &corpus,
        &world.cities,
        &world.roads,
        &world.rails,
        &PipelineConfig::default(),
    )
    .map;
    let index = ConduitPairIndex::new(&map);
    let mut parallel = 0usize;
    for a in (0..map.nodes.len() as u32).map(MapNodeId) {
        for b in (0..map.nodes.len() as u32).map(MapNodeId) {
            let want = map.conduits_between(a, b);
            parallel += (want.len() > 1) as usize;
            assert_eq!(index.between(a, b), want, "{a:?}-{b:?}");
        }
    }
    assert!(parallel > 0, "the reference map has parallel conduits");
}
