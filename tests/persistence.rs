//! Integration tests for on-disk persistence: index and table store
//! round-trip through files and keep answering queries identically.

use wwt::html::extract_tables;
use wwt::index::{persist, ShardedIndexBuilder, TableStore};
use wwt::text::tokenize;

fn sample_tables() -> Vec<wwt::model::WebTable> {
    let html = "<html><head><title>currencies</title></head><body>\
        <p>countries and currency</p><table>\
        <tr><th>Country</th><th>Currency</th></tr>\
        <tr><td>India</td><td>Rupee</td></tr>\
        <tr><td>Japan</td><td>Yen</td></tr></table>\
        <table><tr><th>City</th><th>Population</th></tr>\
        <tr><td>Mumbai</td><td>20411000</td></tr>\
        <tr><td>Delhi</td><td>16787941</td></tr></table></body></html>";
    extract_tables(html, "test://doc", 0)
}

#[test]
fn index_file_roundtrip_preserves_ranking() {
    let tables = sample_tables();
    let mut b = ShardedIndexBuilder::new(1);
    for t in &tables {
        b.add_table(t);
    }
    let index = b.build();
    let dir = std::env::temp_dir().join(format!("wwt_integration_idx_{}", std::process::id()));
    persist::save_sharded(&index, &dir).unwrap();
    let restored = persist::load_sharded(&dir).unwrap();
    assert_eq!(restored.n_shards(), 1);
    for probe in ["country currency", "city population", "india"] {
        let q = tokenize(probe);
        let a = index.search(&q, 10);
        let b = restored.search(&q, 10);
        assert_eq!(a.len(), b.len(), "probe {probe}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.table, y.table);
            assert!((x.score - y.score).abs() < 1e-9);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_file_roundtrip_preserves_tables() {
    let tables = sample_tables();
    let store = TableStore::from_tables(tables.clone());
    let dir = std::env::temp_dir().join("wwt_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.jsonl");
    store.save(&path).unwrap();
    let restored = TableStore::load(&path).unwrap();
    assert_eq!(restored.len(), tables.len());
    for t in &tables {
        let r = restored.get(t.id).unwrap();
        assert_eq!(r, t);
    }
    std::fs::remove_file(&path).ok();
}
