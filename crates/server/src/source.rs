//! Where a (re)built engine comes from.
//!
//! [`EngineSource`] names an on-disk location the server can rebuild its
//! engine from — either a directory of raw HTML pages (the offline
//! pipeline runs from scratch) or a directory persisted by
//! [`wwt_engine::Engine::save_to_dir`]. `POST /admin/reload` reads the
//! source again on a background thread and swaps the result into the
//! serving slot, so a crawler or indexer can refresh the corpus behind a
//! running server without a restart.

use std::path::{Path, PathBuf};
use wwt_engine::{Engine, EngineBuilder, WwtConfig};
use wwt_model::WwtError;

/// An on-disk origin an engine can be (re)built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineSource {
    /// A directory of `.html`/`.htm` documents; building runs the full
    /// offline pipeline (extract → store → index). Files are read in
    /// lexicographic name order so table ids are deterministic.
    CorpusDir(PathBuf),
    /// A directory written by [`Engine::save_to_dir`] (`manifest.json`,
    /// one `shard-NNNN.idx` per shard and `tables.jsonl`); building
    /// deserializes instead of re-extracting.
    IndexDir(PathBuf),
}

impl EngineSource {
    /// Builds a fresh engine from this source with the given online
    /// configuration and the builder's default shard count.
    pub fn build(&self, config: WwtConfig) -> Result<Engine, WwtError> {
        self.build_sharded(config, None)
    }

    /// [`EngineSource::build`] with an explicit index shard count
    /// (`None` = the builder default). A corpus build partitions into
    /// `shards`; a persisted-index load always uses the shard count of
    /// the on-disk layout — its manifest, not the caller, owns that.
    pub fn build_sharded(
        &self,
        config: WwtConfig,
        shards: Option<usize>,
    ) -> Result<Engine, WwtError> {
        match self {
            EngineSource::CorpusDir(dir) => build_from_corpus_dir(dir, config, shards),
            EngineSource::IndexDir(dir) => Engine::load_from_dir(dir, config),
        }
    }

    /// The directory this source reads.
    pub fn path(&self) -> &Path {
        match self {
            EngineSource::CorpusDir(dir) | EngineSource::IndexDir(dir) => dir,
        }
    }
}

fn build_from_corpus_dir(
    dir: &Path,
    config: WwtConfig,
    shards: Option<usize>,
) -> Result<Engine, WwtError> {
    let mut pages: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e.eq_ignore_ascii_case("html") || e.eq_ignore_ascii_case("htm"))
        })
        .collect();
    if pages.is_empty() {
        return Err(WwtError::NotFound(format!(
            "no .html/.htm documents under {}",
            dir.display()
        )));
    }
    pages.sort();
    let mut builder = EngineBuilder::with_config(config);
    if let Some(n) = shards {
        builder.shards(n);
    }
    for page in &pages {
        let html = std::fs::read_to_string(page)?;
        builder.add_document(&html, &format!("file://{}", page.display()));
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_dir(name: &str, docs: &[(&str, &str)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wwt_source_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (file, html) in docs {
            std::fs::write(dir.join(file), html).unwrap();
        }
        dir
    }

    fn currency_doc(country: &str, money: &str) -> String {
        format!(
            "<html><body><p>countries and currency</p><table>\
             <tr><th>Country</th><th>Currency</th></tr>\
             <tr><td>{country}</td><td>{money}</td></tr></table></body></html>"
        )
    }

    #[test]
    fn corpus_dir_builds_in_name_order_and_skips_foreign_files() {
        let dir = corpus_dir(
            "order",
            &[
                ("b.html", &currency_doc("Japan", "Yen")),
                ("a.html", &currency_doc("India", "Rupee")),
                ("notes.txt", "not a page"),
            ],
        );
        let engine = EngineSource::CorpusDir(dir.clone())
            .build(WwtConfig::default())
            .unwrap();
        assert_eq!(engine.store().len(), 2);
        // a.html sorts first, so India gets the lower table id.
        let first = engine.store().iter().next().unwrap();
        assert_eq!(first.cell(0, 0), "India");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_corpus_dir_is_an_error() {
        let dir = corpus_dir("empty", &[("readme.md", "nothing")]);
        let r = EngineSource::CorpusDir(dir.clone()).build(WwtConfig::default());
        assert!(matches!(r, Err(WwtError::NotFound(_))), "{r:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_dir_roundtrips_through_engine_persistence() {
        let dir = corpus_dir("persist", &[("a.html", &currency_doc("India", "Rupee"))]);
        let built = EngineSource::CorpusDir(dir.clone())
            .build(WwtConfig::default())
            .unwrap();
        let index_dir = dir.join("index");
        built.save_to_dir(&index_dir).unwrap();
        let source = EngineSource::IndexDir(index_dir.clone());
        assert_eq!(source.path(), index_dir.as_path());
        let restored = source.build(WwtConfig::default()).unwrap();
        assert_eq!(restored.store().len(), built.store().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dirs_surface_io_errors() {
        let gone = PathBuf::from("/nonexistent/wwt-source");
        assert!(EngineSource::CorpusDir(gone.clone())
            .build(WwtConfig::default())
            .is_err());
        assert!(EngineSource::IndexDir(gone)
            .build(WwtConfig::default())
            .is_err());
    }
}
