//! Crash-recovery differential harness: an engine that journals every
//! live mutation to a write-ahead journal, "crashes" uncompacted (the
//! process state is simply dropped), and is recovered by replaying the
//! journal over the persisted frozen index must produce
//! **byte-identical** wire responses to the engine that never crashed —
//! for every inference algorithm — and compact to the same bytes as a
//! from-scratch build over the surviving corpus.
//!
//! A torn tail (the crash landed mid-append) must truncate back to the
//! intact prefix and keep booting, never fail the boot.

use std::path::PathBuf;
use wwt::core::InferenceAlgorithm;
use wwt::corpus::{workload, CorpusConfig, CorpusGenerator, GeneratedCorpus};
use wwt::engine::{bind_corpus_sharded, Engine, EngineBuilder, QueryRequest, WwtConfig};
use wwt::index::{table_to_json, FsyncPolicy, Journal, JournalRecord};
use wwt::model::{TableId, WebTable};
use wwt::server::wire::encode_response;

const ALGORITHMS: [InferenceAlgorithm; 5] = [
    InferenceAlgorithm::Independent,
    InferenceAlgorithm::TableCentric,
    InferenceAlgorithm::AlphaExpansion,
    InferenceAlgorithm::BeliefPropagation,
    InferenceAlgorithm::Trws,
];

const SHARDS: usize = 3;

fn corpus(n_queries: usize, scale: f64) -> (GeneratedCorpus, Vec<wwt::model::Query>) {
    let specs: Vec<_> = workload().into_iter().take(n_queries).collect();
    let generated = CorpusGenerator::new(CorpusConfig {
        scale,
        ..CorpusConfig::default()
    })
    .generate_for(&specs);
    let queries = specs.iter().map(|s| s.query.clone()).collect();
    (generated, queries)
}

/// The canonical wire bytes of a response, with wall-clock timings
/// zeroed.
fn canonical_bytes(request: &QueryRequest, engine: &Engine) -> String {
    let mut response = engine
        .answer(request)
        .expect("recovery requests carry no deadline and valid options");
    response.diagnostics.timing = Default::default();
    encode_response(request, &response)
}

fn extracted_tables(generated: &GeneratedCorpus) -> Vec<WebTable> {
    bind_corpus_sharded(generated, WwtConfig::default(), Some(SHARDS))
        .engine
        .store()
        .iter()
        .cloned()
        .collect()
}

fn from_scratch(tables: Vec<WebTable>) -> Engine {
    let mut b = EngineBuilder::with_config(WwtConfig::default());
    b.shards(SHARDS);
    b.add_tables(tables);
    b.build()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wwt_crash_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn journal_replay_is_byte_identical_to_the_uncrashed_engine() {
    let (generated, queries) = corpus(2, 0.04);
    let tables = extracted_tables(&generated);
    let base: Vec<WebTable> = tables.iter().step_by(2).cloned().collect();
    let delta: Vec<WebTable> = tables.iter().skip(1).step_by(2).cloned().collect();
    assert!(!delta.is_empty(), "need live mutations to recover");

    let dir = scratch_dir("replay");
    from_scratch(base.clone()).save_to_dir(&dir).unwrap();
    let wal = dir.join("journal.wal");

    // "Boot 1": serve from the persisted index, journal every mutation
    // exactly as the service layer does — append durably, then apply.
    let mut live = Engine::load_from_dir(&dir, WwtConfig::default()).unwrap();
    let (mut journal, replay) = Journal::open(&wal, FsyncPolicy::Always).unwrap();
    assert!(replay.records.is_empty(), "fresh journal starts empty");
    for table in &delta {
        journal
            .append(&JournalRecord::AddTable(table_to_json(table)))
            .unwrap();
        live = live.with_table_added(table.clone());
    }
    // Remove one table from each half: a frozen tombstone and a delta
    // eviction both have to replay.
    let frozen_victim = base[0].id;
    let delta_victim = delta[0].id;
    for victim in [frozen_victim, delta_victim] {
        journal.append(&JournalRecord::RemoveTable(victim)).unwrap();
        live = live.with_table_removed(victim).expect("victim is live");
    }
    // Crash: drop the journal handle with the delta uncompacted and the
    // directory untouched. Only the frozen index + journal survive.
    drop(journal);

    // "Boot 2": reload the frozen index and replay the journal.
    let (journal, replay) = Journal::open(&wal, FsyncPolicy::Always).unwrap();
    assert!(replay.torn_tail.is_none(), "clean shutdown, clean tail");
    assert_eq!(replay.records.len(), delta.len() + 2);
    assert_eq!(journal.records(), replay.records.len() as u64);
    let recovered = Engine::load_from_dir(&dir, WwtConfig::default())
        .unwrap()
        .with_journal_replayed(&replay.records)
        .unwrap();
    assert_eq!(recovered.n_tables(), live.n_tables());
    assert_eq!(recovered.delta_len(), live.delta_len());
    assert_eq!(recovered.tombstone_len(), live.tombstone_len());

    // The recovered engine answers byte-identically to the engine that
    // never crashed, under every inference algorithm.
    for query in &queries {
        for algorithm in ALGORITHMS {
            let request = QueryRequest::new(query.clone()).algorithm(algorithm);
            assert_eq!(
                canonical_bytes(&request, &live),
                canonical_bytes(&request, &recovered),
                "crash-recovery drift for {request:?}"
            );
        }
    }

    // And folding the recovered delta matches a from-scratch build over
    // the surviving logical corpus — recovery composes with the existing
    // compaction guarantee.
    let survivors: Vec<WebTable> = tables
        .iter()
        .filter(|t| t.id != frozen_victim && t.id != delta_victim)
        .cloned()
        .collect();
    let oracle = from_scratch(survivors);
    let compacted = recovered.compacted();
    for query in &queries {
        for algorithm in ALGORITHMS {
            let request = QueryRequest::new(query.clone()).algorithm(algorithm);
            assert_eq!(
                canonical_bytes(&request, &oracle),
                canonical_bytes(&request, &compacted),
                "post-recovery compaction drift for {request:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn volcano_table(id: u32) -> WebTable {
    WebTable::new(
        TableId(id),
        "live://volcano",
        Some("Volcano heights".into()),
        vec![vec!["Volcano".into(), "Elevation".into()]],
        vec![
            vec!["Etna".into(), "3329".into()],
            vec!["Fuji".into(), "3776".into()],
        ],
        vec![],
    )
    .unwrap()
}

#[test]
fn a_torn_tail_truncates_to_the_intact_prefix_and_still_boots() {
    let dir = scratch_dir("torn");
    let wal = dir.join("journal.wal");
    let (mut journal, _) = Journal::open(&wal, FsyncPolicy::Always).unwrap();
    journal
        .append(&JournalRecord::AddTable(table_to_json(&volcano_table(
            9001,
        ))))
        .unwrap();
    journal
        .append(&JournalRecord::RemoveTable(TableId(424_242)))
        .unwrap();
    let intact_len = journal.bytes();
    drop(journal);

    // The crash landed mid-append: a record header promising far more
    // payload than the file holds.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[1u8]).unwrap();
        f.write_all(&512u32.to_le_bytes()).unwrap();
        f.write_all(b"short").unwrap();
    }

    let (journal, replay) = Journal::open(&wal, FsyncPolicy::Always).unwrap();
    assert_eq!(replay.records.len(), 2, "the intact prefix survives");
    let tail = replay.torn_tail.expect("the torn tail is reported");
    assert_eq!(tail.offset, intact_len);
    assert!(tail.dropped_bytes > 0);
    assert!(!tail.reason.is_empty());
    // The file was truncated back to the intact prefix, so the next
    // append starts from a well-formed journal.
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), intact_len);
    assert_eq!(journal.bytes(), intact_len);

    // Replay still recovers: the add lands, the remove of an id this
    // corpus never held is a tolerated no-op.
    let empty = EngineBuilder::with_config(WwtConfig::default()).build();
    let recovered = empty.with_journal_replayed(&replay.records).unwrap();
    assert_eq!(recovered.n_tables(), 1);
    let request = QueryRequest::parse("volcano | elevation").unwrap();
    assert!(!recovered.answer(&request).unwrap().table.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
