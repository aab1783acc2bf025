//! The differential harness behind the resilience guarantee: with every
//! failpoint disarmed and `fail_soft` off, responses are **byte-identical**
//! to a run that never linked the chaos machinery; with any single fault
//! armed, the stack returns a typed error or a well-formed answer —
//! never a crash, a hang, or garbage — and heals to baseline bytes the
//! moment the fault clears; with `fail_soft` on, absorbable faults
//! produce degraded answers whose candidates are a subset of the
//! healthy candidate list, flagged as degraded with human-readable
//! reasons.
//!
//! `wwt_chaos` failpoints are process-global, so every test serializes
//! on [`CHAOS`] and disarms before and after its faults.

use std::sync::{Arc, Mutex, OnceLock};
use wwt::corpus::{workload, CorpusConfig, CorpusGenerator};
use wwt::engine::{bind_corpus, Engine, QueryRequest, WwtConfig};
use wwt::index::{FsyncPolicy, Journal};
use wwt::json::Json;
use wwt::model::{TableId, WebTable, WwtError};
use wwt::server::wire::encode_response;
use wwt::service::TableSearchService;

/// Failpoints are process-global; every test runs under this lock.
static CHAOS: Mutex<()> = Mutex::new(());

/// One small corpus-backed engine shared by every test (the corpus
/// generation dominates this binary's runtime).
fn shared_engine() -> Arc<Engine> {
    static ENGINE: OnceLock<Arc<Engine>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        let specs: Vec<_> = workload().into_iter().take(3).collect();
        let corpus = CorpusGenerator::new(CorpusConfig {
            scale: 0.04,
            ..CorpusConfig::default()
        })
        .generate_for(&specs);
        Arc::new(bind_corpus(&corpus, WwtConfig::default()).engine)
    }))
}

fn requests() -> Vec<QueryRequest> {
    workload()
        .into_iter()
        .take(3)
        .map(|s| QueryRequest::new(s.query))
        .collect()
}

/// Canonical wire bytes with wall-clock timings zeroed (timing is the
/// one thing a delay fault is *supposed* to change).
fn canonical_bytes(request: &QueryRequest, response: &wwt::engine::QueryResponse) -> String {
    let mut response = response.clone();
    response.diagnostics.timing = Default::default();
    encode_response(request, &response)
}

fn volcano_table() -> WebTable {
    WebTable::new(
        TableId(77_000),
        "live://volcano",
        Some("Volcano heights".into()),
        vec![vec!["Volcano".into(), "Elevation".into()]],
        vec![vec!["Etna".into(), "3329".into()]],
        vec![],
    )
    .unwrap()
}

/// Disarmed chaos + `fail_soft: false` is the zero-cost contract: the
/// fast-path flag is down, and enabling `fail_soft` without any fault
/// or deadline pressure is a pure pass-through — same bytes, no
/// degraded flag.
#[test]
fn disarmed_chaos_and_idle_fail_soft_are_byte_identical() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    assert!(!wwt::chaos::armed(), "nothing may be armed at baseline");
    let engine = shared_engine();
    for request in requests() {
        let healthy = engine.answer(&request).unwrap();
        assert!(!healthy.diagnostics.degraded);
        let baseline = canonical_bytes(&request, &healthy);

        let soft = engine.answer(&request.clone().fail_soft(true)).unwrap();
        assert!(!soft.diagnostics.degraded);
        assert!(soft.diagnostics.degraded_reasons.is_empty());
        assert_eq!(
            baseline,
            canonical_bytes(&request, &soft),
            "idle fail_soft drifted for {request:?}"
        );
    }
}

/// One armed fault at a time, across every site and behavior the stack
/// exposes: the caller always gets a typed `WwtError` or a well-formed
/// answer, and once the fault is disarmed the very same request heals
/// back to baseline bytes.
#[test]
fn any_single_fault_yields_typed_errors_then_heals_to_baseline() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    // Cache off: every call must reach the engine, or an armed fault
    // would be papered over by a cache hit and never exercised.
    let service = TableSearchService::with_config(
        shared_engine(),
        wwt::service::ServiceConfig {
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let request = &requests()[0];
    let baseline = canonical_bytes(request, &service.answer(request).unwrap());

    let query_faults = [
        "probe.shard=error",
        "probe.shard=panic",
        "probe.shard=delay:2",
        "map.batch=error",
        "map.batch=panic",
        "map.batch=delay:2",
        "probe.shard=error~1in2",
    ];
    for spec in query_faults {
        wwt_chaos::arm(spec).unwrap();
        match service.answer(request) {
            Ok(response) => {
                // Delays and sampled misses may still answer: the bytes
                // must be well-formed JSON and identical to baseline
                // (a fault either fails the request or changes nothing).
                let bytes = canonical_bytes(request, &response);
                Json::parse(&bytes).expect("well-formed response bytes");
                assert_eq!(baseline, bytes, "fault {spec} corrupted an Ok answer");
            }
            Err(WwtError::Internal(m)) => {
                assert!(m.contains("panicked"), "{spec}: {m}")
            }
            Err(WwtError::Io(_)) => {}
            Err(other) => panic!("fault {spec} leaked an unexpected error: {other:?}"),
        }
        wwt_chaos::disarm_all();
        // Healing: the fault is gone, the same request answers baseline
        // bytes again (failed flights cached nothing).
        assert_eq!(
            baseline,
            canonical_bytes(request, &service.answer(request).unwrap()),
            "service did not heal after {spec}"
        );
    }
    let stats = service.stats();
    assert!(stats.internal_errors >= 2, "panics were counted: {stats:?}");

    // Mutation-path fault: journal appends fail persistently, mutations
    // refuse with a retryable typed error, queries never notice.
    let dir = std::env::temp_dir().join(format!("wwt-chaos-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (journal, _) = Journal::open(&dir.join("journal.wal"), FsyncPolicy::Never).unwrap();
    service.attach_journal(journal, None);
    wwt_chaos::arm("journal.append=error").unwrap();
    match service.ingest_table(volcano_table()) {
        Err(WwtError::Unavailable(m)) => assert!(m.contains("journal append failed"), "{m}"),
        other => panic!("journal fault must map to Unavailable, got {other:?}"),
    }
    assert!(service.read_only());
    assert_eq!(
        baseline,
        canonical_bytes(request, &service.answer(request).unwrap()),
        "read-only degradation must not touch the query path"
    );
    wwt_chaos::disarm_all();
    service.clear_read_only();
    service.ingest_table(volcano_table()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// `fail_soft: true` turns absorbable faults into degraded answers: the
/// response flags `degraded` with a reason naming the absorbed stage,
/// and the candidate list never invents tables the healthy run did not
/// retrieve.
#[test]
fn fail_soft_absorbs_faults_into_flagged_degraded_subsets() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    let engine = shared_engine();
    for request in requests() {
        let healthy = engine.answer(&request).unwrap();
        let soft_request = request.clone().fail_soft(true);

        // Every shard probe fails. Hard mode propagates the fault…
        wwt_chaos::arm("probe.shard=error").unwrap();
        assert!(
            engine.answer(&request).is_err(),
            "without fail_soft a probe fault must propagate"
        );
        // …soft mode serves what is left (here: nothing), flagged.
        let soft = engine.answer(&soft_request).unwrap();
        wwt_chaos::disarm_all();
        assert!(soft.diagnostics.degraded);
        assert!(
            soft.diagnostics
                .degraded_reasons
                .iter()
                .any(|r| r.contains("shard")),
            "reasons: {:?}",
            soft.diagnostics.degraded_reasons
        );
        assert!(soft.candidates.is_empty(), "all shards were dropped");
        assert!(soft.table.is_empty());

        // The column-map batch fails: soft mode falls back to the
        // stage-1 premapping instead of failing the whole query.
        wwt_chaos::arm("map.batch=error").unwrap();
        let soft = engine.answer(&soft_request).unwrap();
        wwt_chaos::disarm_all();
        assert!(soft.diagnostics.degraded);
        assert!(
            soft.diagnostics
                .degraded_reasons
                .iter()
                .any(|r| r.contains("column mapping")),
            "reasons: {:?}",
            soft.diagnostics.degraded_reasons
        );
        // Degradation never invents candidates: everything served came
        // out of the healthy retrieval set, in its ranked order.
        let healthy_rank: Vec<&TableId> = healthy.candidates.iter().collect();
        let mut last_pos = 0usize;
        for id in &soft.candidates {
            let pos = healthy_rank[last_pos..]
                .iter()
                .position(|h| *h == id)
                .unwrap_or_else(|| {
                    panic!("candidate {id:?} missing from (or reordered vs.) the healthy ranking")
                });
            last_pos += pos + 1;
        }
        // The degraded answer is still shaped like an answer.
        assert_eq!(soft.table.columns.len(), request.query.q());
    }
}
