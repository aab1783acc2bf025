//! Strict-mode (no `fail_soft`) behavior under injected probe faults:
//! every fault surfaces as a typed `WwtError` from the engine itself —
//! including a panicking shard worker — never as an unwind.
//!
//! `wwt_chaos` failpoints are process-global, so the tests in this
//! binary serialize on [`CHAOS`] and disarm before and after arming.

use std::sync::Mutex;
use wwt_engine::{Engine, QueryRequest};
use wwt_model::{Query, WwtError};

static CHAOS: Mutex<()> = Mutex::new(());

fn multi_shard_engine() -> Engine {
    let mut b = Engine::builder();
    b.shards(4);
    for i in 0..8 {
        b.add_html(&format!(
            "<html><head><title>currencies {i}</title></head><body>\
             <p>List of countries and their currency</p>\
             <table><tr><th>Country</th><th>Currency</th></tr>\
             <tr><td>India</td><td>Rupee</td></tr>\
             <tr><td>Japan</td><td>Yen</td></tr></table></body></html>"
        ));
    }
    let engine = b.build();
    assert_eq!(engine.n_shards(), 4);
    engine
}

#[test]
fn strict_shard_panic_is_an_internal_error() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    let engine = multi_shard_engine();
    let request = QueryRequest::parse("country | currency").unwrap();

    wwt_chaos::arm("probe.shard=panic").unwrap();
    let result = engine.answer(&request);
    wwt_chaos::disarm_all();
    match result {
        Err(WwtError::Internal(m)) => assert!(m.contains("panicked"), "message: {m}"),
        other => panic!("expected Internal from a shard panic, got {other:?}"),
    }
    // The pool survives the isolated panics: the same request answers.
    assert!(!engine.answer(&request).unwrap().table.is_empty());
}

#[test]
fn retrieve_returns_err_under_a_probe_fault() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    let engine = multi_shard_engine();
    let query = Query::parse("country | currency").unwrap();

    wwt_chaos::arm("probe.shard=error").unwrap();
    let result = engine.retrieve(&query);
    wwt_chaos::disarm_all();
    assert!(
        matches!(result, Err(WwtError::Io(_))),
        "an armed probe fault must be a typed error: {result:?}"
    );
    assert!(!engine.retrieve(&query).unwrap().stage1.is_empty());
}
