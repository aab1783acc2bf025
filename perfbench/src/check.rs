//! Correctness checks: served answers against an in-process reference,
//! and acknowledged ingests against the service and its journal.

use crate::load::Sample;
use std::collections::HashMap;
use std::path::Path;
use wwt_engine::Engine;
use wwt_index::{Journal, JournalRecord};
use wwt_json::Json;
use wwt_server::{encode_response, parse_query_request};

/// A response body with `diagnostics.timing_us` removed — the one part
/// that legitimately differs between two runs of the same query.
pub fn strip_timing(body: &[u8]) -> Option<String> {
    let mut json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    if let Json::Obj(fields) = &mut json {
        for (key, value) in fields.iter_mut() {
            if let (true, Json::Obj(diagnostics)) = (key == "diagnostics", value) {
                diagnostics.retain(|(k, _)| k != "timing_us");
            }
        }
    }
    Some(json.encode())
}

/// The reference bytes for one request body: `Engine::answer` on the
/// reference engine, encoded the way the server encodes it.
pub fn reference_body(engine: &Engine, request_body: &str) -> Option<String> {
    let request = parse_query_request(request_body.as_bytes()).ok()?;
    let response = engine.answer(&request).ok()?;
    strip_timing(encode_response(&request, &response).as_bytes())
}

/// Compares each sampled response with the reference; returns the number
/// that differ.
pub fn mismatches(engine: &Engine, bodies: &[String], samples: &[Sample]) -> u64 {
    let mut expected: HashMap<usize, Option<String>> = HashMap::new();
    samples
        .iter()
        .filter(|s| {
            let want = expected
                .entry(s.item)
                .or_insert_with(|| reference_body(engine, &bodies[s.item]));
            let got = strip_timing(&s.body);
            if want.is_none() || got != *want {
                eprintln!("[check] mismatch on query {:?}", bodies[s.item]);
                true
            } else {
                false
            }
        })
        .count() as u64
}

/// Tables acknowledged but missing from the service's counter or from
/// the journal once reopened (one `AddTable` record per table).
pub fn durability_shortfall(acked: u64, tables_ingested: u64, journal: &Path) -> u64 {
    let journaled = match Journal::open(journal, crate::setup::FSYNC) {
        Ok((_, replay)) => replay
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::AddTable(_)))
            .count() as u64,
        Err(e) => {
            eprintln!("[check] journal reopen failed: {e}");
            0
        }
    };
    if tables_ingested != acked || journaled != acked {
        eprintln!(
            "[check] durability: {acked} tables acknowledged, {tables_ingested} counted by /stats, {journaled} in the journal"
        );
    }
    acked.saturating_sub(tables_ingested) + acked.saturating_sub(journaled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_timing_removes_only_the_timing_object() {
        let body = br#"{"query":"a","rows":[],"diagnostics":{"n_candidates":3,"timing_us":{"index1":5,"probe1_shards":[1,2]},"stage1":1}}"#;
        assert_eq!(
            strip_timing(body).unwrap(),
            r#"{"query":"a","rows":[],"diagnostics":{"n_candidates":3,"stage1":1}}"#
        );
        assert_eq!(strip_timing(b"not json"), None);
    }
}
