//! End-to-end tests for the observability layer: `x-request-id`
//! propagation on every response path, explain-mode inline traces (on
//! `/query` and on `/query/batch` slots), the per-stage Prometheus
//! histograms, and the admin-gated slow-query flight-recorder routes.

use std::sync::Arc;
use wwt_engine::EngineBuilder;
use wwt_json::Json;
use wwt_server::{serve, HttpClient, ServerConfig, ServerHandle};
use wwt_service::TableSearchService;

/// Two-table currency engine: instant to build, answers in microseconds.
fn tiny_service() -> Arc<TableSearchService> {
    let mut b = EngineBuilder::new();
    for i in 0..2 {
        b.add_html(&format!(
            "<html><head><title>currencies {i}</title></head><body>\
             <p>List of countries and their currency</p>\
             <table><tr><th>Country</th><th>Currency</th></tr>\
             <tr><td>India</td><td>Rupee</td></tr>\
             <tr><td>Japan</td><td>Yen</td></tr></table></body></html>"
        ));
    }
    Arc::new(TableSearchService::new(Arc::new(b.build())))
}

fn start_admin(token: &str) -> ServerHandle {
    let config = ServerConfig {
        admin_token: Some(token.to_string()),
        ..ServerConfig::default()
    };
    serve(tiny_service(), config).expect("bind ephemeral port")
}

#[test]
fn request_ids_are_echoed_on_every_response_path() {
    let handle = serve(tiny_service(), ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // A client-supplied id comes back verbatim on success.
    let ok = client
        .post_with_headers(
            "/query",
            r#"{"query":"country | currency"}"#,
            &[("x-request-id", "rid-echo-1")],
        )
        .unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(ok.header("x-request-id"), Some("rid-echo-1"));

    // ... and on client errors: bad JSON (400), unknown route (404),
    // wrong method (405).
    let bad = client
        .post_with_headers("/query", "{", &[("x-request-id", "rid-echo-2")])
        .unwrap();
    assert_eq!(bad.status, 400);
    assert_eq!(bad.header("x-request-id"), Some("rid-echo-2"));
    let missing = client
        .get_with_headers("/nope", &[("x-request-id", "rid-echo-3")])
        .unwrap();
    assert_eq!(missing.status, 404);
    assert_eq!(missing.header("x-request-id"), Some("rid-echo-3"));
    let wrong_method = client
        .get_with_headers("/query", &[("x-request-id", "rid-echo-4")])
        .unwrap();
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("x-request-id"), Some("rid-echo-4"));

    // Without a client id the server mints one (pid + sequence), so
    // every log line and flight record still has a handle.
    let minted = client.get("/healthz").unwrap();
    let id = minted.header("x-request-id").expect("generated id");
    assert!(id.starts_with("wwt-"), "{id:?}");

    // Non-printable bytes cannot ride into the response head: the echo
    // keeps only ASCII-graphic characters.
    let hostile = client
        .get_with_headers("/healthz", &[("x-request-id", "rid  echo\t5")])
        .unwrap();
    assert_eq!(hostile.header("x-request-id"), Some("ridecho5"));
    handle.shutdown();
}

#[test]
fn explain_returns_an_inline_trace_bound_to_the_request_id() {
    let handle = serve(tiny_service(), ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let resp = client
        .post_with_headers(
            "/query",
            r#"{"query":"country | currency","options":{"explain":true}}"#,
            &[("x-request-id", "rid-explain")],
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = Json::parse(&resp.text()).unwrap();
    let trace = v
        .get("diagnostics")
        .and_then(|d| d.get("trace"))
        .expect("explain responses embed a trace");
    assert_eq!(
        trace.get("request_id").and_then(Json::as_str),
        Some("rid-explain")
    );
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    for required in ["probe1", "read1", "consolidate"] {
        assert!(
            names.contains(&required),
            "missing span {required}: {names:?}"
        );
    }
    let notes = trace.get("notes").expect("trace notes");
    assert_eq!(
        notes.get("cache").and_then(Json::as_str),
        Some("bypass (explain)")
    );
    assert!(notes.get("candidates").is_some());

    // The same query without explain must not grow a trace key.
    let plain = client
        .post("/query", r#"{"query":"country | currency"}"#)
        .unwrap();
    assert!(
        !plain.text().contains("\"trace\""),
        "plain responses must stay byte-compatible"
    );
    handle.shutdown();
}

#[test]
fn stage_histograms_distinguish_engine_runs_from_cache_hits() {
    let handle = serve(tiny_service(), ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // Cold (engine ran: per-stage buckets tick), then warm (cache hit:
    // only the cache_lookup stage ticks).
    for _ in 0..2 {
        let resp = client
            .post("/query", r#"{"query":"country | currency"}"#)
            .unwrap();
        assert_eq!(resp.status, 200);
    }

    let text = client.get("/metrics").unwrap().text();
    assert!(
        text.contains("# TYPE wwt_stage_duration_us histogram"),
        "{text}"
    );
    for stage in ["probe1", "read1", "column_map", "consolidate"] {
        assert!(
            text.contains(&format!(
                "wwt_stage_duration_us_bucket{{stage=\"{stage}\",le=\"+Inf\"}} 1\n"
            )),
            "stage {stage} must record exactly the one engine run:\n{text}"
        );
    }
    assert!(
        text.contains("wwt_stage_duration_us_bucket{stage=\"cache_lookup\",le=\"+Inf\"} 1\n"),
        "the warm request must land in cache_lookup:\n{text}"
    );
    // Serialization is observed for both requests.
    assert!(
        text.contains("wwt_stage_duration_us_bucket{stage=\"serialize\",le=\"+Inf\"} 2\n"),
        "{text}"
    );
    // The flight recorder's counters ride along on /metrics and /stats.
    assert!(text.contains("wwt_flight_records_total 2\n"), "{text}");
    let stats = Json::parse(&client.get("/stats").unwrap().text()).unwrap();
    assert_eq!(stats.get("flight_records").and_then(Json::as_u64), Some(2));
    assert_eq!(
        stats.get("flight_deadline_exceeded").and_then(Json::as_u64),
        Some(0)
    );
    handle.shutdown();
}

#[test]
fn debug_routes_are_admin_gated_and_serve_full_traces() {
    // No token configured: the debug routes do not exist.
    let bare = serve(tiny_service(), ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(bare.addr()).unwrap();
    assert_eq!(client.get("/debug/slow_queries").unwrap().status, 404);
    assert_eq!(client.get("/debug/trace/any").unwrap().status, 404);
    bare.shutdown();

    let handle = start_admin("sesame");
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // Wrong or missing token: 403, like every other admin route.
    assert_eq!(client.get("/debug/slow_queries").unwrap().status, 403);
    let wrong = client
        .get_with_headers("/debug/slow_queries", &[("x-admin-token", "guess")])
        .unwrap();
    assert_eq!(wrong.status, 403);

    // Record one cold query under a known id, then read it back.
    let resp = client
        .post_with_headers(
            "/query",
            r#"{"query":"country | currency"}"#,
            &[("x-request-id", "rid-flight")],
        )
        .unwrap();
    assert_eq!(resp.status, 200);

    let admin = [("x-admin-token", "sesame")];
    let slow = client
        .get_with_headers("/debug/slow_queries", &admin)
        .unwrap();
    assert_eq!(slow.status, 200);
    let v = Json::parse(&slow.text()).unwrap();
    let recent = v.get("recent").and_then(Json::as_arr).unwrap();
    let record = recent
        .iter()
        .find(|r| r.get("request_id").and_then(Json::as_str) == Some("rid-flight"))
        .expect("the query must be retained in the recent ring");
    assert_eq!(
        record.get("query").and_then(Json::as_str),
        Some("country | currency")
    );
    assert_eq!(record.get("outcome").and_then(Json::as_str), Some("ok"));
    // Retained traces are stage-level even for plain (non-explain)
    // queries: the recorder synthesizes them from the stage timings.
    let spans = record
        .get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(Json::as_arr)
        .unwrap();
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    for required in ["probe1", "read1", "column_map", "consolidate"] {
        assert!(
            names.contains(&required),
            "missing span {required}: {names:?}"
        );
    }
    assert!(v.get("slowest").and_then(Json::as_arr).is_some());
    assert!(v.get("anomalies").and_then(Json::as_arr).is_some());
    assert_eq!(
        v.get("counters")
            .and_then(|c| c.get("recorded"))
            .and_then(Json::as_u64),
        Some(1)
    );

    // Point lookup by request id, and a 404 once the id is unknown.
    let trace = client
        .get_with_headers("/debug/trace/rid-flight", &admin)
        .unwrap();
    assert_eq!(trace.status, 200);
    let t = Json::parse(&trace.text()).unwrap();
    assert_eq!(
        t.get("request_id").and_then(Json::as_str),
        Some("rid-flight")
    );
    let gone = client
        .get_with_headers("/debug/trace/rid-unknown", &admin)
        .unwrap();
    assert_eq!(gone.status, 404);
    assert!(gone.text().contains("rid-unknown"), "{}", gone.text());
    handle.shutdown();
}

#[test]
fn batch_slots_share_the_observed_query_path() {
    let handle = start_admin("sesame");
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let body = r#"{"requests":[
        {"query":"country | currency","options":{"explain":true}},
        {"query":"country | currency"}]}"#;

    // Twice: a cached explain slot would replay the first trace.
    for _ in 0..2 {
        let resp = client
            .post_with_headers("/query/batch", body, &[("x-request-id", "b1")])
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = Json::parse(&resp.text()).unwrap();
        let slots = v.get("responses").and_then(Json::as_arr).unwrap();
        let trace = slots[0]
            .get("diagnostics")
            .and_then(|d| d.get("trace"))
            .expect("the explain slot embeds a trace");
        assert_eq!(trace.get("request_id").and_then(Json::as_str), Some("b1#0"));
        assert_eq!(
            trace
                .get("notes")
                .and_then(|n| n.get("cache"))
                .and_then(Json::as_str),
            Some("bypass (explain)")
        );
        assert!(
            slots[1].get("diagnostics").unwrap().get("trace").is_none(),
            "plain slots stay trace-free"
        );
    }

    // Every slot reached the flight recorder under its slot id.
    let admin = [("x-admin-token", "sesame")];
    for id in ["b1#0", "b1#1"] {
        let found = client
            .get_with_headers(&format!("/debug/trace/{id}"), &admin)
            .unwrap();
        assert_eq!(found.status, 200, "{id}: {}", found.text());
        let t = Json::parse(&found.text()).unwrap();
        assert_eq!(t.get("request_id").and_then(Json::as_str), Some(id));
    }

    // Engine runs: two explain slots plus the first plain slot; the
    // repeated plain slot was a cache hit.
    let text = client.get("/metrics").unwrap().text();
    for (stage, count) in [("probe1", 3), ("consolidate", 3), ("cache_lookup", 1)] {
        assert!(
            text.contains(&format!(
                "wwt_stage_duration_us_count{{stage=\"{stage}\"}} {count}\n"
            )),
            "stage {stage} must count {count}:\n{text}"
        );
    }
    assert!(text.contains("wwt_flight_records_total 4\n"), "{text}");
    handle.shutdown();
}
