//! The traced run behind `--trace 1`: per-layer metrics.
//!
//! 1. One set-up, its steps timed apart (`html.extract_s`,
//!    `engine.bind_s`), plus a bare index build (`index.build_s`).
//! 2. The workload's untraced window and idle-server ingest on that
//!    server, for the cache hit rate, CPU per query and ingest tail under
//!    the real load.
//! 3. A prefix of connection 0's request stream, replayed on one
//!    connection against a fresh server, untraced.
//! 4. The same prefix against another fresh server, traced: each query's
//!    round trip is a root span, and the benchmark then times calls into
//!    each crate's public functions for that request — `wwt-server`'s
//!    parse and encode, `wwt-service`'s answer paths, and on a cache miss
//!    `wwt-engine`, `wwt-index` and `wwt-consolidate` on a mirror engine
//!    that has answered the same misses, so its pair memo matches the
//!    server's. The idle-server ingest is then replayed on the mirror's
//!    service, for the ingest, journal and compaction layers.
//!
//! The replays run after the round trip, outside it, so a replayed
//! child is attributed to its parent by span id rather than by time: a
//! span's self time is its duration minus its children's durations.
//! Spans are kept in memory and written to `.perfbench_out/` at the end.

use crate::check::strip_timing;
use crate::gen::Stream;
use crate::http::Conn;
use crate::setup::{self, MAX_DELTA_TABLES};
use crate::stats;
use crate::{put, Ctx, Metrics, Outcome, Workload, BATCHES_PER_SLICE, CONNS, IDLE_PASSES};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wwt_consolidate::{consolidate, RelevantInput};
use wwt_engine::{Engine, QueryResponse};
use wwt_index::ShardedIndexBuilder;
use wwt_model::{TableId, WebTable};
use wwt_server::{encode_response, parse_query_request};
use wwt_service::TableSearchService;

/// Requests of the stream replayed after the warm-up.
const HOT_PREFIX: usize = 1500;
const UNIQUE_PREFIX: usize = 400;
/// The layers must account for the mean round trip within this share of
/// it: transport (a `GET /healthz` round trip) plus parse, service,
/// encode and, on a miss, the engine.
const SUM_TOLERANCE: f64 = 0.25;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// Spans of one traced replay, kept in memory.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as one span.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.origin.elapsed();
        let value = f();
        let end = self.origin.elapsed();
        (value, self.push(name, parent, request, start, end))
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Lays the engine's own stage timings out as consecutive child spans
    /// of `parent`, returning their ids in order.
    fn stages(
        &mut self,
        parent: usize,
        request: u64,
        stages: &[(&'static str, Duration)],
    ) -> Vec<usize> {
        let mut at = self.spans[parent].start;
        stages
            .iter()
            .map(|&(name, d)| {
                let id = self.push(name, Some(parent), request, at, at + d);
                at += d;
                id
            })
            .collect()
    }

    /// Per span name: (durations, self times) in µs, over the spans of
    /// the requests `include` accepts.
    fn by_name(
        &self,
        include: impl Fn(u64) -> bool,
    ) -> HashMap<&'static str, (Vec<f64>, Vec<f64>)> {
        let dur = |s: &Span| (s.end - s.start).as_secs_f64() * 1e6;
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += dur(s);
            }
        }
        let mut out: HashMap<&'static str, (Vec<f64>, Vec<f64>)> = HashMap::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| include(s.request))
        {
            let entry = out.entry(s.name).or_default();
            entry.0.push(dur(s));
            entry.1.push(dur(s) - children[i]);
        }
        out
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        out.flush()
    }
}

/// The replayed prefix of connection 0's stream, as query indices: the
/// untimed warm-up requests of the measured run, then the timed ones.
fn prefix(ctx: &Ctx) -> (Vec<usize>, Vec<usize>) {
    let n = ctx.bodies.len();
    match ctx.workload {
        Workload::HotRepeat => (
            (0..n).collect(),
            Stream::zipf(ctx.seed, 0, n).take(HOT_PREFIX),
        ),
        Workload::UniqueTail => {
            let mut stream = Stream::disjoint_cycle(n, 0, CONNS);
            (stream.take(ctx.stream_warmup()), stream.take(UNIQUE_PREFIX))
        }
    }
}

/// An engine bound over the same tables as the measured run's server.
fn fresh_engine(ctx: &Ctx) -> Arc<Engine> {
    Arc::new(setup::reference_engine(setup::base_tables(
        &ctx.tables,
        &ctx.held_out,
    )))
}

fn ok(reply: std::io::Result<crate::http::Reply>, status: u16) -> Option<Vec<u8>> {
    reply.ok().filter(|r| r.status == status).map(|r| r.body)
}

/// Phase 3: round trips of the prefix on an untraced fresh server; the
/// round trips of the first `warm` events are not kept.
fn untraced_replay(ctx: &Ctx, events: &[usize], warm: usize) -> Result<(Vec<f64>, u64), String> {
    let server = setup::serve_engine(fresh_engine(ctx), &ctx.dir.join("untraced"))?;
    let mut conn = Conn::new(server.handle.addr());
    let mut rtt = Vec::new();
    let mut failed = 0;
    for (i, &q) in events.iter().enumerate() {
        let t0 = Instant::now();
        match ok(conn.post("/query", &[], ctx.bodies[q].as_bytes()), 200) {
            Some(_) if i >= warm => rtt.push(t0.elapsed().as_secs_f64() * 1e6),
            Some(_) => {}
            None => failed += 1,
        }
    }
    server.handle.shutdown();
    Ok((rtt, failed))
}

/// Counters read off the mirror engine's responses on cache misses.
#[derive(Default)]
struct MissCounters {
    misses: u64,
    candidates: u64,
    probe2: u64,
    pairs_scored: u64,
    pairs_skipped: u64,
    pairs_memoized: u64,
    early_exit_tables: u64,
    rows: u64,
}

/// Replays one cache miss on the mirror engine, under `root`, and returns
/// the mirror's response.
fn replay_miss(
    rec: &mut Recorder,
    root: usize,
    rid: u64,
    engine: &Engine,
    request: &wwt_engine::QueryRequest,
    c: &mut MissCounters,
) -> Result<QueryResponse, String> {
    let tokens = wwt_text::tokenize(&request.query.all_keywords());
    let (response, eng) = rec.span("engine.answer", Some(root), rid, || engine.answer(request));
    let response: QueryResponse = response.map_err(|e| format!("mirror engine: {e}"))?;
    let t = &response.diagnostics.timing;
    let stage_ids = rec.stages(
        eng,
        rid,
        &[
            ("engine.probe", t.index1 + t.index2),
            ("engine.read", t.read1 + t.read2),
            ("engine.column_map", t.column_map),
            ("engine.consolidate", t.consolidate),
        ],
    );
    let probe1_k = engine.config().probe1_k;
    let (hits, _) = rec.span("index.search", Some(stage_ids[0]), rid, || {
        engine.index().search(&tokens, probe1_k)
    });
    std::hint::black_box(hits);
    let candidates: Vec<&WebTable> = response
        .candidates
        .iter()
        .filter_map(|&id| engine.store().get(id))
        .collect();
    let mapping = &response.mapping;
    let inputs: Vec<RelevantInput<'_>> = (0..candidates.len().min(mapping.labelings.len()))
        .filter(|&i| mapping.labelings[i].is_relevant())
        .map(|i| RelevantInput {
            table: candidates[i],
            labeling: &mapping.labelings[i],
            relevance: mapping.table_relevance[i],
        })
        .collect();
    let (answer, _) = rec.span("consolidate.consolidate", Some(stage_ids[3]), rid, || {
        consolidate(&request.query, &inputs)
    });
    let d = &response.diagnostics;
    c.misses += 1;
    c.candidates += d.n_candidates as u64;
    c.probe2 += u64::from(d.probe2_used);
    c.pairs_scored += d.map_stats.edge_pairs_scored;
    c.pairs_skipped += d.map_stats.edge_pairs_skipped;
    c.pairs_memoized += d.map_stats.edge_pairs_memoized;
    c.early_exit_tables += d.map_stats.early_exit_tables;
    c.rows += answer.len() as u64;
    Ok(response)
}

/// Ingests one batch into the mirror's service, compacting when the
/// server would.
fn mirror_ingest(
    rec: &mut Recorder,
    rid: u64,
    mirror: &TableSearchService,
    tables: Vec<WebTable>,
) -> Result<(), String> {
    let (r, _) = rec.span("service.ingest_tables", None, rid, || {
        mirror.ingest_tables(tables)
    });
    r.map_err(|e| format!("mirror ingest: {e}"))?;
    if mirror.delta_len() >= MAX_DELTA_TABLES {
        let (r, _) = rec.span("service.compact", None, rid, || mirror.compact());
        r.map_err(|e| format!("mirror compact: {e}"))?;
    }
    Ok(())
}

pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut m = Metrics::new();
    let mut attempted = 0;
    let mut failed = 0;

    // Phase 1.
    let (server, times) = setup::start_server(&ctx.corpus, &ctx.held_out, &ctx.dir.join("window"))?;
    let base = setup::base_tables(&ctx.tables, &ctx.held_out);
    let t0 = Instant::now();
    let mut index = ShardedIndexBuilder::new(wwt_engine::default_shards());
    for t in &base {
        index.add_table(t);
    }
    std::hint::black_box(index.build());
    let index_build_s = t0.elapsed().as_secs_f64();
    put(&mut m, "html.extract_s", times.extract_s, "s");
    put(&mut m, "index.build_s", index_build_s, "s");
    put(&mut m, "engine.bind_s", times.bind_s, "s");

    // Phase 2.
    let w = crate::drive(ctx, &server);
    server.handle.shutdown();
    attempted += w.warm + w.queries.attempted() + w.ingests.attempted();
    failed += w.warm_failed + w.queries.failed + w.ingests.failed;
    put(
        &mut m,
        "service.hit_rate",
        w.window_hits as f64 / w.window_lookups.max(1) as f64,
        "ratio",
    );
    put(
        &mut m,
        "proc.cpu_us_per_query",
        w.window_cpu_us / w.queries.ok.max(1) as f64,
        "us",
    );
    let ingests = crate::summarize("ingests", &w.ingests, BATCHES_PER_SLICE)?;
    put(&mut m, "server.ingest_p50_ms", ingests.p50_ms, "ms");
    put(&mut m, "server.ingest_p99_ms", ingests.high_ms, "ms");

    // Phase 3.
    let (mut events, timed) = prefix(ctx);
    let warm = events.len();
    events.extend(timed);
    let (untraced_rtt, untraced_failed) = untraced_replay(ctx, &events, warm)?;
    attempted += events.len() as u64;
    failed += untraced_failed;

    // Phase 4.
    let by_id: HashMap<TableId, &WebTable> = ctx.tables.iter().map(|t| (t.id, t)).collect();
    let batch_tables = |j: usize| -> Vec<WebTable> {
        ctx.batch_ids[j]
            .iter()
            .map(|id| by_id[id].clone())
            .collect()
    };
    let server = setup::serve_engine(fresh_engine(ctx), &ctx.dir.join("traced"))?;
    let service = Arc::clone(server.service());
    let mirror = TableSearchService::new(fresh_engine(ctx));
    let (journal, _) =
        wwt_index::Journal::open(&ctx.dir.join("mirror").join("journal.wal"), setup::FSYNC)
            .map_err(|e| format!("mirror journal: {e}"))?;
    mirror.attach_journal(journal, None);
    let mut conn = Conn::new(server.handle.addr());
    let mut rec = Recorder::new();
    // Misses of the warm-up and of the timed requests, counted apart.
    let mut counters = [MissCounters::default(), MissCounters::default()];
    let mut body_bytes = Vec::new();
    let mut accounted = Vec::new();
    let mut mismatches = 0;
    for (rid, &q) in events.iter().enumerate() {
        let rid = rid as u64;
        attempted += 1;
        let misses = service.stats().misses;
        let (reply, root) = rec.span("server.http_rtt", None, rid, || {
            conn.post("/query", &[], ctx.bodies[q].as_bytes())
        });
        let Some(body) = ok(reply, 200) else {
            failed += 1;
            continue;
        };
        let miss = service.stats().misses > misses;
        let (request, _) = rec.span("server.parse", Some(root), rid, || {
            parse_query_request(ctx.bodies[q].as_bytes())
        });
        let request = request.map_err(|e| format!("parse: {}", e.message))?;
        let request_id = format!("perfbench-{rid}");
        let (observed, obs) = rec.span("service.answer_observed", Some(root), rid, || {
            service.answer_observed(&request, &request_id)
        });
        let observed = observed.map_err(|e| format!("answer_observed: {e}"))?;
        let (answered, _) = rec.span("service.answer", Some(obs), rid, || {
            service.answer(&request)
        });
        std::hint::black_box(answered.map_err(|e| format!("answer: {e}"))?);
        let (encoded, _) = rec.span("server.encode", Some(root), rid, || {
            encode_response(&request, &observed.response)
        });
        std::hint::black_box(encoded);
        if miss {
            let c = &mut counters[usize::from(rid >= warm as u64)];
            let expected = replay_miss(&mut rec, root, rid, &mirror.engine(), &request, c)?;
            // The mirror holds exactly the served engine's tables,
            // so its answer must match byte for byte.
            if strip_timing(&body) != strip_timing(encode_response(&request, &expected).as_bytes())
            {
                eprintln!(
                    "[check] traced miss differs from the mirror engine on {}",
                    ctx.bodies[q]
                );
                mismatches += 1;
            }
        }
        let (health, transport) = rec.span("server.transport", None, rid, || conn.get("/healthz"));
        failed += u64::from(ok(health, 200).is_none());
        if rid >= warm as u64 {
            let dur = |s: &Span| (s.end - s.start).as_secs_f64() * 1e6;
            let children: f64 = rec
                .spans
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(dur)
                .sum();
            accounted.push((dur(&rec.spans[transport]) + children, dur(&rec.spans[root])));
            body_bytes.push(body.len() as f64);
        }
    }
    // The idle-server ingest, replayed on the mirror's service.
    for i in 0..ctx.batches.len() * IDLE_PASSES {
        let tables = batch_tables(i % ctx.batches.len());
        mirror_ingest(&mut rec, (events.len() + i) as u64, &mirror, tables)?;
    }
    server.handle.shutdown();
    let spans_file = std::path::PathBuf::from(".perfbench_out").join(format!(
        "spans-{}-seed{}.jsonl",
        ctx.workload.name(),
        ctx.seed
    ));
    if let Err(e) = rec.write(&spans_file) {
        eprintln!("perfbench: could not write {}: {e}", spans_file.display());
    }

    // Serving-path layers over the timed requests, as the measured run
    // times them; engine-side layers over the timed misses, or over the
    // warm-up's when no timed request missed (hot_repeat).
    let empty = (Vec::new(), Vec::new());
    let timed = |r: u64| r >= warm as u64;
    let timed_layers = rec.by_name(timed);
    let timed_dur = |name: &str| stats::mean(&timed_layers.get(name).unwrap_or(&empty).0);
    let timed_self = |name: &str| stats::mean(&timed_layers.get(name).unwrap_or(&empty).1);
    let [warm_misses, timed_misses] = counters;
    let engine_timed = timed_misses.misses > 0;
    let c = if engine_timed {
        timed_misses
    } else {
        warm_misses
    };
    let layers = rec.by_name(|r| timed(r) == engine_timed || r >= events.len() as u64);
    let mean_dur = |name: &str| stats::mean(&layers.get(name).unwrap_or(&empty).0);
    let rtt = timed_dur("server.http_rtt");
    put(&mut m, "server.http_rtt_us", rtt, "us");
    put(
        &mut m,
        "server.http_self_us",
        timed_self("server.http_rtt"),
        "us",
    );
    put(
        &mut m,
        "server.transport_us",
        timed_dur("server.transport"),
        "us",
    );
    put(&mut m, "server.parse_us", timed_dur("server.parse"), "us");
    put(&mut m, "server.encode_us", timed_dur("server.encode"), "us");
    put(
        &mut m,
        "server.body_bytes",
        stats::mean(&body_bytes),
        "bytes",
    );
    put(
        &mut m,
        "service.hit_us",
        timed_dur("service.answer_observed"),
        "us",
    );
    put(
        &mut m,
        "service.record_us",
        timed_self("service.answer_observed"),
        "us",
    );
    put(&mut m, "engine.answer_us", mean_dur("engine.answer"), "us");
    put(&mut m, "engine.probe_us", mean_dur("engine.probe"), "us");
    put(&mut m, "engine.read_us", mean_dur("engine.read"), "us");
    put(
        &mut m,
        "engine.column_map_us",
        mean_dur("engine.column_map"),
        "us",
    );
    put(
        &mut m,
        "engine.consolidate_us",
        mean_dur("engine.consolidate"),
        "us",
    );
    let per_miss = |x: u64| x as f64 / c.misses.max(1) as f64;
    put(&mut m, "engine.misses", c.misses as f64, "count");
    put(&mut m, "engine.candidates", per_miss(c.candidates), "count");
    put(&mut m, "engine.probe2_frac", per_miss(c.probe2), "ratio");
    put(&mut m, "index.search_us", mean_dur("index.search"), "us");
    put(
        &mut m,
        "core.pairs_scored",
        per_miss(c.pairs_scored),
        "count",
    );
    let memo_base = (c.pairs_memoized + c.pairs_scored).max(1) as f64;
    put(
        &mut m,
        "core.pair_memo_hit_frac",
        c.pairs_memoized as f64 / memo_base,
        "ratio",
    );
    let pair_base = (c.pairs_scored + c.pairs_skipped + c.pairs_memoized).max(1) as f64;
    put(
        &mut m,
        "core.edge_skip_frac",
        c.pairs_skipped as f64 / pair_base,
        "ratio",
    );
    put(
        &mut m,
        "core.early_exit_tables",
        per_miss(c.early_exit_tables),
        "count",
    );
    put(
        &mut m,
        "consolidate.us",
        mean_dur("consolidate.consolidate"),
        "us",
    );
    put(&mut m, "consolidate.rows", per_miss(c.rows), "count");
    put(
        &mut m,
        "service.ingest_ms",
        mean_dur("service.ingest_tables") / 1e3,
        "ms",
    );
    put(
        &mut m,
        "service.compact_ms",
        mean_dur("service.compact") / 1e3,
        "ms",
    );
    let ms = mirror.stats();
    put(
        &mut m,
        "service.journal_bytes_per_table",
        ms.journal_bytes as f64 / ms.tables_ingested.max(1) as f64,
        "bytes",
    );

    let untraced = stats::mean(&untraced_rtt);
    put(
        &mut m,
        "trace.overhead_pct",
        (rtt - untraced) / untraced * 100.0,
        "%",
    );
    let accounted_frac =
        accounted.iter().map(|a| a.0).sum::<f64>() / accounted.iter().map(|a| a.1).sum::<f64>();
    put(&mut m, "trace.accounted_frac", accounted_frac, "ratio");
    let sum_ok = (accounted_frac - 1.0).abs() <= SUM_TOLERANCE;
    eprintln!(
        "[perfbench] sum check {}: transport + parse + service + encode + engine = {:.3} of the mean round trip ({rtt:.1}us), tolerance {SUM_TOLERANCE}",
        if sum_ok { "passed" } else { "FAILED" },
        accounted_frac
    );
    Ok(Outcome {
        correct: mismatches == 0,
        attempted,
        failed: failed + mismatches,
        metrics: m,
    })
}
