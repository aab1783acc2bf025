//! # wwt
//!
//! Umbrella crate for the WWT workspace — a from-scratch Rust reproduction
//! of **"Answering Table Queries on the Web using Column Keywords"**
//! (Pimplikar & Sarawagi, VLDB 2012), grown into a service-grade system.
//!
//! WWT answers a *table query* — one keyword set per desired answer column,
//! e.g. `"name of explorers | nationality | areas explored"` — over a corpus
//! of tables harvested from HTML pages, and returns a single consolidated
//! multi-column table.
//!
//! The umbrella re-exports every sub-crate under a stable module name:
//!
//! | module | contents |
//! |---|---|
//! | [`model`] | shared types: [`model::WebTable`], [`model::Query`], [`model::WwtError`], … |
//! | [`json`] | hand-rolled JSON codec shared by persistence and HTTP bodies |
//! | [`text`] | tokenizer, IDF statistics, TF-IDF vectors |
//! | [`html`] | HTML parser, table / header / context extraction |
//! | [`index`] | fielded inverted index (Lucene substitute) |
//! | [`graph`] | flows, matching, constrained cuts, α-expansion, BP, TRW-S |
//! | [`core`] | the column mapper: features, potentials, inference |
//! | [`corpus`] | synthetic web corpus generator + the 59-query workload |
//! | [`consolidate`] | answer-table consolidation and ranking |
//! | [`engine`] | [`engine::EngineBuilder`] (offline), [`engine::Engine`] (online), baselines, metrics |
//! | [`service`] | [`service::TableSearchService`]: shared engine + cache + singleflight + batching |
//! | [`server`] | [`server::serve`]: the HTTP/1.1 endpoint, metrics, graceful shutdown, `wwt-serve` |
//! | [`obs`] | request-scoped tracing, per-stage histograms, flight recorder, leveled logging |
//! | [`chaos`] | std-only failpoints (`WWT_CHAOS`) behind the resilience test harness |
//!
//! ## Quickstart
//!
//! The API splits along the service boundary: an [`engine::EngineBuilder`]
//! runs the offline pipeline (extract → store → index) and freezes an
//! immutable, `Send + Sync` [`engine::Engine`]; a
//! [`service::TableSearchService`] shares that engine across threads with
//! a cached, batched front end. Requests are typed
//! ([`engine::QueryRequest`]) and carry per-request overrides; answers
//! come back as [`engine::QueryResponse`] with diagnostics, and every
//! fallible step returns [`model::WwtError`] instead of `Option`/panics.
//!
//! ```
//! use std::sync::Arc;
//! use wwt::corpus::{CorpusConfig, CorpusGenerator};
//! use wwt::engine::{EngineBuilder, QueryRequest};
//! use wwt::service::TableSearchService;
//!
//! // Generate a small synthetic web corpus for one workload query.
//! let spec = wwt::corpus::workload()
//!     .into_iter()
//!     .find(|s| s.query.to_string().starts_with("country | currency"))
//!     .unwrap();
//! let corpus = CorpusGenerator::new(CorpusConfig::small()).generate_for(&[spec]);
//!
//! // Offline: extract + index into an immutable engine snapshot.
//! let mut builder = EngineBuilder::new();
//! builder.add_documents(corpus.documents.iter().map(|d| d.html.as_str()));
//! let engine = Arc::new(builder.build());
//!
//! // Online: serve typed requests through the concurrent service layer.
//! let service = TableSearchService::new(engine);
//! let request = QueryRequest::parse("country | currency").unwrap();
//! let answer = service.answer(&request).unwrap();
//! assert_eq!(answer.table.columns.len(), 2);
//!
//! // Repeats hit the response cache; overrides (here: row limit) miss.
//! let again = service.answer(&request).unwrap();
//! assert_eq!(again.table, answer.table);
//! assert_eq!(service.stats().hits, 1);
//! let top3 = service.answer(&request.clone().max_rows(3)).unwrap();
//! assert!(top3.table.len() <= 3);
//! assert_eq!(service.stats().misses, 2);
//! ```
//!
//! ## Serving over HTTP
//!
//! [`server`] (`wwt-server`) puts that same service behind a network
//! boundary: a std-only HTTP/1.1 endpoint with a worker pool,
//! keep-alive, singleflight-coalesced caching underneath, Prometheus
//! metrics and graceful shutdown. Start the bundled binary against a
//! generated corpus and query it with `curl`:
//!
//! ```text
//! $ cargo run --release --bin wwt-serve -- --addr 127.0.0.1:7070 --scale 0.1 \
//!       --admin-token sesame
//! listening on http://127.0.0.1:7070
//!
//! $ curl -s -X POST http://127.0.0.1:7070/query \
//!        -d '{"query": "country | currency", "options": {"max_rows": 3}}'
//! {"query":"country | currency","columns":["country","currency"],"rows":[...],...}
//!
//! $ curl -s http://127.0.0.1:7070/stats      # cache hit/miss/coalesced counters
//! $ curl -s http://127.0.0.1:7070/metrics    # Prometheus text format
//! $ curl -s -X POST -H 'x-admin-token: sesame' \
//!        http://127.0.0.1:7070/admin/shutdown   # drain + exit 0
//! ```
//!
//! The admin routes only exist when an admin token is configured
//! (`--admin-token` / `WWT_ADMIN_TOKEN`; `wwt-serve` generates and
//! prints one if unset), so an exposed port never offers an
//! unauthenticated kill switch.
//!
//! ## Zero-downtime reload
//!
//! The service holds its engine behind a generation-tagged
//! [`service::EngineSlot`], so a crawler or indexer can refresh the
//! corpus behind a running server. Boot `wwt-serve` from an on-disk
//! source (`--corpus-dir DIR` of raw HTML, or `--index-path DIR`
//! persisted via [`engine::Engine::save_to_dir`] / `--save-index`), then
//! ask it to re-read that source:
//!
//! ```text
//! $ cargo run --release --bin wwt-serve -- --addr 127.0.0.1:7070 \
//!       --corpus-dir /srv/crawl --admin-token sesame
//!
//! # ... drop freshly crawled pages into /srv/crawl, then:
//! $ curl -s -X POST -H 'x-admin-token: sesame' \
//!        http://127.0.0.1:7070/admin/reload
//! {"status":"reloading","generation":0}
//!
//! $ curl -s http://127.0.0.1:7070/healthz     # poll until the bump
//! {"status":"ok","generation":1}
//! ```
//!
//! The rebuild runs on a background thread and is swapped in atomically
//! — queries keep being answered throughout, in-flight requests finish
//! against the snapshot they started on, and the generation-qualified
//! cache key guarantees no response computed against the old index is
//! ever served for the new one (stale entries simply age out of the
//! LRU). `GET /version` reports the crate version, build profile and
//! current generation; per-request `deadline_ms` budgets (HTTP 504 when
//! exceeded) keep slow cold queries from outliving their callers while
//! all this happens.
//!
//! ## Live ingest
//!
//! The frozen engine also takes **live mutations**: a mutable delta
//! segment ([`index::LiveIndex`]) fronts the frozen shards, so single
//! tables can be added or removed in milliseconds — no rebuild — and a
//! background **compaction** later folds the delta into a freshly built
//! frozen engine that is *byte-identical* to building from scratch over
//! the same logical corpus (`tests/live_equivalence.rs` is the
//! differential proof, across all five inference algorithms, random
//! option draws, removals and a persistence round-trip).
//!
//! Over HTTP the surface is three admin-gated routes; bodies are the
//! same one-line JSON the table store uses (`{"id":…,"url":…,"title":…,
//! "headers":[[…]],"rows":[[…]],"context":[…]}`):
//!
//! ```text
//! $ curl -s -X POST -H 'x-admin-token: sesame' http://127.0.0.1:7070/admin/tables \
//!        -d '{"id":9001,"url":"live://v","title":"Volcano heights",
//!             "headers":[["Volcano","Elevation"]],
//!             "rows":[["Etna","3329"],["Fuji","3776"]],"context":[]}'
//! {"status":"ingested","table_id":9001,"generation":1}
//!
//! $ curl -s -X POST http://127.0.0.1:7070/query -d '{"query":"volcano | elevation"}'
//! # ... answers immediately, served from the delta segment
//!
//! $ curl -s -X DELETE -H 'x-admin-token: sesame' \
//!        http://127.0.0.1:7070/admin/tables/9001      # tombstone / evict
//! $ curl -s -X POST -H 'x-admin-token: sesame' \
//!        http://127.0.0.1:7070/admin/compact          # fold delta -> frozen
//! {"status":"compacting","generation":2}
//! ```
//!
//! Each mutation publishes a new generation through the same
//! [`service::EngineSlot`] swap a reload uses, so caches never serve
//! stale answers. `wwt-serve --max-delta-tables N` (env
//! `WWT_MAX_DELTA_TABLES`) auto-compacts in the background once the
//! delta holds N tables; `0` (the default) leaves compaction to the
//! explicit route. Bulk loads go through `POST /admin/tables/batch`
//! (JSONL, one table line per row): N tables cost one delta rebuild,
//! one journal flush and one generation bump instead of N of each.
//! Delta scoring uses merged corpus statistics (frozen
//! hits keep their freeze-time statistics — an approximation compaction
//! erases), and a live engine refuses [`engine::Engine::save_to_dir`]
//! until compacted so the on-disk layout never silently drops
//! mutations (the error names the remedies: `POST /admin/compact`, or a
//! journal-backed restart). Observability: `"delta_tables"`,
//! `"delta_tombstones"`,
//! `"tables_ingested"`, `"tables_deleted"` and `"compactions"` on
//! `GET /stats`, plus the `wwt_delta_tables` / `wwt_delta_tombstones`
//! gauges and `wwt_tables_ingested_total` / `wwt_tables_deleted_total` /
//! `wwt_compactions_total` counters on `GET /metrics`.
//!
//! The same API in-process:
//!
//! ```
//! use wwt::engine::{EngineBuilder, QueryRequest};
//! use wwt::model::{TableId, WebTable};
//!
//! let mut builder = EngineBuilder::new();
//! builder.add_html(
//!     "<html><body><p>countries and currency</p><table>\
//!      <tr><th>Country</th><th>Currency</th></tr>\
//!      <tr><td>India</td><td>Rupee</td></tr></table></body></html>",
//! );
//! let frozen = builder.build();
//! let volcano = WebTable::new(
//!     TableId(9001),
//!     "live://v",
//!     Some("Volcano heights".into()),
//!     vec![vec!["Volcano".into(), "Elevation".into()]],
//!     vec![vec!["Etna".into(), "3329".into()]],
//!     vec![],
//! )
//! .unwrap();
//! let live = frozen.with_table_added(volcano); // O(delta), no rebuild
//! let request = QueryRequest::parse("volcano | elevation").unwrap();
//! assert!(!live.answer(&request).unwrap().table.is_empty());
//! let compacted = live.compacted(); // byte-identical to a fresh build
//! assert!(!compacted.is_live());
//! ```
//!
//! ## Durability
//!
//! Live mutations are made crash-safe by a **write-ahead journal**
//! ([`index::Journal`]): `wwt-serve --journal PATH` (env `WWT_JOURNAL`)
//! appends every accepted ingest and delete as a length-prefixed,
//! checksummed record — fsync'd *before* the 202 leaves the server — and
//! replays the journal over the freshly built engine at the next boot.
//! A `kill -9` between compactions loses nothing: the recovered engine
//! is byte-identical to the one that never crashed
//! (`tests/crash_recovery.rs` is the differential proof, across all five
//! inference algorithms). A torn tail — the crash landed mid-append — is
//! truncated back to the intact prefix with a logged warning, never a
//! boot failure.
//!
//! The journal's lifecycle is tied to compaction: with `--index-path`,
//! a successful `POST /admin/compact` persists the folded index back
//! into that directory (write-new then rename, manifest last, so a
//! half-finished replacement is caught by the manifest checksum instead
//! of misloading) and then truncates the journal atomically. Corpus-dir
//! and synthetic boots keep every record so a rebuild-from-source boot
//! replays the full mutation history. `--journal-fsync never` (env
//! `WWT_JOURNAL_FSYNC`) trades power-loss durability for bulk-load
//! throughput; the default `always` fsyncs every append, and a batch
//! costs one fsync total.
//!
//! In-process the same pieces compose directly: [`index::Journal::open`]
//! returns the surviving records, [`engine::Engine::with_journal_replayed`]
//! folds them over a loaded engine, and
//! [`service::TableSearchService::attach_journal`] makes the service
//! journal every subsequent mutation. Observability: `"journal_attached"`,
//! `"journal_records"`, `"journal_bytes"`, `"journal_path"` and
//! `"batches_ingested"` on `GET /stats`, the journal path on
//! `GET /version`, and the `wwt_journal_attached` / `wwt_journal_records`
//! / `wwt_journal_bytes` gauges plus `wwt_batches_ingested_total` on
//! `GET /metrics`.
//!
//! ## Sharding
//!
//! The engine's index is hash-partitioned into N independent shards
//! ([`index::ShardedIndex`]; default: one per core, capped at 8) and the
//! two retrieval probes scatter-gather across them on the engine pool —
//! cold-query latency drops on multicore hardware while answers stay
//! **byte-identical** to the unsharded engine. That equivalence is a
//! hard guarantee, not an aspiration: shards score against the merged
//! *global* corpus statistics, per-shard top-k lists merge under the
//! same `(score, TableId)` total order the single index sorts by, and
//! the differential harness (`tests/shard_equivalence.rs`) asserts
//! byte-identical wire responses across shard counts, corpus sizes and
//! every inference algorithm.
//!
//! ```
//! use wwt::engine::{EngineBuilder, QueryRequest};
//!
//! let page = "<html><body><p>countries and currency</p><table>\
//!             <tr><th>Country</th><th>Currency</th></tr>\
//!             <tr><td>India</td><td>Rupee</td></tr></table></body></html>";
//! let mut sharded = EngineBuilder::new();
//! sharded.shards(4).add_html(page);
//! let mut single = EngineBuilder::new();
//! single.shards(1).add_html(page);
//! let request = QueryRequest::parse("country | currency").unwrap();
//! let a = sharded.build().answer(&request).unwrap();
//! let b = single.build().answer(&request).unwrap();
//! assert_eq!(a.table, b.table); // sharding never changes answers
//! ```
//!
//! Persistence keeps the layout: [`engine::Engine::save_to_dir`] writes
//! a versioned `manifest.json` plus one `shard-NNNN.idx` per shard
//! (plus `tables.jsonl`), and [`engine::Engine::load_from_dir`] restores
//! the same shard count, verifying the manifest's term-dictionary
//! checksum on every load. That is the only layout it reads: a
//! directory with another manifest version, or none, is refused.
//! Serving: `wwt-serve --shards N`
//! partitions the boot build, `POST /admin/reload` rebuilds with the
//! serving engine's shard count, and the count is reported by
//! `GET /version` (`"shards"`), `GET /stats` (`"index_shards"`) and the
//! `wwt_index_shards` Prometheus gauge.
//!
//! ## Performance
//!
//! The online query path is fully **interned**: the index freeze builds
//! a term dictionary ([`text::TermDict`], ids assigned in sorted term
//! order, persisted in the index manifest), and everything after the
//! one-hash-per-token resolution step runs on dense `u32` ids — postings
//! are a vector indexed by term id, per-term IDF and per-posting `√tf` /
//! per-doc `√(len+1)` are precomputed at freeze, ranked probes score
//! into a reusable dense accumulator and select top-k with a bounded
//! heap, and every table's feature view (tokenized headers, TF-IDF
//! vectors, value sets) is computed **once at engine bind** and shared
//! by all queries instead of being rebuilt per request. The doc-set
//! probe memo behind PMI² is striped and size-capped (reported as
//! `"docset_cache_entries"` in `GET /stats` and the
//! `wwt_docset_cache_entries` gauge), and `QueryDiagnostics` reports
//! per-shard probe wall-clocks (`timing_us.probe1_shards` /
//! `probe2_shards` on the wire) so scatter-gather stragglers are
//! visible.
//!
//! The **column-mapping stage** — the dominant per-query cost — rides
//! the same bind-time layout. Each table's feature view interns its
//! per-column segment/cover structures once at bind
//! (`wwt-core`'s `view::InternedFeatures`): sorted `TermId` vectors for
//! header and value segments, precomputed per-segment norms, and FNV-1a
//! content signatures per column. At query time the query columns are
//! bound to the dictionary once, and Eq. 3 node potentials reduce to
//! sorted-merge intersections over dense ids — zero string hashing per
//! (query, table) pair. Two pruning layers sit on top:
//!
//! * **Exact upper-bound early exit** (always on): a per-table bound on
//!   the best achievable relevant labeling, folded in the same IEEE
//!   operation order as the real scorer, skips the assignment solve for
//!   tables that provably land on the all-`nr` labeling anyway. Exact by
//!   construction — covered bit-for-bit by the equivalence harness.
//! * **Content-signature edge indexing** (always on): §3.3 edge
//!   construction only scores column pairs that share at least one value
//!   or header signature. A pair sharing neither has exactly zero value
//!   overlap *and* zero header cosine, so its similarity is exactly
//!   `0.0` and it never produced an edge on the dense path either —
//!   skipping it is provably identical, and the masked scorer preserves
//!   the dense emission order.
//! * **Cross-query pair memoization** (always on): the per-pair column
//!   matching of §3.3 depends only on the two table views and two
//!   mapper-config scalars — never on the query (the per-query `nsim`
//!   normalization runs afterwards, over the query's own candidate
//!   set). The engine keeps a config-fingerprinted memo of matched
//!   `(col, col, sim)` lists keyed by table-id pair and replays them on
//!   later queries that retrieve the same pair, which is bit-identical
//!   to recomputation. Live mutations swap in a fresh memo because
//!   ingest can rebind a table id to new content.
//! * **Aggressive candidate pruning** (`"early_exit": true` per
//!   request, default **off**): collapses the label space of columns
//!   with zero similarity to every query column and drops tables whose
//!   upper bound cannot beat all-`nr` from edge construction entirely.
//!   This one **may change results** — a pruned table can no longer be
//!   rescued by its graph neighbors under the joint inference
//!   algorithms — so it participates in the cache key and is excluded
//!   from the byte-identity guarantee; `tests/interned_equivalence.rs`
//!   still holds knob-on responses byte-identical between the interned
//!   path and its string-keyed oracle (CI runs the suite both ways).
//!   Stats surface as `"map_edge_pairs_scored"` / `"map_edge_pairs_
//!   skipped"` / `"map_edge_pairs_memoized"` / `"map_early_exit_tables"`
//!   / `"map_pruned_tables"` on `GET /stats` and the matching
//!   `wwt_map_*_total` counters on `GET /metrics`.
//!
//! None of the default-path work changes a single answer byte: operand
//! values and accumulation order are preserved exactly, and the
//! differential harnesses (`tests/shard_equivalence.rs`,
//! `tests/interned_equivalence.rs`) plus the golden snapshots hold the
//! optimized path to bit-identical output against its string-keyed /
//! per-query oracles.
//!
//! Measure it with the perf benchmark, which writes the machine-readable
//! trajectory point `BENCH_query_path.json` at the repo root (fixed
//! seed; `WWT_SCALE` sizes the corpus, default 0.15):
//!
//! ```text
//! cargo run --release -p wwt-bench --bin perf
//! cat BENCH_query_path.json   # index_build_ms, engine_bind_ms,
//!                             # probe_topk / cold_query / warm_query µs
//! ```
//!
//! `cold_query` is the first uncached end-to-end run per workload query
//! (the number the interning + precompute work targets — ≥ 2× down vs.
//! the string-keyed path on the bench corpus); `column_map` isolates the
//! mapping stage the fast path above targets, with a
//! `column_map_by_algorithm` breakdown per inference algorithm;
//! `index_build_ms` tracks
//! the offline freeze, which the hash-free positional freeze keeps at or
//! below its pre-interning cost. `engine_bind_ms` additionally includes
//! the bind-time feature precompute — deliberately spent offline so no
//! query ever pays it. The bind itself fans out over a persistent worker
//! pool (`wwt-pool`): per-shard index freezes and per-table feature
//! computations run in parallel (`EngineBuilder::bind_threads`, 0 =
//! auto), and the artifact records both `engine_bind_ms` (pooled) and
//! `engine_bind_serial_ms` so the multicore win is measured, not
//! assumed — the built engine is identical for every thread count. The
//! same pool batches the per-view potential computations inside the
//! column mapper and the scatter-gather probe fan-out at query time.
//! CI runs the same binary in smoke mode
//! (`WWT_BENCH_SMOKE=1`) and uploads the artifact.
//!
//! ## Per-route concurrency limits
//!
//! `POST /query` and `POST /query/batch` share a concurrency budget
//! ([`server::ServerConfig::max_concurrent_queries`], default 256;
//! `wwt-serve --max-concurrent-queries N`): beyond it, query requests
//! answer **429** with `Retry-After: 1` instead of queueing behind a
//! saturated engine, while health/stats/metrics/admin stay reachable.
//! Rejections are counted in `wwt_http_concurrency_rejected_total`.
//!
//! In-process, the same round trip (ephemeral port, typed client):
//!
//! ```
//! use std::sync::Arc;
//! use wwt::engine::EngineBuilder;
//! use wwt::server::{serve, HttpClient, ServerConfig};
//! use wwt::service::TableSearchService;
//!
//! let mut builder = EngineBuilder::new();
//! builder.add_html(
//!     "<html><body><p>countries and currency</p><table>\
//!      <tr><th>Country</th><th>Currency</th></tr>\
//!      <tr><td>India</td><td>Rupee</td></tr></table></body></html>",
//! );
//! let service = Arc::new(TableSearchService::new(Arc::new(builder.build())));
//! let handle = serve(service, ServerConfig::default()).unwrap();
//!
//! let mut client = HttpClient::connect(handle.addr()).unwrap();
//! let ok = client.post("/query", r#"{"query":"country | currency"}"#).unwrap();
//! assert_eq!(ok.status, 200);
//! let bad = client.post("/query", r#"{"query":" | "}"#).unwrap();
//! assert_eq!(bad.status, 400); // parse errors are the client's fault
//! handle.shutdown();           // drains in-flight requests, then returns
//! ```
//!
//! ## Observability
//!
//! The [`obs`] crate threads end-to-end visibility through the whole
//! stack with zero hot-path cost when unused:
//!
//! * **Request ids** — every HTTP response (success *and* error,
//!   including 429/503 backpressure) echoes the client's `x-request-id`
//!   header, or a server-minted `wwt-{pid}-{seq}` id, so one id follows
//!   a query through logs, traces and the flight recorder.
//! * **Inline traces** — `"options":{"explain":true}` bypasses the
//!   response cache and attaches a full span tree under
//!   `diagnostics.trace`: one span per pipeline stage (`probe1`,
//!   `read1`, `probe2`, `read2`, `column_map`, `consolidate`) with
//!   per-shard child spans, plus notes (candidate counts, cache path,
//!   engine generation, deadline budget). Plain requests are
//!   byte-identical to a build without tracing — the disabled
//!   [`obs::Trace`] is an `Option::None` check
//!   (`tests/interned_equivalence.rs` proves explain reruns and the
//!   fast/oracle pair byte-stable).
//! * **Per-stage histograms** — `GET /metrics` exports
//!   `wwt_stage_duration_us{stage=…}` Prometheus histograms for every
//!   stage plus `cache_lookup` and `serialize`, fed from the stage
//!   timings the engine already measures (cache hits tick only
//!   `cache_lookup`, never re-observe the run that built the entry).
//! * **Flight recorder** — the service retains the N slowest, N most
//!   recent, and every deadline-exceeded / zero-result query with full
//!   stage-level traces in lock-striped rings; the admin-gated
//!   `GET /debug/slow_queries` and `GET /debug/trace/{request_id}`
//!   routes serve them, and `flight_*` counters ride on `GET /stats`.
//! * **Structured logs** — `wwt-serve --log-level error|warn|info|debug`
//!   and `--log-json` (env `WWT_LOG_LEVEL` / `WWT_LOG_JSON`) drive the
//!   std-only leveled logger ([`obs::log!`]) used by the server, the
//!   reload thread and background compaction; lines carry the request
//!   id where one exists.
//!
//! ```text
//! $ curl -s -X POST http://127.0.0.1:7070/query \
//!        -H 'x-request-id: demo-1' \
//!        -d '{"query":"country | currency","options":{"explain":true}}' \
//!   | python3 -m json.tool | grep -A4 '"trace"'
//! $ curl -s -H 'x-admin-token: sesame' \
//!        http://127.0.0.1:7070/debug/trace/demo-1   # retained flight record
//! $ curl -s http://127.0.0.1:7070/metrics | grep wwt_stage_duration_us
//! ```
//!
//! ## Resilience
//!
//! The serving stack is **fail-soft** end to end, and ships the harness
//! that proves it. Three layers compose:
//!
//! * **Panic isolation** — a panic anywhere in the query pipeline is
//!   caught (in the engine for shard-probe workers, at the service
//!   boundary otherwise) and converted to
//!   [`model::WwtError::Internal`] (HTTP **500** with the request id):
//!   no worker dies, no singleflight follower hangs on the abandoned
//!   flight, nothing is cached, and the failure is counted
//!   (`wwt_internal_errors_total`) and retained by the flight recorder.
//! * **Partial-result degradation** — `"options":{"fail_soft":true}`
//!   (default **off**, part of the cache key) lets pipeline stages
//!   absorb recoverable faults instead of failing the request: a dead
//!   index shard is dropped from the scatter-gather, a failed
//!   column-map batch falls back to the stage-1 premapping, deadline
//!   pressure downgrades joint inference to Independent or truncates a
//!   stage. The answer then carries `"degraded":true` plus
//!   human-readable `"degraded_reasons"`; a request whose budget is
//!   already spent at admission is still refused hard (**504**, counted
//!   in `wwt_queries_shed_total` — nothing useful can be salvaged).
//! * **Mutation-path resilience** — a journal append that keeps failing
//!   after a bounded in-place retry (`wwt_journal_retries_total`) trips
//!   **sticky read-only mode**: mutations answer **503** +
//!   `Retry-After` ([`model::WwtError::Unavailable`]) instead of
//!   half-acknowledging writes, while queries are untouched. The state
//!   is visible on `GET /healthz` (`"status":"degraded"` — still HTTP
//!   200, the read path is healthy), `"read_only"` on `GET /stats` and
//!   the `wwt_read_only` gauge; `POST /admin/recover` (admin-gated)
//!   lifts it once the operator has fixed the disk.
//!
//! Faults are injected with the std-only [`chaos`] failpoint crate:
//! sites like `journal.append`, `probe.shard`, `map.batch`,
//! `persist.load` / `persist.save` and `reload.build` are armed
//! programmatically ([`chaos::arm`]) or via the environment —
//! `WWT_CHAOS='probe.shard=panic,journal.append=error*3'`, with
//! optional fire-count (`*N`) and seeded-deterministic sampling
//! (`~1inK`). Disarmed (the default), every site is two relaxed atomic
//! loads; no behavior or answer byte changes, which
//! `tests/chaos_differential.rs` holds as a differential guarantee
//! alongside single-fault crash-freedom and the degraded-subset
//! contract. CI's resilience smoke boots `wwt-serve` under an armed
//! journal fault and walks the full degrade → refuse → recover cycle
//! over HTTP.
//!
//! ```
//! use std::sync::Arc;
//! use wwt::engine::{EngineBuilder, QueryRequest};
//! use wwt::service::TableSearchService;
//!
//! let mut builder = EngineBuilder::new();
//! builder.add_html(
//!     "<html><body><p>countries and currency</p><table>\
//!      <tr><th>Country</th><th>Currency</th></tr>\
//!      <tr><td>India</td><td>Rupee</td></tr></table></body></html>",
//! );
//! let service = TableSearchService::new(Arc::new(builder.build()));
//! let request = QueryRequest::parse("country | currency").unwrap();
//!
//! // Inject a panic into every shard probe; no thread dies, the error
//! // is typed, and nothing poisons later requests.
//! wwt::chaos::arm("probe.shard=panic").unwrap();
//! assert!(matches!(
//!     service.answer(&request),
//!     Err(wwt::model::WwtError::Internal(_))
//! ));
//! wwt::chaos::disarm_all();
//! assert!(service.answer(&request).is_ok());
//! assert_eq!(service.stats().internal_errors, 1);
//!
//! // Fail-soft: the same fault degrades instead of failing.
//! wwt::chaos::arm("probe.shard=error").unwrap();
//! let soft = service.answer(&request.fail_soft(true)).unwrap();
//! assert!(soft.diagnostics.degraded);
//! assert!(!soft.diagnostics.degraded_reasons.is_empty());
//! wwt::chaos::disarm_all();
//! ```

pub use wwt_chaos as chaos;
pub use wwt_consolidate as consolidate;
pub use wwt_core as core;
pub use wwt_corpus as corpus;
pub use wwt_engine as engine;
pub use wwt_graph as graph;
pub use wwt_html as html;
pub use wwt_index as index;
pub use wwt_json as json;
pub use wwt_model as model;
pub use wwt_obs as obs;
pub use wwt_server as server;
pub use wwt_service as service;
pub use wwt_text as text;
