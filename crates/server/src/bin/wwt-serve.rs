//! `wwt-serve`: build (or load) an engine and serve column-keyword table
//! queries over HTTP, with zero-downtime reloads.
//!
//! ```text
//! wwt-serve [--addr 127.0.0.1:7070] [--scale 0.1] [--queries 8] [--workers N]
//!           [--admin-token SECRET] [--corpus-dir DIR | --index-path DIR]
//!           [--save-index DIR] [--build-only]
//!           [--journal PATH] [--journal-fsync always|never]
//! ```
//!
//! The engine comes from the first of: `--index-path DIR` (a directory
//! persisted by `Engine::save_to_dir` — `manifest.json`, one
//! `shard-NNNN.idx` per shard and `tables.jsonl`),
//! `--corpus-dir DIR` (raw `.html` documents, offline pipeline from
//! scratch), or the built-in synthetic corpus (`--scale`/`--queries`).
//! `--save-index DIR` persists whatever engine was built; `--build-only`
//! exits right after (build an index in CI, then boot from it).
//!
//! When `--corpus-dir` or `--index-path` is given, an authorized
//! `POST /admin/reload` re-reads that source on a background thread and
//! hot-swaps the rebuilt engine while queries keep being answered; the
//! bumped generation shows in `GET /healthz` and `GET /version`.
//!
//! `--journal PATH` makes live mutations durable: every accepted ingest
//! and delete is appended (fsync'd, unless `--journal-fsync never`) to a
//! write-ahead journal *before* the 202 is answered, and replayed over
//! the freshly built engine at the next boot — a `kill -9` between
//! compactions loses nothing. With `--index-path`, a successful
//! `POST /admin/compact` persists the folded index back into that
//! directory and truncates the journal.
//!
//! Every flag also reads an environment fallback (`WWT_ADDR`,
//! `WWT_SCALE`, `WWT_QUERIES`, `WWT_SERVER_WORKERS`, `WWT_ADMIN_TOKEN`,
//! `WWT_CORPUS_DIR`, `WWT_INDEX_PATH`, `WWT_SAVE_INDEX`). The process
//! runs until an authorized `POST /admin/shutdown` arrives, then drains
//! in-flight requests and exits 0. When no token is given a random one
//! is generated and printed at startup, so shutdown/reload stay
//! deliberate operator actions instead of unauthenticated routes; for
//! real deployments pass your own secret.

use std::path::PathBuf;
use std::sync::Arc;
use wwt_corpus::{workload, CorpusConfig, CorpusGenerator};
use wwt_engine::{bind_corpus_sharded, Engine, WwtConfig};
use wwt_index::{FsyncPolicy, Journal};
use wwt_obs::{log, set_log_json, set_log_level, LogLevel};
use wwt_server::{serve, EngineSource, ServerConfig};
use wwt_service::TableSearchService;

fn flag_or_env(args: &[String], flag: &str, env: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var(env).ok())
}

/// Like [`flag_or_env`] but parsed; an unparseable value is a hard exit,
/// never silently replaced by the default.
fn parsed_flag_or_env<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    env: &str,
    default: T,
) -> T {
    match flag_or_env(args, flag, env) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("wwt-serve: {flag} must be a number, got {raw:?}");
            std::process::exit(2);
        }),
    }
}

/// A process-unique token for when the operator supplies none: random
/// enough to stop drive-by shutdowns, printed at startup so the local
/// operator can still stop the server.
fn generate_admin_token() -> String {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::process::id().hash(&mut h);
    std::time::SystemTime::now().hash(&mut h);
    std::time::Instant::now().hash(&mut h);
    format!("wwt-{:016x}", h.finish())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: wwt-serve [--addr HOST:PORT] [--scale F] [--queries N] [--workers N]\n\
             \x20                [--shards N] [--max-concurrent-queries N]\n\
             \x20                [--max-delta-tables N]\n\
             \x20                [--admin-token SECRET] [--corpus-dir DIR | --index-path DIR]\n\
             \x20                [--save-index DIR] [--build-only]\n\
             \x20                [--journal PATH] [--journal-fsync always|never]\n\
             \x20                [--log-level error|warn|info|debug] [--log-json]\n\
             env fallbacks: WWT_ADDR, WWT_SCALE, WWT_QUERIES, WWT_SERVER_WORKERS,\n\
             \x20               WWT_SHARDS, WWT_MAX_CONCURRENT_QUERIES, WWT_MAX_DELTA_TABLES,\n\
             \x20               WWT_ADMIN_TOKEN, WWT_CORPUS_DIR, WWT_INDEX_PATH, WWT_SAVE_INDEX,\n\
             \x20               WWT_JOURNAL, WWT_JOURNAL_FSYNC, WWT_LOG_LEVEL, WWT_LOG_JSON\n\
             live ingest: POST /admin/tables (one table-store JSON line per request),\n\
             \x20            POST /admin/tables/batch (JSONL: one table line per row, one\n\
             \x20            rebuild + generation for the whole batch),\n\
             \x20            DELETE /admin/tables/ID, POST /admin/compact — all admin-gated;\n\
             \x20            --max-delta-tables N auto-compacts once the delta holds N tables\n\
             \x20            (0 = manual compaction only)\n\
             durability: --journal PATH appends every mutation to a write-ahead journal\n\
             \x20           (fsync'd before the 202) and replays it at boot; with\n\
             \x20           --index-path, compaction persists the folded index and\n\
             \x20           truncates the journal\n\
             observability: GET /metrics (per-stage histograms), POST /query with\n\
             \x20              \"options\":{{\"explain\":true}} for an inline trace, and the\n\
             \x20              admin-gated GET /debug/slow_queries, GET /debug/trace/ID"
        );
        return;
    }
    // Configure logging before anything can emit a line.
    if let Some(raw) = flag_or_env(&args, "--log-level", "WWT_LOG_LEVEL") {
        match LogLevel::parse(&raw) {
            Some(level) => set_log_level(level),
            None => {
                eprintln!("wwt-serve: --log-level must be error|warn|info|debug, got {raw:?}");
                std::process::exit(2);
            }
        }
    }
    let log_json = args.iter().any(|a| a == "--log-json")
        || std::env::var("WWT_LOG_JSON")
            .is_ok_and(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"));
    set_log_json(log_json);
    let addr =
        flag_or_env(&args, "--addr", "WWT_ADDR").unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let scale: f64 = parsed_flag_or_env(&args, "--scale", "WWT_SCALE", 0.1);
    let n_queries: usize = parsed_flag_or_env(&args, "--queries", "WWT_QUERIES", 8);
    // 0 = the builder's auto default (one shard per core, capped at 8).
    let shards: usize = parsed_flag_or_env(&args, "--shards", "WWT_SHARDS", 0);
    let shards = (shards > 0).then_some(shards);
    let admin_token = flag_or_env(&args, "--admin-token", "WWT_ADMIN_TOKEN")
        .filter(|t| !t.is_empty())
        .unwrap_or_else(generate_admin_token);
    let corpus_dir = flag_or_env(&args, "--corpus-dir", "WWT_CORPUS_DIR").map(PathBuf::from);
    let index_path = flag_or_env(&args, "--index-path", "WWT_INDEX_PATH").map(PathBuf::from);
    let save_index = flag_or_env(&args, "--save-index", "WWT_SAVE_INDEX").map(PathBuf::from);
    let journal_path = flag_or_env(&args, "--journal", "WWT_JOURNAL").map(PathBuf::from);
    let journal_fsync = match flag_or_env(&args, "--journal-fsync", "WWT_JOURNAL_FSYNC") {
        None => FsyncPolicy::Always,
        Some(raw) => FsyncPolicy::parse(&raw).unwrap_or_else(|e| {
            eprintln!("wwt-serve: --journal-fsync: {e}");
            std::process::exit(2);
        }),
    };
    // Env truthiness: "0"/"false"/"" mean off, like an absent variable —
    // an env file disabling the flag must not silently enable it.
    let build_only = args.iter().any(|a| a == "--build-only")
        || std::env::var("WWT_BUILD_ONLY")
            .is_ok_and(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"));

    // The reload source mirrors the boot source: what built the engine
    // is what /admin/reload re-reads. The two flavors are alternatives —
    // refusing the ambiguous combination beats silently preferring one.
    let engine_source = match (&index_path, &corpus_dir) {
        (Some(_), Some(_)) => {
            eprintln!(
                "wwt-serve: --index-path and --corpus-dir are mutually exclusive; \
                 pass the one the server should (re)build from"
            );
            std::process::exit(2);
        }
        (Some(dir), None) => Some(EngineSource::IndexDir(dir.clone())),
        (None, Some(dir)) => Some(EngineSource::CorpusDir(dir.clone())),
        (None, None) => None,
    };

    let mut engine = match &engine_source {
        Some(source) => {
            log!(
                LogLevel::Info,
                "wwt-serve",
                "building engine from {:?} ...",
                source.path()
            );
            if shards.is_some() && matches!(source, EngineSource::IndexDir(_)) {
                log!(
                    LogLevel::Warn,
                    "wwt-serve",
                    "--shards is ignored for --index-path boots; \
                     the persisted manifest owns the shard count"
                );
            }
            match source.build_sharded(WwtConfig::default(), shards) {
                Ok(engine) => engine,
                Err(e) => {
                    log!(
                        LogLevel::Error,
                        "wwt-serve",
                        "engine build from {:?} failed: {e}",
                        source.path()
                    );
                    std::process::exit(1);
                }
            }
        }
        None => {
            let specs: Vec<_> = workload().into_iter().take(n_queries.max(1)).collect();
            log!(
                LogLevel::Info,
                "wwt-serve",
                "generating corpus (scale {scale}, {} workload queries) ...",
                specs.len()
            );
            let corpus = CorpusGenerator::new(CorpusConfig {
                scale,
                ..CorpusConfig::default()
            })
            .generate_for(&specs);
            log!(
                LogLevel::Info,
                "wwt-serve",
                "extracting + indexing {} documents ...",
                corpus.documents.len()
            );
            bind_corpus_sharded(&corpus, WwtConfig::default(), shards).engine
        }
    };
    log!(
        LogLevel::Info,
        "wwt-serve",
        "engine ready: {} tables over {} index shard(s)",
        engine.store().len(),
        engine.n_shards()
    );

    if let Some(dir) = &save_index {
        if let Err(e) = engine.save_to_dir(dir) {
            log!(
                LogLevel::Error,
                "wwt-serve",
                "saving the index to {} failed: {e}",
                dir.display()
            );
            std::process::exit(1);
        }
        log!(
            LogLevel::Info,
            "wwt-serve",
            "index persisted to {}",
            dir.display()
        );
    }
    if build_only {
        log!(
            LogLevel::Info,
            "wwt-serve",
            "--build-only: exiting without serving"
        );
        return;
    }

    // Open the journal and replay any surviving mutations over the
    // freshly built engine: everything acknowledged before the last
    // shutdown — or crash — is queryable again before the socket opens.
    // (This runs after --save-index so that flag keeps persisting the
    // frozen as-built engine.)
    let mut journal = None;
    if let Some(path) = &journal_path {
        let (opened, replay) = match Journal::open(path, journal_fsync) {
            Ok(opened) => opened,
            Err(e) => {
                log!(
                    LogLevel::Error,
                    "wwt-serve",
                    "could not open the journal at {}: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
        };
        if let Some(tail) = &replay.torn_tail {
            log!(
                LogLevel::Warn,
                "wwt-serve",
                "journal tail torn at byte {} ({}; {} byte(s) dropped) — \
                 continuing with the intact prefix",
                tail.offset,
                tail.reason,
                tail.dropped_bytes
            );
        }
        if !replay.records.is_empty() {
            engine = match engine.with_journal_replayed(&replay.records) {
                Ok(engine) => engine,
                Err(e) => {
                    log!(
                        LogLevel::Error,
                        "wwt-serve",
                        "journal replay from {} failed: {e}",
                        path.display()
                    );
                    std::process::exit(1);
                }
            };
            log!(
                LogLevel::Info,
                "wwt-serve",
                "replayed {} journaled mutation(s): delta now {} table(s), {} tombstone(s)",
                replay.records.len(),
                engine.delta_len(),
                engine.tombstone_len()
            );
        }
        log!(
            LogLevel::Info,
            "wwt-serve",
            "journal attached at {} (fsync: {})",
            path.display(),
            journal_fsync.label()
        );
        journal = Some(opened);
    }

    let mut server_config = ServerConfig {
        addr,
        admin_token: Some(admin_token.clone()),
        engine_source,
        ..ServerConfig::default()
    };
    server_config.workers = parsed_flag_or_env(
        &args,
        "--workers",
        "WWT_SERVER_WORKERS",
        server_config.workers,
    );
    server_config.max_concurrent_queries = parsed_flag_or_env(
        &args,
        "--max-concurrent-queries",
        "WWT_MAX_CONCURRENT_QUERIES",
        server_config.max_concurrent_queries,
    );
    server_config.max_delta_tables = parsed_flag_or_env(
        &args,
        "--max-delta-tables",
        "WWT_MAX_DELTA_TABLES",
        server_config.max_delta_tables,
    );

    let sample_query = sample_query(&engine);
    let service = Arc::new(TableSearchService::new(Arc::new(engine)));
    if let Some(journal) = journal {
        // Compaction may persist+truncate only when the engine source is
        // an index directory it can fold the delta back into; a corpus
        // or synthetic boot keeps every journal record so a rebuild
        // replays the full mutation history.
        service.attach_journal(journal, index_path.clone());
    }
    let handle = match serve(service, server_config) {
        Ok(handle) => handle,
        Err(e) => {
            log!(LogLevel::Error, "wwt-serve", "bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on http://{}", handle.addr());
    println!(
        "try: curl -s -X POST http://{}/query -d '{{\"query\":\"{sample_query}\"}}'",
        handle.addr(),
    );
    println!(
        "reload: curl -s -X POST -H 'x-admin-token: {admin_token}' http://{}/admin/reload",
        handle.addr()
    );
    println!(
        "ingest: curl -s -X POST -H 'x-admin-token: {admin_token}' http://{}/admin/tables \
         --data-binary @table.json",
        handle.addr()
    );
    println!(
        "stop: curl -s -X POST -H 'x-admin-token: {admin_token}' http://{}/admin/shutdown",
        handle.addr()
    );

    handle.wait_shutdown_requested();
    log!(
        LogLevel::Info,
        "wwt-serve",
        "shutdown requested; draining in-flight requests ..."
    );
    // Snapshot the counters only after the drain so in-flight requests
    // completed during shutdown are included in the farewell line.
    let service = Arc::clone(handle.service());
    let total = handle.shutdown();
    let stats = service.stats();
    log!(
        LogLevel::Info,
        "wwt-serve",
        "served {total} requests over {} generation(s) \
         (cache: {} hits / {} misses / {} coalesced); bye",
        stats.generation + 1,
        stats.hits,
        stats.misses,
        stats.coalesced
    );
}

/// A query hint for the startup banner: the first workload query when
/// serving the synthetic corpus, or one built from the first indexed
/// table's headers otherwise.
fn sample_query(engine: &Engine) -> String {
    engine
        .store()
        .iter()
        .next()
        .filter(|t| t.n_header_rows() > 0)
        .map(|t| {
            let headers: Vec<&str> = (0..t.n_cols().min(2))
                .map(|c| t.header(0, c))
                .filter(|h| !h.is_empty())
                .collect();
            headers.join(" | ").to_lowercase()
        })
        .filter(|q| !q.is_empty())
        .unwrap_or_else(|| "country | currency".to_string())
}
