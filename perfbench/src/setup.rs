//! Corpus, engine binding and the in-process server under test.

use crate::http::Conn;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wwt_corpus::{workload, CorpusConfig, CorpusGenerator, GeneratedCorpus};
use wwt_engine::{Engine, EngineBuilder, WwtConfig};
use wwt_index::{FsyncPolicy, Journal};
use wwt_model::{TableId, WebTable};
use wwt_server::{serve, ServerConfig, ServerHandle};
use wwt_service::TableSearchService;

/// Server worker threads, fixed so results do not depend on the machine.
pub const SERVER_WORKERS: usize = 2;
/// Delta size that triggers the server's background compaction.
pub const MAX_DELTA_TABLES: usize = 64;
pub const ADMIN_TOKEN: &str = "perfbench";
pub const FSYNC: FsyncPolicy = FsyncPolicy::Always;

/// Seed of the synthetic corpus. It is fixed, not the workload seed: the
/// engine's cost per query depends on the corpus (on a 2-core machine
/// `unique_tail` ran about 15% faster on the corpus of seed 2 than on that
/// of seed 1), which would
/// bury the run-to-run comparison this benchmark exists for. The workload
/// seed drives everything sent to the server.
pub const CORPUS_SEED: u64 = 7;

/// The paper-scale synthetic corpus (2,305 tables). Generating it is the
/// generator's work, so no set-up time counts it.
pub fn generate() -> GeneratedCorpus {
    CorpusGenerator::new(CorpusConfig {
        seed: CORPUS_SEED,
        ..CorpusConfig::full()
    })
    .generate_for(&workload())
}

/// Extracts every document's tables with the ids
/// [`EngineBuilder::add_document`] would assign.
pub fn extract_all(corpus: &GeneratedCorpus) -> Vec<WebTable> {
    let mut tables = Vec::new();
    let mut next_id = 0u32;
    for doc in &corpus.documents {
        let extracted = wwt_html::extract_tables(&doc.html, &doc.url, next_id);
        next_id += extracted.len() as u32;
        tables.extend(extracted);
    }
    tables
}

/// The serving engine's tables: everything extracted but the held-out
/// tables, which arrive later through live ingest.
pub fn base_tables(tables: &[WebTable], held_out: &HashSet<TableId>) -> Vec<WebTable> {
    tables
        .iter()
        .filter(|t| !held_out.contains(&t.id))
        .cloned()
        .collect()
}

/// An engine bound apart from the served one, the reference the served
/// answers are compared with.
pub fn reference_engine(mut tables: Vec<WebTable>) -> Engine {
    tables.sort_by_key(|t| t.id);
    Engine::from_tables(tables, WwtConfig::default())
}

/// Times of the three set-up steps a user of the server waits for.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub extract_s: f64,
    pub bind_s: f64,
    pub serve_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.extract_s + self.bind_s + self.serve_s
    }
}

pub struct Server {
    pub handle: ServerHandle,
    pub journal: PathBuf,
}

impl Server {
    pub fn service(&self) -> &Arc<TableSearchService> {
        self.handle.service()
    }
}

/// One timed set-up: HTML extraction, `EngineBuilder::build` over the
/// base tables, then the journal, `serve()` and polling `/healthz` until
/// it answers 200. The journal lives in `dir`.
pub fn start_server(
    corpus: &GeneratedCorpus,
    held_out: &HashSet<TableId>,
    dir: &Path,
) -> Result<(Server, SetupTimes), String> {
    let t0 = Instant::now();
    let tables = extract_all(corpus);
    let extract_s = t0.elapsed().as_secs_f64();

    let base: Vec<WebTable> = tables
        .into_iter()
        .filter(|t| !held_out.contains(&t.id))
        .collect();
    let t0 = Instant::now();
    let mut builder = EngineBuilder::new();
    builder.add_tables(base);
    let engine = Arc::new(builder.build());
    let bind_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let server = serve_engine(engine, dir)?;
    let serve_s = t0.elapsed().as_secs_f64();
    Ok((
        server,
        SetupTimes {
            extract_s,
            bind_s,
            serve_s,
        },
    ))
}

/// Serves `engine` with a fresh journal in `dir` and waits for health.
pub fn serve_engine(engine: Arc<Engine>, dir: &Path) -> Result<Server, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let journal_path = dir.join("journal.wal");
    drop(std::fs::remove_file(&journal_path));
    let service = Arc::new(TableSearchService::new(engine));
    let (journal, _) = Journal::open(&journal_path, FSYNC).map_err(|e| format!("journal: {e}"))?;
    service.attach_journal(journal, None);
    let handle = serve(
        service,
        ServerConfig {
            workers: SERVER_WORKERS,
            admin_token: Some(ADMIN_TOKEN.to_string()),
            max_delta_tables: MAX_DELTA_TABLES,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("serve: {e}"))?;
    let mut conn = Conn::new(handle.addr());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match conn.get("/healthz") {
            Ok(reply) if reply.status == 200 => break,
            _ if Instant::now() > deadline => return Err("server never became healthy".into()),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    Ok(Server {
        handle,
        journal: journal_path,
    })
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Machine-wide `(steal, total)` CPU time so far, in ticks: the share the
/// hypervisor gave to other guests is a noise floor worth logging.
pub fn machine_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// User plus system CPU time of this process so far, in microseconds.
pub fn process_cpu_us() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    // Linux reports these in USER_HZ, which is 100 on every supported
    // architecture.
    Some(ticks * 10_000.0)
}

/// The commit the sources came from when they sit in a git checkout,
/// else `"none"`; read from `.git` directly so no process is started.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a digest of the program's sources (every `.rs` and `.toml` under
/// `crates/`, plus the root manifest), which identifies the code under
/// test even where no git metadata exists.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}
