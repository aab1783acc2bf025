//! `wwt-perfbench` — the serving benchmark.
//!
//! Binds the engine over the paper-scale synthetic corpus
//! (`CorpusConfig::full()`), serves it in-process through
//! `wwt_server::serve()` and drives it over loopback.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_repeat|unique_tail> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with every end-to-end metric; with `--trace 1` it holds the per-layer
//! metrics of a traced replay instead (see `trace.rs`). The line before
//! it records the provenance every comparable point must share. Which
//! layer each per-layer metric belongs to, and which end-to-end metric
//! it should move on which workload, is in `perfbench/LAYERS.md`.

mod check;
mod gen;
mod http;
mod load;
mod setup;
mod stats;
mod trace;

use gen::Stream;
use load::Batch;
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::time::Duration;
use wwt_corpus::GeneratedCorpus;
use wwt_json::Json;
use wwt_model::{TableId, WebTable};

/// Client connections of the closed-loop workloads.
pub const CONNS: usize = 2;
/// Batches posted one at a time after the read window, which measure
/// write latency on an idle server. The held-out tables are posted
/// `IDLE_PASSES` times over, each later pass replacing tables by id, to
/// gather samples without holding out more of the corpus.
const IDLE_BATCHES: usize = 100;
const IDLE_BATCH_TABLES: usize = 2;
pub const IDLE_PASSES: usize = 6;
/// Operations per slice of the window when summarizing (see
/// [`summarize`]): a thousand queries give each slice its own p99.
pub const QUERIES_PER_SLICE: usize = 1000;
pub const BATCHES_PER_SLICE: usize = 100;
const MAX_SLICES: usize = 40;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotRepeat,
    UniqueTail,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "hot_repeat" => Some(Workload::HotRepeat),
            "unique_tail" => Some(Workload::UniqueTail),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRepeat => "hot_repeat",
            Workload::UniqueTail => "unique_tail",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Everything a run derives from its seed before the server starts.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub corpus: GeneratedCorpus,
    /// Every extracted table, in id order.
    pub tables: Vec<WebTable>,
    pub held_out: HashSet<TableId>,
    /// The held-out tables in ingest order, batched.
    pub batches: Vec<Batch>,
    pub batch_ids: Vec<Vec<TableId>>,
    /// Request bodies the workload's streams index into.
    pub bodies: Vec<String>,
    /// Scratch directory for journals, removed at exit.
    pub dir: PathBuf,
}

impl Ctx {
    fn new(args: &Args) -> Ctx {
        let corpus = setup::generate();
        let tables = setup::extract_all(&corpus);
        let order = gen::holdout(args.seed, tables.len(), IDLE_BATCHES * IDLE_BATCH_TABLES);
        let batch_ids: Vec<Vec<TableId>> = order
            .chunks(IDLE_BATCH_TABLES)
            .map(|chunk| chunk.iter().map(|&i| tables[i].id).collect())
            .collect();
        let batches = order
            .chunks(IDLE_BATCH_TABLES)
            .map(|chunk| Batch {
                body: chunk
                    .iter()
                    .map(|&i| wwt_index::table_to_json(&tables[i]))
                    .collect::<Vec<_>>()
                    .join("\n"),
                tables: chunk.len() as u64,
            })
            .collect();
        let queries = match args.workload {
            Workload::UniqueTail => gen::unique_pool(args.seed),
            Workload::HotRepeat => gen::table1_queries(),
        };
        Ctx {
            workload: args.workload,
            seed: args.seed,
            window: Duration::from_secs(args.seconds),
            held_out: order.iter().map(|&i| tables[i].id).collect(),
            tables,
            batches,
            batch_ids,
            bodies: queries.iter().map(|q| gen::query_body(q)).collect(),
            dir: PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id())),
            corpus,
        }
    }

    /// Untimed requests each connection sends from its own stream first.
    /// On `unique_tail` that is one whole pass over the connection's
    /// share of the pool, so the engine's cross-query pair memo has seen
    /// every query once and the timed window finds it in its steady state
    /// (the response cache, a quarter of the pool, has long evicted each
    /// query by the time it comes back). On `hot_repeat` one pass over the
    /// 59 queries, sent apart (see [`drive`]), fills the response cache.
    pub fn stream_warmup(&self) -> usize {
        match self.workload {
            Workload::UniqueTail => self.bodies.len().div_ceil(CONNS),
            Workload::HotRepeat => 0,
        }
    }

    /// The connection streams.
    pub fn streams(&self) -> Vec<Stream> {
        (0..CONNS)
            .map(|c| match self.workload {
                Workload::UniqueTail => Stream::disjoint_cycle(self.bodies.len(), c, CONNS),
                Workload::HotRepeat => Stream::zipf(self.seed, c, self.bodies.len()),
            })
            .collect()
    }
}

/// Metric name → (value, unit), printed in name order.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

/// Throughput and latency of one kind of operation.
pub struct Summary {
    pub rate: f64,
    pub p50_ms: f64,
    /// The highest percentile with at least ten samples beyond it, at
    /// most p99.
    pub high_ms: f64,
}

/// Summarizes `op` as the median of each figure over equal slices of the
/// time the operations took (by completion time), so that a burst of
/// outside load — other tenants of the machine — in some slices does not
/// move the result. Each slice holds about `per_slice` operations, at
/// most `MAX_SLICES` slices. The log gives the sample count and the tail
/// percentile used.
pub fn summarize(label: &str, op: &load::OpResult, per_slice: usize) -> Result<Summary, String> {
    let span_s = op.done_s.iter().fold(0.0, |a: f64, &b| a.max(b));
    let slices = (op.lat_ms.len() / per_slice).clamp(1, MAX_SLICES);
    let slice_s = span_s / slices as f64;
    let mut grouped = vec![Vec::new(); slices];
    for (&lat, &done) in op.lat_ms.iter().zip(&op.done_s) {
        grouped[((done / slice_s) as usize).min(slices - 1)].push(lat);
    }
    let (mut rate, mut p50, mut high, mut q) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for lat in &grouped {
        let sorted = stats::sorted(lat);
        let (h, hq) = stats::high_percentile(&sorted, 0.99).ok_or_else(|| {
            format!(
                "{label} latency: a slice holds {} samples, too few for a tail percentile",
                sorted.len()
            )
        })?;
        rate.push(sorted.len() as f64 / slice_s);
        p50.push(stats::median(&sorted));
        high.push(h);
        q.push(hq);
    }
    let round = |xs: &[f64]| {
        xs.iter()
            .map(|v| (v * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    };
    eprintln!(
        "[perfbench] {label}: n={} in {slices} slices of {slice_s:.2}s, rate {:?}/s, p50 {:?} ms, p{:.1} {:?} ms",
        op.lat_ms.len(),
        rate.iter().map(|v| v.round()).collect::<Vec<_>>(),
        round(&p50),
        stats::median(&q) * 100.0,
        round(&high),
    );
    Ok(Summary {
        rate: stats::median(&rate),
        p50_ms: stats::median(&p50),
        high_ms: stats::median(&high),
    })
}

pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// `tables_ingested` as the server reports it on `GET /stats`.
fn stats_tables_ingested(addr: std::net::SocketAddr) -> u64 {
    http::Conn::new(addr)
        .get("/stats")
        .ok()
        .and_then(|r| Json::parse(std::str::from_utf8(&r.body).ok()?).ok())
        .and_then(|j| j.get("tables_ingested").and_then(Json::as_u64))
        .unwrap_or(0)
}

/// What one workload's load did to a server.
pub struct Driven {
    /// Untimed warm-up requests sent apart from the connections' own.
    pub warm: u64,
    pub warm_failed: u64,
    pub queries: load::OpResult,
    pub ingests: load::OpResult,
    pub acked: u64,
    pub samples: Vec<load::Sample>,
    /// Process CPU time over the timed window, in µs.
    pub window_cpu_us: f64,
    /// Response-cache hits and lookups over the timed window.
    pub window_hits: u64,
    pub window_lookups: u64,
}

/// Drives the workload against `server`: the untimed warm-up, the timed
/// window, then the idle-server ingest.
pub fn drive(ctx: &Ctx, server: &setup::Server) -> Driven {
    let addr = server.handle.addr();
    let warm = match ctx.workload {
        Workload::HotRepeat => ctx.bodies.len(),
        Workload::UniqueTail => 0,
    };
    let warm_failed = load::warm(addr, &ctx.bodies, 0..warm);
    let before = server.service().stats();
    let cpu_before = setup::process_cpu_us().unwrap_or(0.0);
    let run = load::closed_loop(
        addr,
        &ctx.bodies,
        ctx.streams(),
        ctx.stream_warmup(),
        ctx.window,
    );
    let window_cpu_us = setup::process_cpu_us().unwrap_or(0.0) - cpu_before;
    let after = server.service().stats();
    let (ingests, acked) = load::ingest_sequential(addr, &ctx.batches, IDLE_PASSES);
    let window_hits = after.hits - before.hits;
    Driven {
        warm: warm as u64,
        warm_failed,
        queries: run.queries,
        ingests,
        acked,
        samples: run.samples,
        window_cpu_us,
        window_hits,
        window_lookups: window_hits
            + (after.misses - before.misses)
            + (after.coalesced - before.coalesced),
    }
}

/// The untraced run: every end-to-end metric.
fn run_measured(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        drop(server.take());
        let (s, times) = setup::start_server(
            &ctx.corpus,
            &ctx.held_out,
            &ctx.dir.join(format!("rep{rep}")),
        )?;
        eprintln!(
            "[perfbench] setup {rep}: extract {:.3}s bind {:.3}s serve {:.4}s",
            times.extract_s, times.bind_s, times.serve_s
        );
        setup_s.push(times.total());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let steal_before = setup::machine_steal_ticks();
    let d = drive(ctx, &server);
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, setup::machine_steal_ticks()) {
        eprintln!(
            "[perfbench] hypervisor steal during the run: {:.1}% of machine CPU time",
            (s1 - s0) as f64 * 100.0 / (t1 - t0).max(1) as f64
        );
    }
    eprintln!(
        "[perfbench] {} queries answered, {} failed; hit rate {:.4}; {} batches acknowledged",
        d.queries.ok,
        d.queries.failed,
        d.window_hits as f64 / d.window_lookups.max(1) as f64,
        d.ingests.ok,
    );
    let rss_mb = setup::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let ingested = stats_tables_ingested(server.handle.addr());
    server.handle.shutdown();
    let shortfall = check::durability_shortfall(d.acked, ingested, &server.journal);
    let reference = setup::reference_engine(setup::base_tables(&ctx.tables, &ctx.held_out));
    let mismatches = check::mismatches(&reference, &ctx.bodies, &d.samples);
    eprintln!(
        "[perfbench] checked {} sampled responses against the reference engine",
        d.samples.len()
    );

    let mut m = Metrics::new();
    let queries = summarize("queries", &d.queries, QUERIES_PER_SLICE)?;
    put(&mut m, "qps", queries.rate, "1/s");
    put(&mut m, "p50_ms", queries.p50_ms, "ms");
    put(&mut m, "p99_ms", queries.high_ms, "ms");
    // Ingest latency is logged but not reported here: fsync on a shared
    // disk spreads it from run to run up to any usable bound. The traced
    // run reports it as `server.ingest_p50_ms` and `server.ingest_p99_ms`.
    summarize("ingests", &d.ingests, BATCHES_PER_SLICE)?;
    put(&mut m, "setup_s", stats::median(&setup_s), "s");
    put(&mut m, "rss_mb", rss_mb, "MiB");
    Ok(Outcome {
        correct: mismatches == 0 && shortfall == 0,
        attempted: d.warm + d.queries.attempted() + d.ingests.attempted(),
        failed: d.warm_failed + d.queries.failed + d.ingests.failed + mismatches + shortfall,
        metrics: m,
    })
}

fn provenance(ctx: &Ctx, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    Json::obj([
        ("workload", Json::from(ctx.workload.name())),
        ("seed", Json::from(ctx.seed)),
        ("trace", Json::from(trace)),
        ("seconds", Json::from(ctx.window.as_secs())),
        ("git_rev", Json::from(setup::git_rev())),
        ("source_digest", Json::from(setup::source_digest())),
        ("nproc", Json::from(nproc)),
        ("corpus_seed", Json::from(setup::CORPUS_SEED)),
        (
            "corpus_scale",
            Json::from(wwt_corpus::CorpusConfig::full().scale),
        ),
        ("documents", Json::from(ctx.corpus.documents.len())),
        ("tables", Json::from(ctx.tables.len())),
        ("held_out_tables", Json::from(ctx.held_out.len())),
        ("server_workers", Json::from(setup::SERVER_WORKERS)),
        ("client_connections", Json::from(CONNS)),
        ("idle_batches", Json::from(IDLE_BATCHES * IDLE_PASSES)),
        ("batch_tables", Json::from(IDLE_BATCH_TABLES)),
        ("max_delta_tables", Json::from(setup::MAX_DELTA_TABLES)),
        ("fsync", Json::from(setup::FSYNC.label())),
    ])
}

fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("{:?}: {{\"value\": {value}, \"unit\": {unit:?}}}", name)
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload <hot_repeat|unique_tail> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let ctx = Ctx::new(&args);
    eprintln!(
        "[perfbench] {} seed {}: {} documents, {} tables, {} held out",
        ctx.workload.name(),
        ctx.seed,
        ctx.corpus.documents.len(),
        ctx.tables.len(),
        ctx.held_out.len()
    );
    let result = if args.trace {
        trace::run_traced(&ctx)
    } else {
        run_measured(&ctx)
    };
    drop(std::fs::remove_dir_all(&ctx.dir));
    // Succeeds only once no other run is using the scratch root.
    drop(std::fs::remove_dir(".perfbench_tmp"));
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let provenance = provenance(&ctx, args.trace);
    let line = result_line(&out);
    let record = format!(
        "{{\"provenance\": {}, \"result\": {line}}}\n",
        provenance.encode()
    );
    let out_dir = PathBuf::from(".perfbench_out");
    let file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload.name(),
        ctx.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&out_dir).and_then(|_| std::fs::write(&file, &record)) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    println!("{{\"provenance\": {}}}", provenance.encode());
    println!("{line}");
}
