//! Load generation over loopback: closed loops and sequential ingest.

use crate::gen::Stream;
use crate::http::Conn;
use crate::setup::ADMIN_TOKEN;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Every `SAMPLE_STRIDE`-th timed request of a connection keeps its body
/// for the correctness check, up to `SAMPLE_CAP` per connection.
const SAMPLE_STRIDE: u64 = 16;
const SAMPLE_CAP: usize = 256;

/// A response kept for the correctness check.
pub struct Sample {
    pub item: usize,
    pub body: Vec<u8>,
}

/// Outcome of one kind of operation during a timed window.
#[derive(Default)]
pub struct OpResult {
    /// Latency of each successful operation, in ms.
    pub lat_ms: Vec<f64>,
    /// When each successful operation completed, in seconds since the
    /// window began.
    pub done_s: Vec<f64>,
    pub ok: u64,
    pub failed: u64,
}

impl OpResult {
    fn merge(&mut self, other: OpResult) {
        self.lat_ms.extend(other.lat_ms);
        self.done_s.extend(other.done_s);
        self.ok += other.ok;
        self.failed += other.failed;
    }

    fn success(&mut self, start: Instant, began: Instant) {
        let done = Instant::now();
        self.lat_ms
            .push(done.duration_since(began).as_secs_f64() * 1e3);
        self.done_s.push(done.duration_since(start).as_secs_f64());
        self.ok += 1;
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }
}

pub struct ClosedResult {
    pub queries: OpResult,
    pub samples: Vec<Sample>,
}

/// Sends `item`'s query and reports whether it answered 200.
fn query(conn: &mut Conn, bodies: &[String], item: usize) -> Option<Vec<u8>> {
    match conn.post("/query", &[], bodies[item].as_bytes()) {
        Ok(reply) if reply.status == 200 => Some(reply.body),
        _ => None,
    }
}

/// Sends each item once, untimed, and returns how many failed.
pub fn warm(addr: SocketAddr, bodies: &[String], items: impl IntoIterator<Item = usize>) -> u64 {
    let mut conn = Conn::new(addr);
    items
        .into_iter()
        .filter(|&i| query(&mut conn, bodies, i).is_none())
        .count() as u64
}

/// One closed loop per stream, each on its own keep-alive connection:
/// `warmup` untimed requests from the stream, then requests back to back
/// for `window`, all connections starting the timed part together.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    streams: Vec<Stream>,
    warmup: usize,
    window: Duration,
) -> ClosedResult {
    let barrier = Barrier::new(streams.len());
    let per_conn: Vec<(OpResult, Vec<Sample>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|mut stream| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut result = OpResult::default();
                    for _ in 0..warmup {
                        if query(&mut conn, bodies, stream.next_index()).is_none() {
                            result.failed += 1;
                        }
                    }
                    let mut samples = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    let end = start + window;
                    let mut n = 0u64;
                    loop {
                        let item = stream.next_index();
                        let t0 = Instant::now();
                        if t0 >= end {
                            break;
                        }
                        match query(&mut conn, bodies, item) {
                            Some(body) => {
                                result.success(start, t0);
                                if n.is_multiple_of(SAMPLE_STRIDE) && samples.len() < SAMPLE_CAP {
                                    samples.push(Sample { item, body });
                                }
                            }
                            None => result.failed += 1,
                        }
                        n += 1;
                    }
                    (result, samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut queries = OpResult::default();
    let mut samples = Vec::new();
    for (r, s) in per_conn {
        queries.merge(r);
        samples.extend(s);
    }
    ClosedResult { queries, samples }
}

/// One batch of held-out tables as a `POST /admin/tables/batch` body.
pub struct Batch {
    pub body: String,
    pub tables: u64,
}

/// Posts one batch; `true` once the server acknowledged it with 202.
pub fn post_batch(conn: &mut Conn, batch: &Batch) -> bool {
    matches!(
        conn.post("/admin/tables/batch", &[("x-admin-token", ADMIN_TOKEN)], batch.body.as_bytes()),
        Ok(reply) if reply.status == 202
    )
}

/// Posts `batches` `passes` times over, one after another on one
/// connection with nothing else running: write latency on an idle server.
pub fn ingest_sequential(addr: SocketAddr, batches: &[Batch], passes: usize) -> (OpResult, u64) {
    let mut conn = Conn::new(addr);
    let mut result = OpResult::default();
    let mut acked = 0;
    let start = Instant::now();
    for batch in batches.iter().cycle().take(batches.len() * passes) {
        let t0 = Instant::now();
        if post_batch(&mut conn, batch) {
            result.success(start, t0);
            acked += batch.tables;
        } else {
            result.failed += 1;
        }
    }
    (result, acked)
}
