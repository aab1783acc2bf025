//! A minimal keep-alive HTTP client and a multi-connection load
//! generator — the measurement side of the serving layer, used by the
//! end-to-end tests.

use crate::http::{self, ReadError};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A blocking keep-alive HTTP/1.1 client over one TCP connection.
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects with explicit connect/read timeouts.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient { stream, reader })
    }

    /// Issues a `GET` and reads the response.
    pub fn get(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path, None, &[])
    }

    /// Issues a `POST` with a JSON body and reads the response.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.request("POST", path, Some(body.as_bytes()), &[])
    }

    /// Issues a `GET` with extra headers (e.g. `x-admin-token` for the
    /// debug routes, or a caller-chosen `x-request-id`).
    pub fn get_with_headers(
        &mut self,
        path: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        self.request("GET", path, None, headers)
    }

    /// Like [`HttpClient::post`], but when the request fails — typically
    /// because the server rotated this keep-alive connection at its
    /// per-connection request cap — reconnects once and retries before
    /// giving up. The single place encoding the rotation-recovery rule
    /// for the load generator and the benches.
    pub fn post_reconnecting(
        &mut self,
        addr: SocketAddr,
        path: &str,
        body: &str,
    ) -> std::io::Result<HttpResponse> {
        match self.post(path, body) {
            Err(_) => {
                *self = HttpClient::connect(addr)?;
                self.post(path, body)
            }
            ok => ok,
        }
    }

    /// Issues a `DELETE` with extra headers (e.g. `x-admin-token`).
    pub fn delete_with_headers(
        &mut self,
        path: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        self.request("DELETE", path, None, headers)
    }

    /// Issues a `POST` with extra headers (e.g. `x-admin-token`).
    pub fn post_with_headers(
        &mut self,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        self.request("POST", path, Some(body.as_bytes()), headers)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        let body = body.unwrap_or(b"");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: wwt\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad_data(format!("bad status line {status_line:?}")))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let header = http::split_header(&line)
                .ok_or_else(|| bad_data(format!("bad header {line:?}")))?;
            headers.push(header);
        }
        let length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .ok_or_else(|| bad_data("response lacks content-length".to_string()))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }

    /// One response line through the same CRLF framing the server uses.
    fn read_line(&mut self) -> std::io::Result<String> {
        http::read_crlf_line(&mut self.reader).map_err(|e| match e {
            ReadError::Disconnected => std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ),
            // Line reading only reports Disconnected or Malformed.
            other => bad_data(format!("{other:?}")),
        })
    }
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Aggregate result of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests that returned HTTP 200.
    pub ok: u64,
    /// Requests that failed (transport error or non-200).
    pub errors: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Median request latency.
    pub p50: Duration,
    /// 99th-percentile request latency.
    pub p99: Duration,
    /// Slowest request.
    pub max: Duration,
}

impl LoadReport {
    /// Successful requests per second over the run.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ok as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Hammers `POST /query` from `connections` keep-alive connections, each
/// issuing `requests_per_connection` requests round-robined over
/// `bodies`. Returns merged counts and latency percentiles.
pub fn run_load(
    addr: SocketAddr,
    bodies: &[String],
    connections: usize,
    requests_per_connection: usize,
) -> LoadReport {
    let start = Instant::now();
    let per_thread: Vec<(u64, u64, Vec<Duration>)> =
        wwt_engine::fan_out(connections.max(1), connections.max(1), |conn| {
            let mut ok = 0u64;
            let mut errors = 0u64;
            let mut latencies = Vec::with_capacity(requests_per_connection);
            let Ok(mut client) = HttpClient::connect(addr) else {
                return (0, requests_per_connection as u64, latencies);
            };
            for i in 0..requests_per_connection {
                let body = &bodies[(conn + i) % bodies.len()];
                let t0 = Instant::now();
                match client.post_reconnecting(addr, "/query", body) {
                    Ok(resp) if resp.status == 200 => {
                        ok += 1;
                        latencies.push(t0.elapsed());
                    }
                    _ => errors += 1,
                }
            }
            (ok, errors, latencies)
        });
    let elapsed = start.elapsed();
    let mut ok = 0;
    let mut errors = 0;
    let mut latencies: Vec<Duration> = Vec::new();
    for (o, e, l) in per_thread {
        ok += o;
        errors += e;
        latencies.extend(l);
    }
    latencies.sort();
    let pick = |fraction: f64| -> Duration {
        if latencies.is_empty() {
            Duration::ZERO
        } else {
            let idx = ((latencies.len() - 1) as f64 * fraction).round() as usize;
            latencies[idx]
        }
    };
    LoadReport {
        ok,
        errors,
        elapsed,
        p50: pick(0.50),
        p99: pick(0.99),
        max: latencies.last().copied().unwrap_or(Duration::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_report_percentiles_and_throughput() {
        let r = LoadReport {
            ok: 100,
            errors: 0,
            elapsed: Duration::from_secs(2),
            p50: Duration::from_millis(1),
            p99: Duration::from_millis(9),
            max: Duration::from_millis(10),
        };
        assert!((r.throughput() - 50.0).abs() < 1e-9);
        let empty = LoadReport {
            ok: 0,
            errors: 0,
            elapsed: Duration::ZERO,
            p50: Duration::ZERO,
            p99: Duration::ZERO,
            max: Duration::ZERO,
        };
        assert_eq!(empty.throughput(), 0.0);
    }
}
