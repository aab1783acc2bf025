//! A minimal HTTP/1.1 keep-alive client owned by the benchmark, so that a
//! change to the program's own client never moves the measurements.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One client connection. The server closes a keep-alive connection after
/// a fixed number of requests; the next request then reconnects, and that
/// cost stays inside the request's measured latency.
pub struct Conn {
    addr: SocketAddr,
    io: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, io: None }
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Reply> {
        self.request("GET", path, &[], b"")
    }

    pub fn post(
        &mut self,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<Reply> {
        self.request("POST", path, headers, body)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<Reply> {
        let result = self.exchange(method, path, headers, body);
        match &result {
            Ok((_, true)) | Err(_) => self.io = None,
            Ok((_, false)) => {}
        }
        result.map(|(reply, _)| reply)
    }

    /// Sends one request in a single write and reads the reply; the flag
    /// says whether the server is closing the connection.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<(Reply, bool)> {
        if self.io.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.io = Some((stream, reader));
        }
        let (stream, reader) = self.io.as_mut().expect("connected above");
        let mut out = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            out.push_str(&format!("{name}: {value}\r\n"));
        }
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(body);
        stream.write_all(&bytes)?;

        let mut line = String::new();
        read_line(reader, &mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        let mut close = false;
        loop {
            read_line(reader, &mut line)?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad(format!("bad header {line:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| bad("reply lacks content-length".to_string()))?;
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        Ok((Reply { status, body }, close))
    }
}

/// Reads one CRLF-terminated line into `line`, without the terminator.
fn read_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> std::io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    let trimmed = line.trim_end_matches(['\r', '\n']).len();
    line.truncate(trimmed);
    Ok(())
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
