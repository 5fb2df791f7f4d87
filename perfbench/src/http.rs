//! A minimal HTTP/1.1 client: just what the load generator needs, with
//! nothing between the socket and the clock.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request to send.
#[derive(Clone, Debug, Default)]
pub struct Request {
    pub method: &'static str,
    pub path: String,
    pub body: Vec<u8>,
    pub if_none_match: Option<String>,
    /// Ask the server to close the connection after answering.
    pub close: bool,
}

impl Request {
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: "GET",
            path: path.into(),
            ..Request::default()
        }
    }

    pub fn post(path: impl Into<String>, body: Vec<u8>) -> Request {
        Request {
            method: "POST",
            path: path.into(),
            body,
            ..Request::default()
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "{} {} HTTP/1.1\r\nHost: 127.0.0.1\r\n",
            self.method, self.path
        );
        if let Some(etag) = &self.if_none_match {
            head.push_str(&format!("If-None-Match: {etag}\r\n"));
        }
        if self.close {
            head.push_str("Connection: close\r\n");
        }
        if self.method == "POST" {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                self.body.len()
            ));
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

/// One parsed response.
#[derive(Clone, Debug, Default)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub etag: Option<String>,
    /// Server-side time from `Server-Timing: app;dur=<ms>`, in µs.
    pub app_us: Option<f64>,
    /// The server announced `Connection: close`.
    pub closes: bool,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// A client connection.
pub struct Conn {
    reader: BufReader<Socket>,
}

/// Longest a benchmark request may take before it counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

impl Conn {
    /// Connects with blocking reads.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Conn::open(addr, false)
    }

    /// Connects; with `spin` the client busy-polls for answers instead
    /// of sleeping (see [`Socket`]).
    pub fn open(addr: SocketAddr, spin: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nonblocking(spin)?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, Socket(stream)),
        })
    }

    /// Sends `req` and reads the whole response.
    pub fn send(&mut self, req: &Request) -> io::Result<Response> {
        self.reader.get_mut().write_all(&req.to_bytes())?;
        let mut line = String::new();
        self.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut response = Response {
            status,
            ..Response::default()
        };
        let mut length = 0usize;
        loop {
            line.clear();
            self.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(invalid(format!("bad header {header:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("etag") {
                response.etag = Some(value.to_owned());
            } else if name.eq_ignore_ascii_case("server-timing") {
                response.app_us = app_duration_us(value);
            } else if name.eq_ignore_ascii_case("connection") {
                response.closes = value.eq_ignore_ascii_case("close");
            }
        }
        response.body = vec![0; length];
        self.reader.read_exact(&mut response.body)?;
        Ok(response)
    }

    fn read_line(&mut self, line: &mut String) -> io::Result<()> {
        if self.reader.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed by the server",
            ));
        }
        Ok(())
    }
}

/// A client socket. In non-blocking mode the client busy-polls it
/// instead of sleeping in `read`. A sleeping client needs a cross-CPU
/// wake-up for every answer, and on a shared virtual machine the latency
/// of that wake-up follows other tenants' load far more than the
/// daemon's own work does: with blocking reads, serve-read's median
/// latency ranged 42–58 µs over eight runs, with polling 42–46 µs. A
/// polling client holds a whole CPU, so it suits only a workload where
/// nothing else competes for the CPUs.
struct Socket(TcpStream);

/// Retries `op` while it would block, for at most [`IO_TIMEOUT`]. (A
/// blocking socket reports its timeout the same way.)
fn retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let start = Instant::now();
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && start.elapsed() < IO_TIMEOUT => {
                std::hint::spin_loop()
            }
            other => return other,
        }
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        retry(|| self.0.read(buf))
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        retry(|| self.0.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Sends one request on a fresh connection; returns the response and the
/// time `connect` took.
pub fn one_shot(addr: SocketAddr, req: &Request, spin: bool) -> io::Result<(Response, Duration)> {
    let t = Instant::now();
    let mut conn = Conn::open(addr, spin)?;
    let connect = t.elapsed();
    Ok((conn.send(req)?, connect))
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// The `app` metric's duration from a `Server-Timing` header value, in
/// µs (the header carries milliseconds).
pub fn app_duration_us(value: &str) -> Option<f64> {
    value.split(',').find_map(|metric| {
        let mut params = metric.split(';').map(str::trim);
        if params.next()? != "app" {
            return None;
        }
        params
            .find_map(|p| p.strip_prefix("dur="))
            .and_then(|ms| ms.trim_matches('"').parse::<f64>().ok())
            .map(|ms| ms * 1000.0)
    })
}

/// Percent-encodes a query-string value.
pub fn encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for b in value.bytes() {
        if b.is_ascii_alphanumeric() || b"-._~:/".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_timing_app_duration_in_microseconds() {
        assert_eq!(app_duration_us("app;dur=0.033"), Some(33.0));
        assert_eq!(app_duration_us("app;dur=12"), Some(12_000.0));
        assert_eq!(
            app_duration_us("db;dur=5, app;desc=\"x\";dur=0.5"),
            Some(500.0)
        );
        assert_eq!(app_duration_us("app;dur=\"1.5\""), Some(1500.0));
        assert_eq!(app_duration_us("db;dur=5"), None);
        assert_eq!(app_duration_us("app"), None);
        assert_eq!(app_duration_us("app;dur=abc"), None);
    }

    #[test]
    fn query_values_are_percent_encoded() {
        assert_eq!(encode("http://a.test/p 1&x"), "http://a.test/p%201%26x");
    }
}
