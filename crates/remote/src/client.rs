//! A minimal HTTP/1.1 client for the worker's JSON requests (std only).
//!
//! It trusts `Content-Length` when present (the daemon always sends it),
//! falling back to read-to-EOF under `Connection: close`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-request I/O timeout: long enough for a manifest build behind a
/// cold `prepare_campaign`, short enough that a dead daemon is detected
/// the same order of magnitude as a lease TTL.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

/// Issues one request; returns `(status, body)` with the body decoded as
/// UTF-8. `body` is sent as `application/json` (the only content type the
/// protocol uses).
pub fn fetch_text(
    addr: SocketAddr,
    method: &str,
    path_and_query: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut stream = stream;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path_and_query} HTTP/1.1\r\nHost: argus\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;

    let mut r = BufReader::new(stream);
    let mut status_line = String::new();
    r.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;

    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        r.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = Some(v.trim().parse().map_err(|_| bad("bad content-length"))?);
            }
        }
    }

    let payload = match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            r.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            r.read_to_end(&mut buf)?;
            buf
        }
    };
    let text = String::from_utf8(payload).map_err(|_| bad("reply is not UTF-8"))?;
    Ok((status, text))
}
