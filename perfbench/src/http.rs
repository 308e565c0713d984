//! A keep-alive HTTP/1.1 client for the load phases, plus the one-shot
//! probes (`/healthz`, `/statz`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// One persistent connection. Reconnects transparently when the server
/// closed the previous one (`Connection: close` or EOF before a
/// request was sent).
pub struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened over this client's life.
    pub connects: u64,
}

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

fn bad(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
            connects: 0,
        }
    }

    fn stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(TIMEOUT))?;
            stream.set_write_timeout(Some(TIMEOUT))?;
            self.stream = Some(stream);
            self.buf.clear();
            self.connects += 1;
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Send one request and read its response.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = Vec::with_capacity(head.len() + body.len());
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(body);
        let result = self.exchange(&wire);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, wire: &[u8]) -> std::io::Result<Reply> {
        self.stream()?.write_all(wire)?;
        let mut tmp = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream()?.read(&mut tmp)?;
            if n == 0 {
                return Err(bad("connection closed before the response head"));
            }
            self.buf.extend_from_slice(&tmp[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line in {head:?}")))?;
        let mut length = None;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    close = true;
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream()?.read(&mut tmp)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&tmp[..n]);
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        if close {
            self.stream = None;
        }
        Ok(Reply { status, body })
    }
}

/// `GET path` on a fresh connection.
pub fn get(addr: &str, path: &str) -> std::io::Result<Reply> {
    Conn::new(addr).call("GET", path, b"")
}

/// The server's count of successful `/expand` requests.
pub fn queries_served(addr: &str) -> Result<u64, String> {
    let reply = get(addr, "/statz").map_err(|e| format!("GET /statz: {e}"))?;
    if reply.status != 200 {
        return Err(format!("GET /statz answered {}", reply.status));
    }
    let text = String::from_utf8_lossy(&reply.body);
    let snapshot: querygraph_core::http::StatzSnapshot =
        serde_json::from_str(&text).map_err(|e| format!("/statz body {text:?}: {e}"))?;
    Ok(snapshot.queries_served)
}

/// The JSON body of `POST /expand` for `text`.
pub fn expand_body(text: &str) -> Vec<u8> {
    let request = querygraph_core::service::ExpansionRequest::new(text);
    serde_json::to_string(&request)
        .expect("requests serialize")
        .into_bytes()
}
