//! A minimal blocking HTTP client for the server's protocol, shared by the
//! `clapton-client` binary, the loopback tests, and the benchmark.
//!
//! One request per connection, mirroring the server's `Connection: close`
//! policy; responses are read to EOF and chunked bodies are decoded, so the
//! event stream arrives as plain `data:` frames.
//!
//! Retries are off by default ([`Client::with_retries`] opts in): transient
//! transport failures and 5xx responses back off exponentially with
//! deterministic jitter — a hash of `(addr, path, attempt)`, so a retrying
//! client is reproducible run to run yet two clients hammering one server
//! do not retry in lockstep — and a 429 honors the server's `Retry-After`.

use crate::server::{ErrorBody, HealthBody, JobStatusBody, QueueBody};
use clapton_telemetry::Fnv1a;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The (de-chunked) body.
    pub body: String,
}

impl Response {
    /// The first header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as a [`JobStatusBody`].
    ///
    /// # Errors
    ///
    /// `InvalidData` when the body is not a job status document.
    pub fn job(&self) -> io::Result<JobStatusBody> {
        serde_json::from_str(&self.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// The server's error message, when the body carries one.
    pub fn error(&self) -> Option<String> {
        serde_json::from_str::<ErrorBody>(&self.body)
            .ok()
            .map(|b| b.error)
    }
}

/// Ceiling on any single retry backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    tenant: Option<String>,
    retries: u32,
    retry_base: Duration,
}

impl Client {
    /// A client for `addr` (`host:port`) with no tenant header and no
    /// retries.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            tenant: None,
            retries: 0,
            retry_base: Duration::from_millis(100),
        }
    }

    /// Sets the `X-Tenant` header sent with every request.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Client {
        self.tenant = Some(tenant.into());
        self
    }

    /// Enables up to `retries` retries of transient failures (connection
    /// refused/reset, 5xx, 429), backing off exponentially from `base`.
    pub fn with_retries(mut self, retries: u32, base: Duration) -> Client {
        self.retries = retries;
        self.retry_base = base;
        self
    }

    /// Sends one request and reads the full response, retrying transient
    /// failures when [`Client::with_retries`] enabled it.
    ///
    /// # Errors
    ///
    /// Transport failures or an unparseable response, after retries (if
    /// any) are exhausted.
    pub fn request(&self, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.request_once(method, path, body);
            if attempt >= self.retries {
                return outcome;
            }
            let wait = match &outcome {
                Err(e) if transient(e.kind()) => self.backoff(path, attempt),
                // 429 carries the server's own schedule; 5xx means the
                // server (or something between) hiccuped.
                Ok(response) if response.status == 429 => response
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map_or_else(|| self.backoff(path, attempt), Duration::from_secs)
                    .min(MAX_BACKOFF),
                Ok(response) if response.status >= 500 => self.backoff(path, attempt),
                _ => return outcome,
            };
            std::thread::sleep(wait);
            attempt += 1;
        }
    }

    /// The exponential-backoff sleep before retry number `attempt`:
    /// `base * 2^attempt`, capped, plus up to 50% deterministic jitter.
    fn backoff(&self, path: &str, attempt: u32) -> Duration {
        let base = self
            .retry_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(MAX_BACKOFF);
        let hash = Fnv1a::new()
            .write(self.addr.as_bytes())
            .write(path.as_bytes())
            .write(&attempt.to_le_bytes())
            .finish();
        base + base.mul_f64((hash % 1024) as f64 / 2048.0)
    }

    fn request_once(&self, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
        let mut stream = TcpStream::connect(&self.addr)?;
        let body = body.unwrap_or("");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        );
        if let Some(tenant) = &self.tenant {
            head.push_str("X-Tenant: ");
            head.push_str(tenant);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_response(&raw)
    }

    /// `POST /v1/jobs` with a spec JSON document.
    ///
    /// # Errors
    ///
    /// Transport failures; protocol-level rejections come back as the
    /// response status.
    pub fn submit(&self, spec_json: &str) -> io::Result<Response> {
        self.request("POST", "/v1/jobs", Some(spec_json))
    }

    /// `GET /v1/jobs/{id}`.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn status(&self, id: &str) -> io::Result<Response> {
        self.request("GET", &format!("/v1/jobs/{id}"), None)
    }

    /// `DELETE /v1/jobs/{id}` (cooperative cancellation).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn cancel(&self, id: &str) -> io::Result<Response> {
        self.request("DELETE", &format!("/v1/jobs/{id}"), None)
    }

    /// `GET /v1/queue`, parsed.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-queue response body.
    pub fn queue(&self) -> io::Result<QueueBody> {
        let response = self.request("GET", "/v1/queue", None)?;
        serde_json::from_str(&response.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// `GET /v1/jobs/{id}/events`: blocks until the job's event log closes
    /// and returns every `data:` frame's JSON payload.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-stream response.
    pub fn events(&self, id: &str) -> io::Result<Vec<String>> {
        let response = self.request("GET", &format!("/v1/jobs/{id}/events"), None)?;
        if response.status != 200 {
            return Err(io::Error::other(
                response
                    .error()
                    .unwrap_or_else(|| format!("status {}", response.status)),
            ));
        }
        Ok(response
            .body
            .lines()
            .filter_map(|line| line.strip_prefix("data: "))
            .map(str::to_string)
            .collect())
    }

    /// `GET /healthz`, parsed.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-health response body. A draining server
    /// answers 503 with `ready: false` — that is a successful call here;
    /// callers decide what readiness means to them.
    pub fn health(&self) -> io::Result<HealthBody> {
        let response = self.request("GET", "/healthz", None)?;
        serde_json::from_str(&response.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// `GET /metrics`: the raw Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-200 response.
    pub fn metrics(&self) -> io::Result<String> {
        let response = self.request("GET", "/metrics", None)?;
        if response.status != 200 {
            return Err(io::Error::other(format!(
                "metrics scrape failed: status {}",
                response.status
            )));
        }
        Ok(response.body)
    }

    /// `GET /v1/cache`: the persistent result store's census, parsed.
    ///
    /// # Errors
    ///
    /// Transport failures, a 404 (no store attached), or a non-stats body.
    pub fn cache_stats(&self) -> io::Result<clapton_service::CacheStoreStats> {
        let response = self.request("GET", "/v1/cache", None)?;
        if response.status != 200 {
            return Err(io::Error::other(
                response
                    .error()
                    .unwrap_or_else(|| format!("status {}", response.status)),
            ));
        }
        serde_json::from_str(&response.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// `DELETE /v1/cache`: drops every cached entry, returning how many
    /// entries were cleared.
    ///
    /// # Errors
    ///
    /// Transport failures, a 404 (no store attached), or a non-flush body.
    pub fn cache_flush(&self) -> io::Result<u64> {
        let response = self.request("DELETE", "/v1/cache", None)?;
        if response.status != 200 {
            return Err(io::Error::other(
                response
                    .error()
                    .unwrap_or_else(|| format!("status {}", response.status)),
            ));
        }
        let body: crate::server::CacheFlushBody = serde_json::from_str(&response.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(body.cleared)
    }

    /// `GET /v1/jobs/{id}/trace`: the job's span tree, parsed.
    ///
    /// # Errors
    ///
    /// Transport failures, a 404 (no such job or no trace recorded), or a
    /// non-trace response body.
    pub fn trace(&self, id: &str) -> io::Result<crate::server::TraceBody> {
        let response = self.request("GET", &format!("/v1/jobs/{id}/trace"), None)?;
        if response.status != 200 {
            return Err(io::Error::other(
                response
                    .error()
                    .unwrap_or_else(|| format!("status {}", response.status)),
            ));
        }
        serde_json::from_str(&response.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Polls `GET /v1/jobs/{id}` until the job reaches a terminal state
    /// (`done`, `cancelled`, `failed`) or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// Transport failures, a 404, or `TimedOut`.
    pub fn wait(&self, id: &str, timeout: Duration) -> io::Result<JobStatusBody> {
        let deadline = Instant::now() + timeout;
        loop {
            let response = self.status(id)?;
            if response.status == 404 {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no job {id:?}"),
                ));
            }
            let job = response.job()?;
            if matches!(job.state.as_str(), "done" | "cancelled" | "failed") {
                return Ok(job);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {id} still {:?} after {timeout:?}", job.state),
                ));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

/// Transport failures worth retrying: the server is not there *yet* (still
/// binding, restarting) or dropped the connection mid-flight. Anything else
/// (refused DNS, permission, protocol) is permanent.
fn transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

fn parse_response(raw: &[u8]) -> io::Result<Response> {
    let malformed = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| malformed("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| malformed("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let raw_body = &raw[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        decode_chunked(raw_body).ok_or_else(|| malformed("bad chunked body"))?
    } else {
        raw_body.to_vec()
    };
    Ok(Response {
        status,
        headers,
        body: String::from_utf8(body).map_err(|_| malformed("response body is not UTF-8"))?,
    })
}

fn decode_chunked(mut raw: &[u8]) -> Option<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let line_end = raw.windows(2).position(|w| w == b"\r\n")?;
        let size =
            usize::from_str_radix(std::str::from_utf8(&raw[..line_end]).ok()?.trim(), 16).ok()?;
        raw = &raw[line_end + 2..];
        if size == 0 {
            return Some(body);
        }
        if raw.len() < size + 2 {
            return None;
        }
        body.extend_from_slice(&raw[..size]);
        raw = &raw[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_chunked_bodies() {
        let raw = b"5\r\nhello\r\n7\r\n, world\r\n0\r\n\r\n";
        assert_eq!(decode_chunked(raw).unwrap(), b"hello, world");
        assert_eq!(decode_chunked(b"0\r\n\r\n").unwrap(), b"");
        assert!(decode_chunked(b"5\r\nhel").is_none(), "truncated chunk");
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let client = Client::new("127.0.0.1:1").with_retries(8, Duration::from_millis(50));
        let a = client.backoff("/v1/jobs", 0);
        assert_eq!(a, client.backoff("/v1/jobs", 0), "same inputs, same sleep");
        assert_ne!(a, client.backoff("/v1/queue", 0), "jitter keys on the path");
        assert_eq!(
            client.backoff("/v1/jobs", 2),
            Duration::from_nanos(236_718_750)
        );
        assert!(client.backoff("/v1/jobs", 3) > a, "backoff grows");
        for attempt in 0..40 {
            assert!(client.backoff("/v1/jobs", attempt) <= MAX_BACKOFF + MAX_BACKOFF / 2);
        }
    }

    #[test]
    fn parses_a_plain_response() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\n\
                    Content-Length: 16\r\n\r\n{\"error\":\"full\"}";
        let response = parse_response(raw).unwrap();
        assert_eq!(response.status, 429);
        assert_eq!(response.header("retry-after"), Some("2"));
        assert_eq!(response.error().as_deref(), Some("full"));
    }
}
