//! Blocking client for the wire protocol, with connection reuse,
//! pipelining, and timeout/retry.
//!
//! A [`NetClient`] keeps one TCP connection open across calls. Requests
//! are identified by a monotonically increasing id; because the server
//! answers in *resolution* order (the engine parks and retries busy
//! requests), [`NetClient::recv`] buffers out-of-order responses until
//! the asked-for id arrives. [`NetClient::pipeline`] exploits this:
//! it streams a whole batch before collecting any response, hiding one
//! round trip per request.
//!
//! Retry policy: a send-side I/O error triggers reconnection and a
//! resend (the request provably never reached the server). A failure
//! *after* the request was written is surfaced to the caller instead —
//! blindly resending a `Connect` that may have been admitted would
//! double-admit it.

use crate::codec::{encode_request_v, read_response, WireError};
use crate::protocol::{Request, Response, WIRE_VERSION};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;
use wdm_core::MulticastConnection;

/// Client tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Read timeout per response; expiry surfaces as
    /// [`NetClientError::Timeout`].
    pub timeout: Duration,
    /// Reconnection attempts after a send-side I/O error.
    pub connect_retries: u32,
    /// Base pause before the first reconnection retry. Each further
    /// attempt doubles it (capped at [`ClientConfig::retry_backoff_cap`])
    /// and applies deterministic jitter in `[½·d, d]`, so a thundering
    /// herd of clients spreads out without losing reproducibility.
    pub retry_backoff: Duration,
    /// Ceiling on the exponential backoff between reconnection attempts.
    pub retry_backoff_cap: Duration,
    /// Seed of the jitter stream. Two clients with different seeds
    /// de-correlate their retries; the same seed replays the exact same
    /// delays, keeping transport tests and trace replays deterministic.
    pub jitter_seed: u64,
    /// Wire version stamped on every outgoing frame. Defaults to the
    /// newest supported ([`WIRE_VERSION`]); set to `1` to speak to (or
    /// emulate) a v1-only peer. Batch requests require version ≥ 2.
    pub wire_version: u8,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: Duration::from_secs(5),
            connect_retries: 3,
            retry_backoff: Duration::from_millis(50),
            retry_backoff_cap: Duration::from_secs(1),
            jitter_seed: 0x5EED,
            wire_version: WIRE_VERSION,
        }
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum NetClientError {
    /// Transport error (after exhausting reconnection attempts).
    Io(std::io::Error),
    /// The server sent something unintelligible.
    Wire(WireError),
    /// No response within [`ClientConfig::timeout`].
    Timeout,
}

impl std::fmt::Display for NetClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetClientError::Io(e) => write!(f, "i/o: {e}"),
            NetClientError::Wire(e) => write!(f, "wire: {e}"),
            NetClientError::Timeout => write!(f, "timed out waiting for a response"),
        }
    }
}

impl std::error::Error for NetClientError {}

impl From<std::io::Error> for NetClientError {
    fn from(e: std::io::Error) -> Self {
        NetClientError::Io(e)
    }
}

impl From<WireError> for NetClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(msg) => NetClientError::Io(std::io::Error::other(msg)),
            other => NetClientError::Wire(other),
        }
    }
}

/// SplitMix64 — the jitter stream's one-shot mixer. Seeded, so a given
/// `(jitter_seed, attempt)` pair always yields the same delay.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Delay before reconnection `attempt` (1-based): the base backoff
/// doubled per attempt, capped, then jittered into `[½·d, d]` by the
/// seeded stream. The lower bound keeps every pause real (a jitter that
/// can reach zero turns backoff into a busy loop under refusal storms).
fn backoff_delay(config: &ClientConfig, attempt: u32) -> Duration {
    let base = config.retry_backoff.max(Duration::from_micros(1));
    let doubled = base.saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16));
    let capped = doubled.min(config.retry_backoff_cap.max(base));
    let r = splitmix64(config.jitter_seed ^ u64::from(attempt));
    let unit = (r >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    capped.mul_f64(0.5 + unit / 2.0)
}

/// `read_timeout` expiry surfaces as `WouldBlock` on Unix and
/// `TimedOut` on other platforms; the codec stringifies both, so match
/// on the message.
fn is_timeout_message(msg: &str) -> bool {
    let lower = msg.to_lowercase();
    lower.contains("timed out")
        || lower.contains("temporarily unavailable")
        || lower.contains("would block")
}

/// A reusable, pipelining connection to a [`ReactorServer`].
///
/// [`ReactorServer`]: crate::ReactorServer
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Responses that arrived while waiting for an earlier id.
    pending: HashMap<u64, Response>,
}

impl NetClient {
    /// Connect with default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit tunables.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, NetClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
        let (stream, reader) = Self::open(addr, &config)?;
        Ok(NetClient {
            addr,
            config,
            stream,
            reader,
            next_id: 1,
            pending: HashMap::new(),
        })
    }

    fn open(
        addr: SocketAddr,
        config: &ClientConfig,
    ) -> Result<(TcpStream, BufReader<TcpStream>), NetClientError> {
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..=config.connect_retries {
            if attempt > 0 {
                thread::sleep(backoff_delay(config, attempt));
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(config.timeout))?;
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok((stream, reader));
                }
                Err(e) => last = Some(e),
            }
        }
        Err(NetClientError::Io(last.expect("at least one attempt")))
    }

    fn reconnect(&mut self) -> Result<(), NetClientError> {
        let (stream, reader) = Self::open(self.addr, &self.config)?;
        self.stream = stream;
        self.reader = reader;
        // Responses to requests sent on the old connection are lost.
        self.pending.clear();
        Ok(())
    }

    /// Send one request without waiting; returns the id to pass to
    /// [`Self::recv`]. Reconnects and resends on send-side I/O errors
    /// (the request did not reach the server yet).
    pub fn send(&mut self, req: &Request) -> Result<u64, NetClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = encode_request_v(self.config.wire_version, id, req);
        for attempt in 0..=self.config.connect_retries {
            match self
                .stream
                .write_all(&bytes)
                .and_then(|_| self.stream.flush())
            {
                Ok(()) => return Ok(id),
                Err(e) if attempt == self.config.connect_retries => {
                    return Err(NetClientError::Io(e));
                }
                Err(_) => self.reconnect()?,
            }
        }
        unreachable!("loop returns on success or final error")
    }

    /// Wait for the response to `id`, buffering any other responses
    /// that arrive first.
    pub fn recv(&mut self, id: u64) -> Result<Response, NetClientError> {
        if let Some(resp) = self.pending.remove(&id) {
            return Ok(resp);
        }
        loop {
            let (got_id, resp) = match read_response(&mut self.reader) {
                Ok(pair) => pair,
                Err(WireError::Io(msg)) if is_timeout_message(&msg) => {
                    return Err(NetClientError::Timeout);
                }
                Err(e) => return Err(e.into()),
            };
            if got_id == id {
                return Ok(resp);
            }
            self.pending.insert(got_id, resp);
        }
    }

    /// One full round trip.
    pub fn call(&mut self, req: &Request) -> Result<Response, NetClientError> {
        let id = self.send(req)?;
        self.recv(id)
    }

    /// Pipeline a batch: stream every request, then collect responses
    /// in request order.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, NetClientError> {
        let ids: Vec<u64> = reqs
            .iter()
            .map(|r| self.send(r))
            .collect::<Result<_, _>>()?;
        ids.into_iter().map(|id| self.recv(id)).collect()
    }

    /// Submit a whole connect batch as one v2 `BatchConnect` frame and
    /// unpack the per-connection verdicts (in request order). One frame
    /// each way, one backend lock on the server — the cheapest way to
    /// offer many connections at once. Requires
    /// [`ClientConfig::wire_version`] ≥ 2.
    pub fn connect_batch(
        &mut self,
        conns: Vec<MulticastConnection>,
    ) -> Result<Vec<Response>, NetClientError> {
        let n = conns.len();
        match self.call(&Request::BatchConnect(conns))? {
            Response::Batch(items) if items.len() == n => Ok(items),
            Response::Batch(items) => Err(NetClientError::Wire(WireError::Malformed(format!(
                "batch reply has {} items, expected {n}",
                items.len()
            )))),
            other => Err(NetClientError::Wire(WireError::Malformed(format!(
                "expected Batch, got {other:?}"
            )))),
        }
    }

    /// Health probe.
    pub fn ping(&mut self) -> Result<(), NetClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(NetClientError::Wire(WireError::Malformed(format!(
                "expected Pong, got {other:?}"
            )))),
        }
    }

    /// Fetch live engine telemetry.
    pub fn snapshot(&mut self) -> Result<Response, NetClientError> {
        self.call(&Request::Snapshot)
    }

    /// Ask the server to drain; returns its [`Response::DrainReport`]
    /// (or whatever the server answered).
    pub fn drain(&mut self) -> Result<Response, NetClientError> {
        self.call(&Request::Drain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(base_ms: u64, cap_ms: u64, seed: u64) -> ClientConfig {
        ClientConfig {
            retry_backoff: Duration::from_millis(base_ms),
            retry_backoff_cap: Duration::from_millis(cap_ms),
            jitter_seed: seed,
            ..ClientConfig::default()
        }
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let config = cfg(10, 500, 42);
        for attempt in 1..=8 {
            assert_eq!(
                backoff_delay(&config, attempt),
                backoff_delay(&config, attempt),
                "attempt {attempt} must replay identically"
            );
        }
    }

    #[test]
    fn backoff_doubles_then_saturates_at_the_cap() {
        let config = cfg(10, 100, 7);
        for attempt in 1..=12u32 {
            let d = backoff_delay(&config, attempt);
            let nominal = Duration::from_millis(10)
                .saturating_mul(1 << (attempt - 1).min(16))
                .min(Duration::from_millis(100));
            assert!(
                d >= nominal.mul_f64(0.5) && d <= nominal,
                "attempt {attempt}: {d:?} outside [{:?}, {nominal:?}]",
                nominal.mul_f64(0.5)
            );
        }
        // Far past the cap the delay stays pinned to the cap's band.
        assert!(backoff_delay(&config, 30) <= Duration::from_millis(100));
    }

    #[test]
    fn different_seeds_decorrelate_the_jitter() {
        let a = cfg(10, 500, 1);
        let b = cfg(10, 500, 2);
        assert!(
            (1..=6).any(|i| backoff_delay(&a, i) != backoff_delay(&b, i)),
            "two seeds produced identical delay schedules"
        );
    }

    #[test]
    fn zero_base_backoff_still_pauses() {
        let config = cfg(0, 100, 3);
        assert!(backoff_delay(&config, 1) > Duration::ZERO);
    }
}
