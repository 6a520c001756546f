//! Reconnect-with-backoff failover for VQRP clients.
//!
//! A replicated fleet promises availability: when a leader daemon dies,
//! its follower promotes and takes over the *same* socket address. The
//! client half of that promise lives here — [`FailoverClient`] wraps an
//! [`RpcClient`] and, on any connection failure, reconnects to the same
//! target with exponential backoff, re-binds its identity, and
//! resubmits every in-flight session **under its original token**, so a
//! caller blocked in [`FailoverClient::await_result`] rides through a
//! leader death without seeing an error.
//!
//! Semantics are at-least-once: a session whose result had not yet
//! arrived when the connection died is resubmitted against the promoted
//! leader. The replicated store makes the retry cheap (the first run's
//! published entries arrive via journal shipping, so the retry is a
//! warm hit), and the reply-gating on the leader makes it lossless: any
//! result the client actually *received* covered mutations the follower
//! had already durably acked.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

use vaqem_fleet_service::{SessionRequest, SessionResult};

use crate::client::RpcClient;

/// Where a [`FailoverClient`] (re)connects: the address is stable across
/// a failover — the follower takes over the leader's socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailoverTarget {
    /// A TCP address (`host:port`).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl FailoverTarget {
    /// Opens one plain connection to the target, with no retry.
    ///
    /// # Errors
    ///
    /// When the connection is refused or the address does not resolve.
    pub fn connect(&self) -> io::Result<RpcClient> {
        match self {
            FailoverTarget::Tcp(addr) => RpcClient::connect_tcp(addr.as_str()),
            FailoverTarget::Unix(path) => RpcClient::connect_unix(path),
        }
    }
}

/// Connection attempts per outage before giving up. With the backoff
/// below (the first attempt immediate, then 10ms doubling to 500ms)
/// this rides out the couple of seconds a follower needs to notice the
/// death, replay its journal, and take over the socket, with margin.
const RECONNECT_ATTEMPTS: u32 = 40;

/// Sleep before the second attempt (the first is immediate).
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);

/// Backoff ceiling.
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// An [`RpcClient`] that survives its server: reconnects with backoff
/// and resubmits in-flight sessions under their original tokens. See
/// the module docs for the exact semantics.
pub struct FailoverClient {
    target: FailoverTarget,
    identity: String,
    client: Option<RpcClient>,
    next_token: u64,
    /// Sessions submitted and not yet answered — the resubmission set.
    in_flight: HashMap<u64, SessionRequest>,
    /// Results harvested off a dying connection's buffer, by token.
    results: HashMap<u64, SessionResult>,
    reconnects: u64,
    read_timeout: Option<Duration>,
}

impl FailoverClient {
    /// Connects (retrying with backoff) and binds `identity`.
    ///
    /// # Errors
    ///
    /// When every connection attempt fails.
    pub fn connect(target: FailoverTarget, identity: &str) -> io::Result<Self> {
        let mut client = FailoverClient {
            target,
            identity: identity.to_string(),
            client: None,
            next_token: 1,
            in_flight: HashMap::new(),
            results: HashMap::new(),
            reconnects: 0,
            read_timeout: None,
        };
        client.reconnect()?;
        // The very first connection is not a *re*-connect.
        client.reconnects = 0;
        Ok(client)
    }

    /// Times a connection was re-established after a failure — ≥ 1 after
    /// a ridden-through failover.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sessions submitted and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Bounds how long any single blocking read waits (`None` = wait
    /// forever). Timeouts surface to the caller — they are *not*
    /// treated as connection death (a SIGKILLed leader yields EOF, not
    /// a timeout).
    ///
    /// # Errors
    ///
    /// Propagates the socket option error.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        match self.client.as_mut() {
            Some(c) => c.set_read_timeout(timeout),
            None => Ok(()),
        }
    }

    /// Submits a session and returns its token; the session is tracked
    /// for resubmission until its result is awaited.
    ///
    /// # Errors
    ///
    /// When the connection is down and the reconnect budget runs out.
    pub fn submit(&mut self, request: SessionRequest) -> io::Result<u64> {
        let token = self.next_token;
        self.next_token += 1;
        // Track first: a reconnect triggered by this very submission's
        // write failure must already resubmit it.
        self.in_flight.insert(token, request.clone());
        self.with_client(|c| c.submit_with_token(token, request.clone()))?;
        Ok(token)
    }

    /// Blocks until the session behind `token` completes — reconnecting
    /// and resubmitting through any leader death in between.
    ///
    /// # Errors
    ///
    /// Reconnect budget exhaustion, read timeouts (when one is set), or
    /// a malformed reply.
    pub fn await_result(&mut self, token: u64) -> io::Result<SessionResult> {
        if let Some(result) = self.results.remove(&token) {
            self.in_flight.remove(&token);
            return Ok(result);
        }
        let result = self.with_client(|c| c.await_result(token))?;
        self.in_flight.remove(&token);
        Ok(result)
    }

    /// Runs `op` against a live connection, reconnecting (and
    /// resubmitting in-flight sessions) on connection failure. Bounded:
    /// at most `RECONNECT_ATTEMPTS` failure→reconnect cycles per call.
    fn with_client<T>(
        &mut self,
        mut op: impl FnMut(&mut RpcClient) -> io::Result<T>,
    ) -> io::Result<T> {
        for _ in 0..RECONNECT_ATTEMPTS {
            if self.client.is_none() {
                self.reconnect()?;
            }
            let client = self.client.as_mut().expect("reconnect succeeded");
            match op(client) {
                Ok(v) => return Ok(v),
                // A configured read timeout is the caller's business,
                // not a dead connection.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(e)
                }
                Err(_) => {
                    // Connection failure: harvest whatever completions
                    // the dying client had buffered, then rebuild.
                    let mut dead = self.client.take().expect("was live");
                    for (t, r) in dead.take_buffered() {
                        self.results.insert(t, r);
                    }
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "failover: operation kept failing across reconnects",
        ))
    }

    /// One full reconnect: backoff loop, preamble + identity re-bind,
    /// resubmission of every in-flight session under its original
    /// token.
    fn reconnect(&mut self) -> io::Result<()> {
        if let Some(mut dead) = self.client.take() {
            for (t, r) in dead.take_buffered() {
                self.results.insert(t, r);
            }
        }
        // Results already harvested need no resubmission.
        self.in_flight.retain(|t, _| !self.results.contains_key(t));
        let mut backoff = INITIAL_BACKOFF;
        let mut last_err: io::Error = io::ErrorKind::NotConnected.into();
        for attempt in 0..RECONNECT_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
            match self.try_connect() {
                Ok(client) => {
                    self.client = Some(client);
                    self.reconnects += 1;
                    return Ok(());
                }
                Err(e) => last_err = e,
            }
        }
        Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!(
                "failover: no server at target after {RECONNECT_ATTEMPTS} attempts: {last_err}"
            ),
        ))
    }

    fn try_connect(&mut self) -> io::Result<RpcClient> {
        let mut client = self.target.connect()?;
        client.set_read_timeout(self.read_timeout)?;
        client.open(&self.identity)?;
        let mut tokens: Vec<u64> = self.in_flight.keys().copied().collect();
        // Deterministic resubmission order (oldest first).
        tokens.sort_unstable();
        for token in tokens {
            let request = self.in_flight[&token].clone();
            client.submit_with_token(token, request)?;
        }
        Ok(client)
    }
}
