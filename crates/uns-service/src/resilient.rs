//! Retry/backoff client resilience: deadlines, capped exponential backoff
//! with seeded jitter, and reconnect-with-position-resync.
//!
//! [`ResilientClient`] wraps the blocking [`ServiceClient`] with the retry
//! policy the raw client deliberately does not own:
//!
//! * **Busy backpressure** — [`ServiceError::Busy`] replies are retried on
//!   the same connection under capped exponential backoff with seeded
//!   jitter, bounded by a retry budget and an optional per-op deadline.
//! * **Transport faults** — timed-out reads, hang-ups, and I/O errors
//!   poison the connection (a late reply would desynchronise framing);
//!   the client reconnects through its connect closure and **resyncs by
//!   stream position** before deciding whether to resend.
//! * **Lost replies** — a mutating batch whose reply never arrived is
//!   *detected*, never double-applied: every batch ack carries the stream
//!   position after the batch, so comparing the server's position against
//!   the client's expectation distinguishes "applied, reply lost"
//!   ([`Delivery::AppliedReplyLost`]) from "never applied" (resend).
//! * **Node failover** — a client built over an endpoint *list*
//!   ([`ResilientClient::with_endpoints`]) rotates to the next endpoint
//!   when a connection cannot be established or a node answers
//!   [`ServiceError::NotPrimary`] (the mesh moved the stream's primary).
//!   Both causes are unambiguous — the op was never enqueued — so a
//!   failover retries **without** position resync.
//!
//! Reply-loss detection requires a per-attempt reply timeout
//! ([`RetryPolicy::op_timeout`]) — without one a dropped reply blocks the
//! read forever. Position resync assumes this client is the stream's only
//! writer during the ambiguous window; a concurrent writer moving the
//! position past `expected + batch` defeats exactly-once resend and is
//! reported as an error rather than guessed at.

use crate::client::{FeedAck, IngestAck, ServiceClient};
use crate::error::ServiceError;
use crate::protocol::{StreamConfig, StreamStats};
use crate::transport::Transport;
use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};
use uns_core::NodeId;

/// Retry/backoff/deadline knobs of a [`ResilientClient`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First backoff pause; doubles per retry up to [`RetryPolicy::max_backoff`].
    pub base_backoff: Duration,
    /// Cap on a single backoff pause (before jitter).
    pub max_backoff: Duration,
    /// Retries (Busy + transport) allowed per logical op before giving up.
    pub retry_budget: u32,
    /// Per-attempt reply wait, installed as the transport read timeout.
    /// `None` blocks indefinitely — lost replies then hang instead of
    /// being detected.
    pub op_timeout: Option<Duration>,
    /// Overall wall-clock cap on one logical op including all retries.
    pub op_deadline: Option<Duration>,
    /// Seed of the jitter stream: same seed, same backoff schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(250),
            retry_budget: 32,
            op_timeout: Some(Duration::from_secs(5)),
            op_deadline: None,
            jitter_seed: 0x5eed_u64,
        }
    }
}

/// Counters of everything the resilience layer absorbed or gave up on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Busy replies retried after backoff.
    pub busy_retries: u64,
    /// Connections re-established after a transport fault.
    pub reconnects: u64,
    /// Position resyncs performed after an ambiguous mutating op.
    pub resyncs: u64,
    /// Mutating ops confirmed applied whose reply was lost.
    pub replies_lost: u64,
    /// Logical ops abandoned because the retry budget ran out.
    pub budget_exhausted: u64,
    /// Logical ops abandoned because the op deadline passed.
    pub deadlines_exceeded: u64,
    /// Endpoint rotations after a connect failure or `NotPrimary` bounce.
    /// Stays zero on a single-endpoint client.
    pub failovers: u64,
}

/// Outcome of a mutating op under resilience: the normal ack, or proof
/// that the op applied even though its reply never arrived.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delivery<A> {
    /// The server's reply arrived; the op applied exactly once.
    Acked(A),
    /// The reply was lost but position resync proved the op applied —
    /// exactly once, not resent. Any per-element outputs are gone.
    AppliedReplyLost {
        /// Stream position after the batch, learned from the resync.
        position: u64,
    },
}

impl<A> Delivery<A> {
    /// True when the op applied but its reply (and outputs) were lost.
    pub fn reply_lost(&self) -> bool {
        matches!(self, Delivery::AppliedReplyLost { .. })
    }
}

enum Resync {
    Applied(u64),
    NotApplied,
}

/// An unambiguous refusal that another endpoint may be able to serve: the
/// node holds the stream as a replica (`NotPrimary`) or its worker pool is
/// draining for shutdown. Neither applied the op, so failover needs no
/// resync.
fn is_failover_bounce(err: &ServiceError) -> bool {
    match err {
        ServiceError::NotPrimary(_) => true,
        // The drain path rejects before enqueue; see `server::dispatch`.
        ServiceError::Remote(msg) => msg.contains("shutting down"),
        _ => false,
    }
}

fn is_transport_error(err: &ServiceError) -> bool {
    match err {
        ServiceError::Io(_) => true,
        ServiceError::Protocol(msg) => {
            // `wire`/`client` phrase connection-level failures with these;
            // every other Protocol error is a codec violation — permanent.
            msg.contains("hung up") || msg.contains("stream cut")
        }
        _ => false,
    }
}

/// A [`ServiceClient`] wrapper owning reconnection and retry policy.
///
/// `F` is the connect closure — called lazily for the first connection and
/// again after every transport fault. With [`ResilientClient::with_endpoints`]
/// the client holds one closure per node and rotates between them on
/// connect failures and [`ServiceError::NotPrimary`] bounces. A
/// heterogeneous endpoint set boxes the closures
/// (`Box<dyn FnMut() -> Result<T, ServiceError>>` implements `FnMut`).
pub struct ResilientClient<T: Transport, F: FnMut() -> Result<T, ServiceError>> {
    client: Option<ServiceClient<T>>,
    /// Connect closures in failover order; `current` indexes the one in use.
    endpoints: Vec<F>,
    current: usize,
    policy: RetryPolicy,
    stats: RetryStats,
    /// Last acked stream position per stream — the resync baseline.
    positions: HashMap<String, u64>,
    connected_once: bool,
    rng: u64,
}

impl<T: Transport, F: FnMut() -> Result<T, ServiceError>> ResilientClient<T, F> {
    /// Builds a client over `connect`; no connection is made until the
    /// first op.
    pub fn new(policy: RetryPolicy, connect: F) -> Self {
        Self::with_endpoints(policy, vec![connect])
    }

    /// Builds a client over an ordered endpoint list — index 0 is tried
    /// first, so a mesh caller passes `[primary, replica, ...]`. Rotation
    /// wraps around: a dead primary and a not-yet-promoted replica are
    /// both revisited until the retry budget or deadline runs out.
    ///
    /// # Panics
    ///
    /// When `endpoints` is empty — a client with nowhere to connect.
    pub fn with_endpoints(policy: RetryPolicy, endpoints: Vec<F>) -> Self {
        assert!(!endpoints.is_empty(), "a ResilientClient needs at least one endpoint");
        Self {
            client: None,
            endpoints,
            current: 0,
            policy,
            stats: RetryStats::default(),
            positions: HashMap::new(),
            connected_once: false,
            rng: policy.jitter_seed,
        }
    }

    /// Resilience counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// The position this client last confirmed for `name`, if any.
    pub fn expected_position(&self, name: &str) -> Option<u64> {
        self.positions.get(name).copied()
    }

    fn client(&mut self) -> Result<&mut ServiceClient<T>, ServiceError> {
        if self.client.is_none() {
            let transport = (self.endpoints[self.current])()?;
            let mut client = ServiceClient::new(transport)?;
            client.set_op_timeout(self.policy.op_timeout)?;
            if self.connected_once {
                self.stats.reconnects += 1;
            }
            self.connected_once = true;
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    fn drop_connection(&mut self) {
        self.client = None;
    }

    /// Drops the connection and advances to the next endpoint. On a
    /// single-endpoint client this is just a reconnect — no rotation, no
    /// failover counted — so pre-mesh behavior is unchanged.
    fn failover(&mut self) {
        self.drop_connection();
        if self.endpoints.len() > 1 {
            self.current = (self.current + 1) % self.endpoints.len();
            self.stats.failovers += 1;
        }
    }

    /// splitmix64 over the jitter seed — uniform in `[0, 1)`.
    fn next_unit(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let exp =
            self.policy.base_backoff.saturating_mul(1u32 << shift).min(self.policy.max_backoff);
        // Jitter in [0.5, 1.0)·exp de-synchronises competing clients
        // without ever collapsing the pause to zero.
        exp.mul_f64(0.5 + 0.5 * self.next_unit())
    }

    /// Accounts one retry: enforces budget and deadline, then sleeps the
    /// jittered backoff (clipped to the remaining deadline).
    fn pause(
        &mut self,
        start: Instant,
        attempts: &mut u32,
        cause: ServiceError,
    ) -> Result<(), ServiceError> {
        *attempts += 1;
        if *attempts > self.policy.retry_budget {
            self.stats.budget_exhausted += 1;
            return Err(cause);
        }
        let mut delay = self.backoff_delay(*attempts);
        if let Some(deadline) = self.policy.op_deadline {
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                self.stats.deadlines_exceeded += 1;
                return Err(cause);
            }
            delay = delay.min(deadline - elapsed);
        }
        thread::sleep(delay);
        Ok(())
    }

    /// Runs an idempotent op with Busy/transport retries (no resync).
    fn read_retry<R>(
        &mut self,
        start: Instant,
        attempts: &mut u32,
        mut op: impl FnMut(&mut ServiceClient<T>) -> Result<R, ServiceError>,
    ) -> Result<R, ServiceError> {
        loop {
            let result = match self.client() {
                Ok(client) => op(client),
                Err(err) => {
                    // Connect failure: nothing was sent — rotate and retry.
                    self.failover();
                    self.pause(start, attempts, err)?;
                    continue;
                }
            };
            match result {
                Ok(value) => return Ok(value),
                Err(ServiceError::Busy) => {
                    self.stats.busy_retries += 1;
                    self.pause(start, attempts, ServiceError::Busy)?;
                }
                Err(err) if is_failover_bounce(&err) => {
                    // Replica bounce or shutdown drain — unambiguous
                    // refusal; try the next endpoint.
                    self.failover();
                    self.pause(start, attempts, err)?;
                }
                Err(err) if is_transport_error(&err) => {
                    self.drop_connection();
                    self.pause(start, attempts, err)?;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Learns whether the ambiguous batch landed: queries the stream
    /// position and compares against `expected` / `expected + len`.
    fn resync(
        &mut self,
        name: &str,
        expected: u64,
        len: u64,
        start: Instant,
        attempts: &mut u32,
    ) -> Result<Resync, ServiceError> {
        self.stats.resyncs += 1;
        let stats = self.read_retry(start, attempts, |c| c.stats(name))?;
        let position = stats.pipeline.elements;
        if position == expected + len {
            self.positions.insert(name.to_string(), position);
            Ok(Resync::Applied(position))
        } else if position == expected {
            Ok(Resync::NotApplied)
        } else {
            self.positions.insert(name.to_string(), position);
            Err(ServiceError::Protocol(format!(
                "position resync on {name:?} found {position}, expected {expected} or {}: \
                 a concurrent writer defeats exactly-once resend",
                expected + len
            )))
        }
    }

    /// Shared engine of the mutating batch ops.
    fn mutate<A>(
        &mut self,
        name: &str,
        len: u64,
        op: impl Fn(&mut ServiceClient<T>) -> Result<A, ServiceError>,
        position_of: impl Fn(&A) -> u64,
    ) -> Result<Delivery<A>, ServiceError> {
        let start = Instant::now();
        let mut attempts = 0u32;
        // Resync needs a baseline: learn the stream position before the
        // first ambiguous send.
        if !self.positions.contains_key(name) {
            let stats = self.read_retry(start, &mut attempts, |c| c.stats(name))?;
            self.positions.insert(name.to_string(), stats.pipeline.elements);
        }
        let expected = self.positions[name];
        loop {
            let result = match self.client() {
                Ok(client) => op(client),
                Err(err) => {
                    // Connect failure: the op was never sent this attempt,
                    // so there is no new ambiguity — rotate and retry
                    // without resync.
                    self.failover();
                    self.pause(start, &mut attempts, err)?;
                    continue;
                }
            };
            match result {
                Ok(ack) => {
                    self.positions.insert(name.to_string(), position_of(&ack));
                    return Ok(Delivery::Acked(ack));
                }
                Err(err) if is_failover_bounce(&err) => {
                    // Refused before enqueue — not applied, no resync.
                    self.failover();
                    self.pause(start, &mut attempts, err)?;
                }
                Err(ServiceError::Busy) => {
                    // Busy means the shard queue rejected the op before it
                    // was enqueued — unambiguous, retry on the same
                    // connection.
                    self.stats.busy_retries += 1;
                    self.pause(start, &mut attempts, ServiceError::Busy)?;
                }
                Err(err) if is_transport_error(&err) => {
                    // The op may or may not have applied; a late reply
                    // would also corrupt framing. Reconnect, then resync.
                    self.drop_connection();
                    self.pause(start, &mut attempts, err)?;
                    if let Resync::Applied(position) =
                        self.resync(name, expected, len, start, &mut attempts)?
                    {
                        self.stats.replies_lost += 1;
                        return Ok(Delivery::AppliedReplyLost { position });
                    }
                }
                Err(err @ ServiceError::Durability(_)) => {
                    // The stream recovered in place; the connection is
                    // healthy but the op's outcome is unknown — resync.
                    self.pause(start, &mut attempts, err)?;
                    if let Resync::Applied(position) =
                        self.resync(name, expected, len, start, &mut attempts)?
                    {
                        self.stats.replies_lost += 1;
                        return Ok(Delivery::AppliedReplyLost { position });
                    }
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Input-only batch with retries and exactly-once resend.
    ///
    /// # Errors
    ///
    /// The underlying error once the retry budget or deadline is
    /// exhausted, or any permanent error (unknown stream, codec
    /// violation, position desync).
    pub fn ingest(
        &mut self,
        name: &str,
        ids: &[NodeId],
    ) -> Result<Delivery<IngestAck>, ServiceError> {
        self.mutate(name, ids.len() as u64, |c| c.ingest(name, ids), |ack| ack.position)
    }

    /// Feed batch with retries and exactly-once resend. On
    /// [`Delivery::AppliedReplyLost`] the output samples are gone — the
    /// batch applied, but its per-element samples cannot be recovered.
    ///
    /// # Errors
    ///
    /// As [`ResilientClient::ingest`].
    pub fn feed_batch(
        &mut self,
        name: &str,
        ids: &[NodeId],
    ) -> Result<Delivery<FeedAck>, ServiceError> {
        self.mutate(name, ids.len() as u64, |c| c.feed_batch(name, ids), |ack| ack.position)
    }

    /// Creates a stream, retrying Busy, transport, and transient
    /// durability faults (a `Durability` reply means the server rolled the
    /// creation back — retrying is safe). A `StreamExists` reply after an
    /// ambiguous (reconnected) attempt is treated as success — this
    /// assumes the caller owns the stream name.
    ///
    /// # Errors
    ///
    /// As [`ResilientClient::ingest`], plus [`ServiceError::StreamExists`]
    /// when the stream existed before the first attempt.
    pub fn create_stream(&mut self, name: &str, config: &StreamConfig) -> Result<(), ServiceError> {
        let start = Instant::now();
        let mut attempts = 0u32;
        let mut ambiguous = false;
        loop {
            let result = match self.client() {
                Ok(client) => client.create_stream(name, config),
                Err(err) => {
                    self.failover();
                    self.pause(start, &mut attempts, err)?;
                    continue;
                }
            };
            match result {
                Ok(()) => return Ok(()),
                Err(ServiceError::StreamExists(_)) if ambiguous => return Ok(()),
                Err(err) if is_failover_bounce(&err) => {
                    self.failover();
                    self.pause(start, &mut attempts, err)?;
                }
                Err(ServiceError::Busy) => {
                    self.stats.busy_retries += 1;
                    self.pause(start, &mut attempts, ServiceError::Busy)?;
                }
                Err(err) if is_transport_error(&err) => {
                    ambiguous = true;
                    self.drop_connection();
                    self.pause(start, &mut attempts, err)?;
                }
                Err(err @ ServiceError::Durability(_)) => {
                    self.pause(start, &mut attempts, err)?;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Draws one sample with retries. A retried sample is **not**
    /// exactly-once: each attempt that reached the server advanced the
    /// stream's sampler RNG, so a lost reply may cost extra draws.
    ///
    /// # Errors
    ///
    /// As [`ResilientClient::ingest`].
    pub fn sample(&mut self, name: &str) -> Result<Option<NodeId>, ServiceError> {
        let start = Instant::now();
        let mut attempts = 0u32;
        self.read_retry(start, &mut attempts, |c| c.sample(name))
    }

    /// Reads the sampling floor with retries.
    ///
    /// # Errors
    ///
    /// As [`ResilientClient::ingest`].
    pub fn floor_estimate(&mut self, name: &str) -> Result<u64, ServiceError> {
        let start = Instant::now();
        let mut attempts = 0u32;
        self.read_retry(start, &mut attempts, |c| c.floor_estimate(name))
    }

    /// Reads the stream stats with retries.
    ///
    /// # Errors
    ///
    /// As [`ResilientClient::ingest`].
    pub fn stats(&mut self, name: &str) -> Result<StreamStats, ServiceError> {
        let start = Instant::now();
        let mut attempts = 0u32;
        self.read_retry(start, &mut attempts, |c| c.stats(name))
    }

    /// Snapshots the stream with retries.
    ///
    /// # Errors
    ///
    /// As [`ResilientClient::ingest`].
    pub fn snapshot(&mut self, name: &str) -> Result<Vec<u8>, ServiceError> {
        let start = Instant::now();
        let mut attempts = 0u32;
        self.read_retry(start, &mut attempts, |c| c.snapshot(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec, FaultTransport, ReplyAction};
    use crate::protocol::EstimatorKind;
    use crate::server::{Server, ServerConfig};
    use uns_sketch::HashFamilyKind;

    fn stream_config() -> StreamConfig {
        StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 8,
            width: 64,
            depth: 4,
            seed: 7,
            family: HashFamilyKind::Mersenne,
        }
    }

    #[test]
    fn jitter_schedule_is_deterministic_per_seed() {
        let server = Server::start(ServerConfig::default());
        let mk = |seed| {
            let policy = RetryPolicy { jitter_seed: seed, ..RetryPolicy::default() };
            ResilientClient::new(policy, || Ok(server.connect_in_process()))
        };
        let mut a = mk(9);
        let mut b = mk(9);
        let mut c = mk(10);
        let seq_a: Vec<Duration> = (1..8).map(|i| a.backoff_delay(i)).collect();
        let seq_b: Vec<Duration> = (1..8).map(|i| b.backoff_delay(i)).collect();
        let seq_c: Vec<Duration> = (1..8).map(|i| c.backoff_delay(i)).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
        // Capped: never exceeds max_backoff, never collapses to zero.
        for d in &seq_a {
            assert!(*d <= RetryPolicy::default().max_backoff);
            assert!(*d >= RetryPolicy::default().base_backoff / 4);
        }
        server.stop();
    }

    #[test]
    fn happy_path_acks_and_tracks_positions() {
        let server = Server::start(ServerConfig::default());
        let mut client =
            ResilientClient::new(RetryPolicy::default(), || Ok(server.connect_in_process()));
        client.create_stream("s", &stream_config()).unwrap();
        let ids: Vec<NodeId> = (0..100u64).map(NodeId::new).collect();
        let delivery = client.feed_batch("s", &ids).unwrap();
        match delivery {
            Delivery::Acked(ack) => {
                assert_eq!(ack.position, 100);
                assert_eq!(ack.outputs.len(), 100);
            }
            Delivery::AppliedReplyLost { .. } => panic!("no faults configured"),
        }
        assert_eq!(client.expected_position("s"), Some(100));
        assert_eq!(client.retry_stats(), RetryStats::default());
        server.stop();
    }

    /// Find a seed whose reply-write draws are Deliver (the baseline
    /// stats), then Drop (the feed reply) — fully deterministic.
    fn deliver_then_drop_seed() -> u64 {
        let spec = FaultSpec { drop_reply_per_mille: 500, ..FaultSpec::default() };
        (0..10_000u64)
            .find(|&seed| {
                let plan = FaultPlan::new(seed, spec);
                matches!(plan.reply_action(), ReplyAction::Deliver)
                    && matches!(plan.reply_action(), ReplyAction::Drop)
            })
            .expect("some seed yields deliver,drop within 10k")
    }

    #[test]
    fn lost_request_is_resent_exactly_once() {
        let server = Server::start(ServerConfig::default());
        {
            let mut plain = ServiceClient::new(server.connect_in_process()).unwrap();
            plain.create_stream("s", &stream_config()).unwrap();
        }
        let seed = deliver_then_drop_seed();
        let spec = FaultSpec { drop_reply_per_mille: 500, ..FaultSpec::default() };
        let mut connections = 0u32;
        let policy = RetryPolicy {
            op_timeout: Some(Duration::from_millis(100)),
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        // The fault wrapper sits on the *client* side, so the dropped
        // frames are outgoing requests — the server never sees the feed.
        let mut client = ResilientClient::new(policy, move || {
            connections += 1;
            // First connection drops the feed request; later ones are clean.
            let plan = if connections == 1 {
                FaultPlan::new(seed, spec)
            } else {
                FaultPlan::new(seed, FaultSpec::default())
            };
            Ok(FaultTransport::new(server.connect_in_process(), plan))
        });
        let ids: Vec<NodeId> = (0..64u64).map(NodeId::new).collect();
        // Baseline stats request delivered (draw 1), feed request dropped
        // (draw 2) → read timeout → reconnect → resync finds the stream
        // still at 0 → resend on the clean connection → normal ack.
        match client.feed_batch("s", &ids).unwrap() {
            Delivery::Acked(ack) => assert_eq!(ack.position, 64),
            Delivery::AppliedReplyLost { .. } => panic!("dropped request was never applied"),
        }
        let stats = client.retry_stats();
        assert_eq!(stats.replies_lost, 0);
        assert_eq!(stats.resyncs, 1);
        assert!(stats.reconnects >= 1);
        assert_eq!(client.expected_position("s"), Some(64));
        assert_eq!(client.stats("s").unwrap().pipeline.elements, 64);
    }

    /// Find a seed whose reply draws go Deliver, Deliver, Drop, then
    /// Deliver for a stretch: the create ack and baseline stats get
    /// through, the feed reply is lost, the resync and follow-ups work.
    fn reply_loss_seed() -> u64 {
        let spec = FaultSpec { drop_reply_per_mille: 500, ..FaultSpec::default() };
        (0..100_000u64)
            .find(|&seed| {
                let plan = FaultPlan::new(seed, spec);
                let mut draws = (0..8).map(|_| plan.reply_action());
                draws.next().is_some_and(|a| matches!(a, ReplyAction::Deliver))
                    && draws.next().is_some_and(|a| matches!(a, ReplyAction::Deliver))
                    && draws.next().is_some_and(|a| matches!(a, ReplyAction::Drop))
                    && draws.all(|a| matches!(a, ReplyAction::Deliver))
            })
            .expect("some seed yields deliver,deliver,drop,deliver* within 100k")
    }

    #[test]
    fn lost_reply_is_detected_and_never_double_applied() {
        use crate::server::DurabilityConfig;
        use crate::storage::MemBackend;
        use std::sync::Arc;

        let spec = FaultSpec { drop_reply_per_mille: 500, ..FaultSpec::default() };
        let plan = FaultPlan::new(reply_loss_seed(), spec);
        let mut durability = DurabilityConfig::new(Arc::new(MemBackend::new()));
        durability.fault_plan = Some(plan);
        // Server-side faults: the wrapper sits on accepted connections, so
        // the dropped frames are *replies* — ops still apply server-side.
        let server = Server::start_durable(ServerConfig::default(), durability).unwrap();
        let policy = RetryPolicy {
            op_timeout: Some(Duration::from_millis(100)),
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let mut client = ResilientClient::new(policy, move || Ok(server.connect_in_process()));
        client.create_stream("s", &stream_config()).unwrap(); // reply draw 1
        let ids: Vec<NodeId> = (0..64u64).map(NodeId::new).collect();
        // Baseline stats reply delivered (draw 2); the feed applies on the
        // server but its reply is dropped (draw 3) → read timeout →
        // reconnect → resync (draw 4) proves position 64: applied once.
        let delivery = client.feed_batch("s", &ids).unwrap();
        assert_eq!(delivery, Delivery::AppliedReplyLost { position: 64 });
        assert!(delivery.reply_lost());
        let stats = client.retry_stats();
        assert_eq!(stats.replies_lost, 1);
        assert_eq!(stats.resyncs, 1);
        assert!(stats.reconnects >= 1);
        // Not double-applied: the next batch lands at 128, not 192.
        match client.feed_batch("s", &ids).unwrap() {
            Delivery::Acked(ack) => assert_eq!(ack.position, 128),
            Delivery::AppliedReplyLost { .. } => panic!("draw 5 delivers"),
        }
        assert_eq!(client.expected_position("s"), Some(128));
        assert_eq!(client.stats("s").unwrap().pipeline.elements, 128);
    }

    #[test]
    fn retry_budget_bounds_persistent_reply_loss() {
        let server = Server::start(ServerConfig::default());
        {
            let mut plain = ServiceClient::new(server.connect_in_process()).unwrap();
            plain.create_stream("s", &stream_config()).unwrap();
        }
        // Every reply dropped on every connection: the op must give up
        // after the budget, not hang or spin forever.
        let spec = FaultSpec { drop_reply_per_mille: 1000, ..FaultSpec::default() };
        let policy = RetryPolicy {
            op_timeout: Some(Duration::from_millis(25)),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            retry_budget: 3,
            ..RetryPolicy::default()
        };
        let mut client = ResilientClient::new(policy, move || {
            Ok(FaultTransport::new(server.connect_in_process(), FaultPlan::new(1, spec)))
        });
        let ids: Vec<NodeId> = (0..8u64).map(NodeId::new).collect();
        let err = client.feed_batch("s", &ids).unwrap_err();
        assert!(matches!(err, ServiceError::Io(_)), "expected timeout, got {err}");
        assert_eq!(client.retry_stats().budget_exhausted, 1);
    }

    #[test]
    fn op_deadline_bounds_total_retry_time() {
        let server = Server::start(ServerConfig::default());
        {
            let mut plain = ServiceClient::new(server.connect_in_process()).unwrap();
            plain.create_stream("s", &stream_config()).unwrap();
        }
        let spec = FaultSpec { drop_reply_per_mille: 1000, ..FaultSpec::default() };
        let policy = RetryPolicy {
            op_timeout: Some(Duration::from_millis(25)),
            op_deadline: Some(Duration::from_millis(40)),
            base_backoff: Duration::from_millis(1),
            retry_budget: 1_000,
            ..RetryPolicy::default()
        };
        let mut client = ResilientClient::new(policy, move || {
            Ok(FaultTransport::new(server.connect_in_process(), FaultPlan::new(1, spec)))
        });
        let started = Instant::now();
        let err = client.sample("s").unwrap_err();
        assert!(matches!(err, ServiceError::Io(_)), "expected timeout, got {err}");
        assert!(started.elapsed() < Duration::from_secs(5), "deadline must cut retries short");
        assert_eq!(client.retry_stats().deadlines_exceeded, 1);
    }

    #[test]
    fn connect_failure_rotates_to_the_next_endpoint() {
        let server_owner = Server::start(ServerConfig::default());
        let server = &server_owner;
        {
            let mut plain = ServiceClient::new(server.connect_in_process()).unwrap();
            plain.create_stream("s", &stream_config()).unwrap();
        }
        // One source closure, two instances → one type, no boxing needed.
        let mk = |up: bool| {
            move || {
                if up {
                    Ok(server.connect_in_process())
                } else {
                    Err(ServiceError::Io(std::io::Error::new(
                        std::io::ErrorKind::ConnectionRefused,
                        "node down",
                    )))
                }
            }
        };
        let mut client =
            ResilientClient::with_endpoints(RetryPolicy::default(), vec![mk(false), mk(true)]);
        let ids: Vec<NodeId> = (0..8u64).map(NodeId::new).collect();
        // Endpoint 0 refuses the connection → rotate → endpoint 1 acks.
        match client.feed_batch("s", &ids).unwrap() {
            Delivery::Acked(ack) => assert_eq!(ack.position, 8),
            Delivery::AppliedReplyLost { .. } => panic!("no ambiguity on a connect failure"),
        }
        let stats = client.retry_stats();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.resyncs, 0, "connect failures never resync");
        assert_eq!(stats.reconnects, 0, "the first successful connection is not a reconnect");
    }

    #[test]
    fn not_primary_bounce_fails_over_to_the_primary() {
        use crate::protocol::Response;
        use crate::server::ReplicaHandler;
        use std::sync::Arc;

        /// A node that claims every stream as a replica — all data ops
        /// bounce with `NotPrimary`.
        struct HoldsEverything;
        impl ReplicaHandler for HoldsEverything {
            fn apply(
                &self,
                _stream: &str,
                generation: u64,
                first_seq: u64,
                _snapshot: Option<&[u8]>,
                _records: &[u8],
            ) -> Response {
                Response::ReplState { generation, next_seq: first_seq }
            }
            fn holds(&self, _stream: &str) -> bool {
                true
            }
        }

        let primary_owner = Server::start(ServerConfig::default());
        let replica_owner = Server::start(ServerConfig::default());
        replica_owner.set_replica_handler(Arc::new(HoldsEverything)).unwrap();
        {
            let mut plain = ServiceClient::new(primary_owner.connect_in_process()).unwrap();
            plain.create_stream("s", &stream_config()).unwrap();
        }
        // Replica listed first: the very first op is bounced with
        // NotPrimary and the client must rotate to the primary.
        let endpoints: Vec<_> = [&replica_owner, &primary_owner]
            .into_iter()
            .map(|s| move || Ok(s.connect_in_process()))
            .collect();
        let mut client = ResilientClient::with_endpoints(RetryPolicy::default(), endpoints);
        let ids: Vec<NodeId> = (0..8u64).map(NodeId::new).collect();
        match client.feed_batch("s", &ids).unwrap() {
            Delivery::Acked(ack) => assert_eq!(ack.position, 8),
            Delivery::AppliedReplyLost { .. } => panic!("NotPrimary is unambiguous"),
        }
        let stats = client.retry_stats();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.resyncs, 0, "NotPrimary means not applied — no resync");
        assert_eq!(client.expected_position("s"), Some(8));
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let server = Server::start(ServerConfig::default());
        let mut client =
            ResilientClient::new(RetryPolicy::default(), || Ok(server.connect_in_process()));
        let ids = [NodeId::new(1)];
        let err = client.ingest("missing", &ids).unwrap_err();
        assert!(matches!(err, ServiceError::UnknownStream(_)));
        assert_eq!(client.retry_stats(), RetryStats::default());
        server.stop();
    }
}
