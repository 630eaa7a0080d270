//! WAL-shipping replication: the primary-side sink and the replica-side
//! applier, both speaking the service's `Replicate` opcode.
//!
//! The WAL **is** the replication log. [`Replicator`] implements the
//! server's [`ReplicationSink`]: the stream's owning worker hands it every
//! record together with the local append, and the sink sends the exact
//! CRC-framed bytes to each replica, runs the local append and fsync, and
//! returns the replicas' outstanding durable acks (log-before-ack on the
//! replica) without waiting for them. The worker's release thread reads
//! the acks, in send order, on each connection's read half, and only then
//! sends the op's reply, so the two fsyncs overlap and the worker serves
//! other ops while the replica applies. The replica appends the very bytes
//! it was sent — the buffer the primary appended — so a replica's durable
//! state is byte-identical to the primary's by construction: promotion
//! replays a log that is literally the same bytes.
//!
//! A session keeps sending while earlier acks are outstanding; its
//! `next_seq` is the next sequence to *send*. The replica serves one
//! request per connection at a time, so records apply in send order, and
//! the records in flight on a stream are bounded by the connections
//! writing to it (each has one request in flight). A client hears back
//! only once both appends are durable, so a primary crash leaves the logs
//! apart by at most the records sent but not yet acked — usually with the
//! replica ahead — and the clients' position resync resolves them; no
//! acknowledged op is ever missing. A failed or timed-out ack marks the
//! connection failed: the replies still waiting on it go out degraded,
//! and the worker drops the connection at its next ship. A failed local
//! append waits out every ack in flight, then re-bases the replicas: the
//! next attach ships the durable snapshot, since recovery may or may not
//! have kept the record the replicas already hold.
//!
//! Attach and catch-up run **synchronously inside `ship`**, before the
//! record is sent, on the worker thread that owns the stream, and only on
//! a fresh connection. The primary's WAL is frozen for the exchange, so
//! the catch-up slice plus the shipped record is gap-free by construction.
//! Records still in flight on the old connection may land at the replica
//! after the catch-up has begun; they are records the primary's log holds
//! at the same sequence (a failed local append drains them before the
//! re-base), so the replica's apply skips what it already has and refuses
//! anything that would leave a gap. At worst a late record costs one
//! detach and a backoff. A replica whose generation matches resumes from
//! its own durable position (an incremental slice of the primary's log);
//! anything else gets the durable snapshot and the full log tail.

use crate::membership::Membership;
use crate::placement::place;
use std::collections::{BTreeSet, HashMap};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use uns_metrics::{LatencyHistogram, TraceKind};
use uns_service::client::{ReplicationReceiver, ReplicationSender, ServiceClient};
use uns_service::error::ServiceError;
use uns_service::fault::{FaultPlan, FaultTransport};
use uns_service::metrics::{replication_ack_wait, ReplicationHandles, ServiceMetrics};
use uns_service::protocol::{ErrorCode, Response};
use uns_service::server::{PendingAcks, ReplicaHandler, ReplicationSink};
use uns_service::storage::StorageBackend;
use uns_service::transport::Transport;
use uns_service::wal::{
    decode_record, parse_wal, DurableSnapshot, FsyncPolicy, WalWriter, WAL_HEADER_LEN,
};

/// Soft cap on the record bytes of one catch-up shipment. Frames also
/// carry the snapshot on the first call, so this stays far under the wire
/// limit while keeping round-trips rare.
const CATCHUP_CHUNK_BYTES: u64 = 1 << 20;

/// How long a failed peer is skipped before the next attach attempt, so a
/// dead replica costs the op path one connect timeout per backoff window,
/// not one per record.
const ATTACH_BACKOFF: Duration = Duration::from_millis(250);

fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error { code, message: message.into() }
}

// ---------------------------------------------------------------------------
// Replica side
// ---------------------------------------------------------------------------

struct ReplicaStream {
    writer: WalWriter,
}

#[derive(Default)]
struct ApplierState {
    streams: HashMap<String, ReplicaStream>,
    /// Streams promoted away on this node: a stale primary re-appearing
    /// after a partition must not be allowed to clobber the promoted
    /// incarnation with an old-generation snapshot.
    released: Vec<String>,
}

/// Replica-side shipment applier: durably logs every shipped record into
/// this node's own backend (log-before-ack) so a later promotion recovers
/// the stream through the ordinary snapshot-plus-replay path.
pub struct ReplicaApplier {
    backend: Arc<dyn StorageBackend>,
    fsync: FsyncPolicy,
    /// Held across a shipment's durable appends.
    state: Mutex<ApplierState>,
    /// The names in `state.streams`, under a lock of their own so that
    /// [`ReplicaHandler::holds`] (asked on the thread that routes every
    /// connection) never waits on a shipment's fsyncs. Updated inside each
    /// `state` critical section that adds or drops a stream's log.
    held: Mutex<BTreeSet<String>>,
}

impl ReplicaApplier {
    /// An applier persisting into `backend` under `fsync` — the same
    /// policy the node's server uses, so a replica ack promises exactly
    /// the durability a primary ack does.
    pub fn new(backend: Arc<dyn StorageBackend>, fsync: FsyncPolicy) -> Self {
        Self {
            backend,
            fsync,
            state: Mutex::new(ApplierState::default()),
            held: Mutex::new(BTreeSet::new()),
        }
    }

    /// Reopens a stream's durable state left by an earlier attach (the
    /// re-attach path after a partition): decodes the snapshot for the
    /// generation baseline and resumes the WAL's valid prefix.
    fn open_existing(&self, stream: &str) -> Result<Option<ReplicaStream>, ServiceError> {
        let Some(snap_bytes) = self.backend.read_snapshot(stream)? else {
            return Ok(None);
        };
        let snap = DurableSnapshot::decode(&snap_bytes)?;
        let mut store = self.backend.open_wal(stream)?;
        let parsed = parse_wal(&store.read_all()?);
        let usable = parsed
            .header
            .is_some_and(|h| h.generation == snap.generation && h.base_seq <= snap.seq);
        let writer = if usable {
            let header = parsed.header.expect("usable implies a header");
            let next = header.base_seq + parsed.records.len() as u64;
            WalWriter::resume(store, snap.generation, parsed.valid_len, next, self.fsync)?
        } else {
            WalWriter::create(store, snap.generation, snap.seq, self.fsync)?
        };
        Ok(Some(ReplicaStream { writer }))
    }

    /// Stops holding `stream` (promotion hand-off): the WAL handle is
    /// dropped so [`uns_service::server::Server::adopt_stream`] can reopen
    /// the durable state, and the stream is barred from future shipments.
    /// Returns whether the stream was held.
    pub fn release(&self, stream: &str) -> bool {
        let mut state = self.state.lock().expect("applier lock poisoned");
        let held = state.streams.remove(stream).is_some();
        self.held.lock().expect("held-names lock poisoned").remove(stream);
        if !state.released.iter().any(|s| s == stream) {
            state.released.push(stream.to_string());
        }
        held
    }

    /// Holds `stream` as a replica from its durable state on this node's
    /// backend (the restart re-join path): the server-side `NotPrimary`
    /// routing check starts bouncing client ops immediately, and future
    /// shipments are accepted again. A previous [`ReplicaApplier::release`]
    /// of the stream is undone. Returns whether durable state existed to
    /// hold; a stream this node never stored cannot be held.
    ///
    /// # Errors
    ///
    /// Durable-state decode/open failures from the backend.
    pub fn hold(&self, stream: &str) -> Result<bool, ServiceError> {
        let mut state = self.state.lock().expect("applier lock poisoned");
        state.released.retain(|s| s != stream);
        if state.streams.contains_key(stream) {
            return Ok(true);
        }
        match self.open_existing(stream)? {
            Some(entry) => {
                state.streams.insert(stream.to_string(), entry);
                self.held.lock().expect("held-names lock poisoned").insert(stream.to_string());
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Names of the streams currently held as replicas.
    pub fn held_streams(&self) -> Vec<String> {
        self.held.lock().expect("held-names lock poisoned").iter().cloned().collect()
    }

    /// The held stream's `(generation, next_seq)` durable position.
    pub fn position(&self, stream: &str) -> Option<(u64, u64)> {
        let state = self.state.lock().expect("applier lock poisoned");
        state.streams.get(stream).map(|s| (s.writer.generation(), s.writer.next_seq()))
    }
}

impl ReplicaHandler for ReplicaApplier {
    fn apply(
        &self,
        stream: &str,
        generation: u64,
        first_seq: u64,
        snapshot: Option<&[u8]>,
        records: &[u8],
    ) -> Response {
        let mut state = self.state.lock().expect("applier lock poisoned");
        if state.released.iter().any(|s| s == stream) {
            return error(
                ErrorCode::NotPrimary,
                format!("stream {stream:?} was promoted on this node; stale shipment refused"),
            );
        }
        if !state.streams.contains_key(stream) {
            match self.open_existing(stream) {
                Ok(Some(entry)) => {
                    state.streams.insert(stream.to_string(), entry);
                    self.held.lock().expect("held-names lock poisoned").insert(stream.to_string());
                }
                Ok(None) => {}
                Err(err) => {
                    return error(
                        ErrorCode::Durability,
                        format!("replica cannot open {stream:?}: {err}"),
                    )
                }
            }
        }
        if let Some(blob) = snapshot {
            // Full ship: adopt the snapshot as the new baseline, restart
            // the log at the sequence it covers.
            let snap = match DurableSnapshot::decode(blob) {
                Ok(snap) => snap,
                Err(err) => return error(ErrorCode::BadSnapshot, err.to_string()),
            };
            if snap.generation != generation || snap.seq != first_seq {
                return error(
                    ErrorCode::BadSnapshot,
                    format!(
                        "shipment claims generation {generation} seq {first_seq}, snapshot \
                         carries {} / {}",
                        snap.generation, snap.seq
                    ),
                );
            }
            // Snapshot first, then the log restart — the same commit-point
            // ordering the durable server uses everywhere.
            if let Err(err) = self.backend.write_snapshot(stream, blob) {
                return error(ErrorCode::Durability, format!("snapshot write failed: {err}"));
            }
            state.streams.remove(stream); // drop the old WAL handle first
            let writer =
                self.backend.open_wal(stream).map_err(ServiceError::from).and_then(|store| {
                    Ok(WalWriter::create(store, generation, first_seq, self.fsync)?)
                });
            match writer {
                Ok(writer) => {
                    state.streams.insert(stream.to_string(), ReplicaStream { writer });
                    self.held.lock().expect("held-names lock poisoned").insert(stream.to_string());
                }
                Err(err) => {
                    self.held.lock().expect("held-names lock poisoned").remove(stream);
                    return error(ErrorCode::Durability, format!("log restart failed: {err}"));
                }
            }
        }
        let Some(entry) = state.streams.get_mut(stream) else {
            if records.is_empty() {
                // Pure probe of a stream this node has nothing for.
                return Response::ReplState { generation: 0, next_seq: 0 };
            }
            return error(
                ErrorCode::Durability,
                format!("replica has no baseline for {stream:?}; ship a snapshot first"),
            );
        };
        let writer = &mut entry.writer;
        if records.is_empty() {
            return Response::ReplState {
                generation: writer.generation(),
                next_seq: writer.next_seq(),
            };
        }
        if generation != writer.generation() {
            return error(
                ErrorCode::Durability,
                format!(
                    "generation mismatch: shipment {generation}, replica {}",
                    writer.generation()
                ),
            );
        }
        let mut offset = 0usize;
        let mut seq = first_seq;
        while offset < records.len() {
            let Some((_, consumed)) = decode_record(records, offset) else {
                return error(
                    ErrorCode::Other,
                    format!("corrupt replication record at byte {offset}"),
                );
            };
            let record = &records[offset..offset + consumed];
            offset += consumed;
            if seq < writer.next_seq() {
                // Already durable here (a resend overlapping the tail) —
                // idempotent skip keeps the log exactly-once.
                seq += 1;
                continue;
            }
            if seq > writer.next_seq() {
                return error(
                    ErrorCode::Durability,
                    format!(
                        "sequence gap: shipment at {seq}, replica expects {}",
                        writer.next_seq()
                    ),
                );
            }
            // The CRC-checked bytes as shipped: decoding is strict, so
            // they are exactly what re-encoding the op would produce.
            if let Err(err) = writer.append_record(record) {
                return error(ErrorCode::Durability, format!("replica append failed: {err}"));
            }
            seq += 1;
        }
        // Log-before-ack: under `FsyncPolicy::PerOp` every append above
        // synced, so this ack promises exactly what a primary ack does.
        Response::ReplState { generation: writer.generation(), next_seq: writer.next_seq() }
    }

    fn holds(&self, stream: &str) -> bool {
        self.held.lock().expect("held-names lock poisoned").contains(stream)
    }
}

// ---------------------------------------------------------------------------
// Primary side
// ---------------------------------------------------------------------------

/// One replica peer's session for one stream.
struct PeerSession {
    peer: String,
    /// The open replication connection; `None` while detached.
    conn: Option<Connection>,
    /// The next sequence to send on `conn`: one past the last record
    /// sent, whether or not its ack is in yet.
    next_seq: u64,
    /// Attach attempts are skipped until this instant after a failure.
    retry_at: Option<Instant>,
    /// The next attach ships the durable snapshot whatever the replica's
    /// position: the local append of the last record failed (or
    /// panicked), the primary's log went through repair or recovery, and
    /// the replica's copy of that record may be one the primary no longer
    /// holds.
    rebase: bool,
}

impl PeerSession {
    fn new(peer: String) -> Self {
        Self { peer, conn: None, next_seq: 0, retry_at: None, rebase: false }
    }

    /// Drops the connection after a send or ack that failed at `at`; the
    /// next record after the backoff retries the attach. Replies still
    /// waiting on the connection's acks are released degraded, and the
    /// socket closes with the last of them.
    fn detach(&mut self, at: Instant) {
        self.conn = None;
        self.retry_at = Some(at + ATTACH_BACKOFF);
    }
}

/// An attached replication connection: the write half the owning worker
/// sends records on, and the read half their acks arrive on.
struct Connection {
    sender: ReplicationSender,
    acks: Arc<AckReader>,
}

/// The read half of one replication connection. The worker sends on the
/// write half without waiting; the acks are read here, in send order, by
/// the worker's release thread (or by the worker itself when a failed
/// local append must drain them before a re-base).
struct AckReader {
    /// The incarnation the connection was attached under.
    generation: u64,
    state: Mutex<AckState>,
    /// When an ack failed, was refused or timed out: the session detaches
    /// at its next ship, with the backoff counted from here. Never held
    /// across I/O, so the worker can check it while an ack is awaited.
    failed_at: Mutex<Option<Instant>>,
}

struct AckState {
    receiver: ReplicationReceiver<Box<dyn Transport>>,
    /// The replica's durable position as of the last ack read.
    acked_next: u64,
}

impl AckReader {
    fn failed_at(&self) -> Option<Instant> {
        *self.failed_at.lock().expect("ack failure lock poisoned")
    }

    /// Reads acks until the replica's durable position reaches `next`;
    /// `false` once the connection has failed. Acks arrive one per record
    /// in send order, so a wait also consumes the acks of earlier records
    /// that nobody waited for (a panicked op's).
    fn wait_for(&self, next: u64) -> bool {
        let mut state = self.state.lock().expect("ack lock poisoned");
        while state.acked_next < next {
            if self.failed_at().is_some() {
                return false;
            }
            match state.receiver.recv() {
                Ok((generation, got))
                    if generation == self.generation && got == state.acked_next + 1 =>
                {
                    state.acked_next = got;
                }
                _ => {
                    *self.failed_at.lock().expect("ack failure lock poisoned") =
                        Some(Instant::now());
                    return false;
                }
            }
        }
        true
    }
}

/// The acks of one shipped record ([`PendingAcks`]): one per connection
/// the record went out on. Counts in `uns_replica_lag_records` until
/// waited out or dropped.
struct ShipAcks {
    readers: Vec<Arc<AckReader>>,
    /// The replicas' durable position once the record is in.
    next: u64,
    sent_at: Instant,
    record_len: u64,
    handles: ReplicationHandles,
    ack_wait: Arc<LatencyHistogram>,
}

impl ShipAcks {
    fn wait_all(&self) {
        for reader in &self.readers {
            if reader.wait_for(self.next) {
                self.ack_wait.record_duration(self.sent_at.elapsed());
                self.handles.shipped_bytes.add(self.record_len);
            }
        }
    }
}

impl PendingAcks for ShipAcks {
    fn wait(self: Box<Self>) {
        self.wait_all();
    }
}

impl Drop for ShipAcks {
    fn drop(&mut self) {
        self.handles.lag.dec();
    }
}

/// A stream's replication state on its primary: the placement peers, as
/// of a membership version. Created at the stream's first shipment and
/// reused for every later one, so a steady-state shipment allocates only
/// its [`ShipAcks`].
#[derive(Default)]
struct StreamSessions {
    /// [`Membership::version`] the peer list was placed under; `None`
    /// until the first placement.
    view: Option<u64>,
    peers: Vec<PeerSession>,
}

impl StreamSessions {
    /// Re-places the stream over a changed live view, keeping the
    /// sessions of peers that are still placed.
    fn replace_peers(&mut self, peers: Vec<String>, view: u64) {
        let mut old = std::mem::take(&mut self.peers);
        self.peers = peers
            .into_iter()
            .map(|peer| match old.iter().position(|s| s.peer == peer) {
                Some(i) => old.swap_remove(i),
                None => PeerSession::new(peer),
            })
            .collect();
        self.view = Some(view);
    }
}

/// Attach counters, split by how much had to be shipped — the partition
/// tests assert that a re-attach with a matching generation is
/// incremental, never a snapshot re-ship.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttachStats {
    /// Attaches that shipped the durable snapshot plus the log tail.
    pub full: u64,
    /// Attaches that resumed from the replica's own durable position.
    pub incremental: u64,
}

/// Primary-side replication sink: one session per (stream, replica peer),
/// attached lazily and healed lazily. Ship failures detach the session and
/// the primary continues degraded; the next record retries the attach
/// (with backoff), and the catch-up slice closes the gap.
pub struct Replicator {
    node: String,
    membership: Arc<Membership>,
    replication: usize,
    backend: Arc<dyn StorageBackend>,
    metrics: Arc<ServiceMetrics>,
    connect_timeout: Duration,
    op_timeout: Option<Duration>,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Per-stream sessions. A shipment takes its stream's entry out and
    /// puts it back, so the lock is never held across network I/O or the
    /// local append; a demotion removes it ([`ReplicationSink::forget`]).
    sessions: Mutex<HashMap<String, StreamSessions>>,
    /// `uns_replication_ack_wait_nanos`, recorded as acks are read.
    ack_wait: Arc<LatencyHistogram>,
    attach_full: AtomicU64,
    attach_incremental: AtomicU64,
}

impl Replicator {
    /// A sink for node `node`, shipping to the peers
    /// [`crate::placement::place`] assigns each stream over `membership`'s
    /// live view. `backend` is the node's own durable store (the catch-up
    /// read side); `metrics` the node's server metrics (the ack-wait
    /// histogram and the trace ring). `fault_plan`, when set, wraps every
    /// replication connection — the partition tests sever exactly this
    /// path.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node: impl Into<String>,
        membership: Arc<Membership>,
        replication: usize,
        backend: Arc<dyn StorageBackend>,
        metrics: Arc<ServiceMetrics>,
        connect_timeout: Duration,
        op_timeout: Option<Duration>,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        let ack_wait = replication_ack_wait(metrics.registry());
        Self {
            node: node.into(),
            membership,
            replication,
            backend,
            metrics,
            connect_timeout,
            op_timeout,
            fault_plan,
            sessions: Mutex::new(HashMap::new()),
            ack_wait,
            attach_full: AtomicU64::new(0),
            attach_incremental: AtomicU64::new(0),
        }
    }

    /// Attach counters so far (full vs incremental).
    pub fn attach_stats(&self) -> AttachStats {
        AttachStats {
            full: self.attach_full.load(Ordering::Relaxed),
            incremental: self.attach_incremental.load(Ordering::Relaxed),
        }
    }

    /// The peers `stream` ships to under the current live view: the
    /// placement set minus this node. Normally this node is the placement
    /// primary; after a view change it may briefly disagree — it still
    /// ships to the placement set minus itself so R copies exist either
    /// way.
    fn placed_peers(&self, stream: &str) -> Vec<String> {
        let live = self.membership.live_names();
        let Some(placement) = place(stream, &live, self.replication) else {
            return Vec::new();
        };
        let mut peers: Vec<String> = std::iter::once(placement.primary)
            .chain(placement.replicas)
            .filter(|p| *p != self.node)
            .collect();
        peers.truncate(self.replication);
        peers
    }

    fn connect(&self, peer: &str) -> Result<ServiceClient<Box<dyn Transport>>, ServiceError> {
        let addr = self.membership.addr_of(peer).ok_or_else(|| {
            ServiceError::InvalidConfig(format!("peer {peer:?} is not a mesh member"))
        })?;
        let tcp = TcpStream::connect_timeout(&addr, self.connect_timeout)?;
        tcp.set_nodelay(true).ok();
        let transport: Box<dyn Transport> = match &self.fault_plan {
            Some(plan) => Box::new(FaultTransport::new(tcp, Arc::clone(plan))),
            None => Box::new(tcp),
        };
        let mut client = ServiceClient::new(transport)?;
        client.set_op_timeout(self.op_timeout)?;
        Ok(client)
    }

    /// Connects to `peer` and brings its copy of `stream` up to exactly
    /// `up_to_seq` (the sequence of the record about to ship — the
    /// primary's WAL holds everything before it and is frozen while the
    /// owning worker sits in `ship`). Generation match resumes from the
    /// replica's durable position unless `rebase` is set; anything else
    /// ships snapshot + tail.
    fn attach(
        &self,
        stream: &str,
        generation: u64,
        up_to_seq: u64,
        peer: &str,
        rebase: bool,
        handles: &ReplicationHandles,
    ) -> Result<ServiceClient<Box<dyn Transport>>, ServiceError> {
        let mut client = self.connect(peer)?;
        let (replica_gen, replica_next) = client.replicate(stream, 0, 0, None, &[])?;

        let snap_bytes = self.backend.read_snapshot(stream)?.ok_or_else(|| {
            ServiceError::Snapshot(format!("stream {stream:?}: primary has no durable snapshot"))
        })?;
        let snap = DurableSnapshot::decode(&snap_bytes)?;
        let wal_bytes = self.backend.open_wal(stream)?.read_all()?;
        let parsed = parse_wal(&wal_bytes);
        let base = parsed.header.map_or(snap.seq, |h| h.base_seq);
        let log_usable =
            parsed.header.is_some_and(|h| h.generation == generation && h.base_seq <= up_to_seq);

        let incremental = !rebase
            && log_usable
            && replica_gen == generation
            && replica_next >= base
            && replica_next <= up_to_seq;
        let (mut cursor_seq, with_snapshot) = if incremental {
            (replica_next, None)
        } else {
            if snap.generation != generation {
                return Err(ServiceError::Snapshot(format!(
                    "stream {stream:?}: snapshot generation {} behind writer generation \
                     {generation}",
                    snap.generation
                )));
            }
            (snap.seq, Some(snap_bytes.as_slice()))
        };

        // Ship the log records in [cursor_seq, up_to_seq), chunked on
        // record boundaries; the first call carries the snapshot (if any).
        let record_start = |i: usize| -> u64 {
            if i == 0 {
                WAL_HEADER_LEN as u64
            } else {
                parsed.record_ends[i - 1]
            }
        };
        let mut shipped_bytes = with_snapshot.map_or(0, |b| b.len() as u64);
        let mut snapshot_to_send = with_snapshot;
        let mut acked_next = replica_next;
        loop {
            let from = usize::try_from(cursor_seq.saturating_sub(base)).unwrap_or(usize::MAX);
            let remaining = parsed.records.len().saturating_sub(from);
            if remaining == 0 && snapshot_to_send.is_none() {
                break;
            }
            let mut take = 0usize;
            let chunk_start = record_start(from);
            let mut chunk_end = chunk_start;
            while take < remaining {
                let end = parsed.record_ends[from + take];
                if take > 0 && end - chunk_start > CATCHUP_CHUNK_BYTES {
                    break;
                }
                chunk_end = end;
                take += 1;
            }
            let chunk = &wal_bytes[usize::try_from(chunk_start).unwrap_or(usize::MAX)
                ..usize::try_from(chunk_end).unwrap_or(usize::MAX)];
            let (got_gen, got_next) =
                client.replicate(stream, generation, cursor_seq, snapshot_to_send.take(), chunk)?;
            let expect = cursor_seq + take as u64;
            if got_gen != generation || got_next != expect {
                return Err(ServiceError::Protocol(format!(
                    "catch-up desync on {stream:?}@{peer}: replica at generation {got_gen} seq \
                     {got_next}, expected {generation}/{expect}"
                )));
            }
            shipped_bytes += (chunk_end - chunk_start) as u64;
            cursor_seq = expect;
            acked_next = got_next;
        }
        if acked_next != up_to_seq {
            return Err(ServiceError::Protocol(format!(
                "catch-up on {stream:?}@{peer} ended at seq {acked_next}, primary is at \
                 {up_to_seq}"
            )));
        }

        let counter = if incremental { &self.attach_incremental } else { &self.attach_full };
        counter.fetch_add(1, Ordering::Relaxed);
        handles.shipped_bytes.add(shipped_bytes);
        let stream_arc: Arc<str> = Arc::from(stream);
        self.metrics.trace().push(
            TraceKind::ReplicaAttach,
            &stream_arc,
            generation,
            if incremental { replica_next } else { snap.seq },
        );
        Ok(client)
    }
}

impl ReplicationSink for Replicator {
    fn ship(
        &self,
        stream: &str,
        handles: &ReplicationHandles,
        generation: u64,
        seq: u64,
        record: &[u8],
        local: &mut dyn FnMut() -> bool,
    ) -> Option<Box<dyn PendingAcks>> {
        // Only the owning worker ships a stream, so nobody else wants this
        // entry while it is out of the map.
        let taken = self.sessions.lock().expect("replicator lock poisoned").remove_entry(stream);
        let (key, mut sessions) =
            taken.unwrap_or_else(|| (stream.to_string(), StreamSessions::default()));
        let view = self.membership.version();
        if sessions.view != Some(view) {
            sessions.replace_peers(self.placed_peers(stream), view);
        }
        let peers = &mut sessions.peers;

        // 1. Attach or catch up where needed, then send the record. Only a
        // fresh connection attaches: records still in flight on an old one
        // may land after the catch-up, where the replica skips what it
        // holds and refuses gaps.
        let mut readers = Vec::new();
        for session in peers.iter_mut() {
            if let Some(conn) = &session.conn {
                if let Some(at) = conn.acks.failed_at() {
                    session.detach(at);
                } else if session.next_seq != seq || conn.acks.generation != generation {
                    session.conn = None;
                }
            }
            if session.conn.is_none() {
                if session.retry_at.is_some_and(|at| Instant::now() < at) {
                    continue; // still backing off a recent failure
                }
                match self.attach(stream, generation, seq, &session.peer, session.rebase, handles) {
                    Ok(client) => {
                        let (sender, receiver) = client.split_replication();
                        let acks = Arc::new(AckReader {
                            generation,
                            state: Mutex::new(AckState { receiver, acked_next: seq }),
                            failed_at: Mutex::default(),
                        });
                        session.conn = Some(Connection { sender, acks });
                        session.retry_at = None;
                        session.rebase = false;
                    }
                    Err(_) => {
                        // Degraded: the primary keeps serving; the next
                        // record after the backoff retries the attach.
                        session.retry_at = Some(Instant::now() + ATTACH_BACKOFF);
                        continue;
                    }
                }
            }
            let Some(conn) = session.conn.as_mut() else { continue };
            if conn.sender.send(stream, generation, seq, None, record).is_err() {
                session.detach(Instant::now());
                continue;
            }
            session.next_seq = seq + 1;
            readers.push(Arc::clone(&conn.acks));
        }
        let acks = if readers.is_empty() {
            None
        } else {
            handles.lag.inc(); // until the acks are dropped
            Some(ShipAcks {
                readers,
                next: seq + 1,
                sent_at: Instant::now(),
                record_len: record.len() as u64,
                handles: handles.clone(),
                ack_wait: Arc::clone(&self.ack_wait),
            })
        };

        // 2. The local append and fsync, while the replicas do theirs. A
        // panic is held until the acks are in, so no shipment is left in
        // flight behind the re-based sessions.
        let local = std::panic::catch_unwind(std::panic::AssertUnwindSafe(local));
        let acks = if matches!(local, Ok(true)) {
            acks
        } else {
            // The replicas may now hold a record the primary does not.
            // Wait out every ack in flight, so none can land after the
            // re-base, then ship the durable snapshot at the next attach.
            if let Some(acks) = acks {
                acks.wait_all();
            }
            for session in peers.iter_mut() {
                session.conn = None;
                session.rebase = true;
            }
            None
        };
        self.sessions.lock().expect("replicator lock poisoned").insert(key, sessions);
        if let Err(panic) = local {
            std::panic::resume_unwind(panic);
        }
        // 3. The acks are the release thread's to wait for.
        acks.map(|acks| Box::new(acks) as Box<dyn PendingAcks>)
    }

    fn forget(&self, stream: &str) {
        // Dropped after the lock: dropping the sessions closes their peer
        // connections.
        let sessions = self.sessions.lock().expect("replicator lock poisoned").remove(stream);
        drop(sessions);
    }
}
