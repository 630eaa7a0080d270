//! The multi-tenant sampling server.
//!
//! # Architecture
//!
//! ```text
//! connection drivers                          worker pool (stream shards)
//! ┌──────────────────────────────────┐ try_send ┌──────────────────────┐
//! │ Conn: bytes → frames → requests  │ ───────► │ worker 0: streams    │
//! │ route by stream name             │ bounded  │   {a, d, …} samplers │
//! │ resume parsing, own unsent tail  │ ◄─────── │ worker 1: streams    │
//! └──────────────────────────────────┘ complete │   {b, c, …} samplers │
//!  reactor (TCP) · pump (any Transport)         └──────────┬───────────┘
//!        ▲ socket                 reply frame, written     │
//!        └──────────────── by the thread that computed it ─┘
//! ```
//!
//! Every connection runs the one sans-IO connection core (`conn.rs`),
//! driven by the epoll [`crate::reactor`] for TCP or by a blocking pump
//! thread for in-process socket pairs. Both hand worker-bound requests to
//! the same router, so framing, reply order and admission are one
//! mechanism whatever the transport. On a reactor connection the thread
//! that computed a reply — a worker, its release thread or the replica
//! applier — encodes the frame and writes it to the nonblocking socket
//! itself whenever no earlier reply bytes are pending; the reactor hears
//! back only to resume parsing and to flush what the socket did not take.
//! A pump thread waits for its reply and writes it.
//!
//! Every named stream is owned by exactly **one** worker (assigned
//! round-robin at creation), so all operations on a stream are serialized
//! through that worker's queue — which is what makes the service path
//! *exact*: the order in which batches leave the queue **is** the stream
//! order, and each reply carries the stream position so clients can
//! reconstruct the interleaving after the fact (the release-mode tests
//! replay it in-process and compare bit for bit).
//!
//! Queues are **bounded**: when a shard's queue is full the connection
//! replies [`Response::Busy`] immediately instead of buffering — memory is
//! bounded by `workers × queue_depth` jobs no matter how many connections
//! push. Clients retry; the stream's `uns_stream_busy_rejections_total`
//! counts every bounce. Creation, restore and promotion are ordinary jobs
//! too: no request makes a connection driver wait on a worker or a disk.
//!
//! On a replicated durable stream, the owning worker encodes each
//! mutating op's WAL record once, sends it to every replica, appends and
//! fsyncs it locally while the replicas do the same, and applies the op
//! without waiting for the replicas' acks ([`ReplicationSink`]). The
//! reply then goes to the worker's **release thread**, which sends it
//! once the acks are in, so a client hears back only when both appends
//! are durable while the worker serves the next op. A worker sends every
//! other reply itself, except that a reply on a stream with replies still
//! held queues behind them: each stream keeps its reply order, and no
//! read is answered before an earlier write to its stream is acked. A
//! `FloorEstimate` is answered at routing with the floor as of the
//! stream's last answered write: it waits for no worker and reports no
//! unacked write. A crash leaves the logs apart by at most the records
//! sent but not yet acked — one per connection writing to the stream —
//! which the clients' position resync resolves.
//!
//! The two replication hooks are installed once and read without a lock;
//! routing asks the replica handler only about names it does not serve.
//!
//! Replica shipments queue for the **replica applier**, one thread of its
//! own rather than a stream worker. If the peer applied shipments on a
//! worker that could itself be busy shipping back, two nodes replicating
//! to each other could wait on each other forever. The applier never
//! ships, so it always drains. Its queue needs no bound and never answers
//! Busy: every connection has at most one request in flight, so it holds
//! at most one shipment per connection.
//!
//! # Buffer pool
//!
//! The batch hot path is allocation-free in steady state: identifier
//! buffers cycle through a shared `BufferPool` instead of being
//! allocated per request. A connection takes a buffer for the request's
//! ids and the owning worker returns it after feeding; the worker takes a
//! buffer for the Feed reply's outputs (previously an `outputs.clone()`
//! per batch — the allocation the pool exists to kill) and the thread
//! that encodes the reply returns it once the frame is built. A
//! counting-allocator regression test pins that a long feed session does
//! not allocate proportionally to the batch size.

use crate::error::ServiceError;
use crate::fault::{FaultBackend, FaultPlan, FaultTransport};
use crate::metrics::{ReplicationHandles, ServiceMetrics, StreamMetrics};
use crate::protocol::{
    ErrorCode, ReplicationStats, Request, Response, StreamConfig, StreamStats, MAX_BATCH_IDS,
    MAX_STREAM_NAME_LEN,
};
use crate::sampler::ServiceSampler;
use crate::storage::StorageBackend;
use crate::transport::Transport;
use crate::wal::{
    encode_record, parse_wal, DurabilityStats, DurableSnapshot, FsyncPolicy, WalOpRef, WalWriter,
    WAL_HEADER_LEN,
};
use std::collections::HashMap;
use std::fmt;
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uns_core::NodeId;
use uns_metrics::{Counter, Gauge, TraceKind};
use uns_sim::PipelineStats;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker-pool size: how many stream shards run in parallel.
    pub workers: usize,
    /// Bounded job-queue depth per worker — the backpressure horizon.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { workers, queue_depth: 64 }
    }
}

/// Durability knobs of a server started with [`Server::start_durable`].
///
/// Every mutating op on every stream is appended to that stream's
/// write-ahead log **before** it is applied ([`crate::wal`] has the format
/// and the fsync-policy loss windows); a crashed or killed server rebuilds
/// each stream at the next [`Server::start_durable`] from its latest
/// durable snapshot plus log replay — bit-equal to the uninterrupted run
/// up to the policy's loss window (zero loss at [`FsyncPolicy::PerOp`]).
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Where logs and snapshots live ([`crate::storage::DirBackend`] for
    /// real files, [`crate::storage::MemBackend`] for crash tests).
    pub backend: Arc<dyn StorageBackend>,
    /// When the log is fsynced relative to op acknowledgement.
    pub fsync: FsyncPolicy,
    /// Log size (bytes) at which the owning worker compacts the stream:
    /// write a durable snapshot, restart the log. Compaction runs between
    /// ops on the worker, so it never races the state it captures.
    pub compact_bytes: u64,
    /// Optional seeded fault schedule: wraps the backend (torn writes,
    /// failed fsyncs), injects scheduled worker panics, and wraps the
    /// reply path (drops/delays) of connections pumped by
    /// [`Server::handle`] — in-process connections and the non-epoll
    /// accept-loop fallback. TCP connections served by the reactor see no
    /// reply faults.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl DurabilityConfig {
    /// Durability over `backend` with the safe defaults: fsync per op
    /// (zero acknowledged loss), 1 MiB compaction threshold, no faults.
    pub fn new(backend: Arc<dyn StorageBackend>) -> Self {
        Self { backend, fsync: FsyncPolicy::PerOp, compact_bytes: 1 << 20, fault_plan: None }
    }

    /// The backend all stream I/O actually goes through — the configured
    /// one, wrapped in the fault plan when present.
    fn effective_backend(&self) -> Arc<dyn StorageBackend> {
        match &self.fault_plan {
            Some(plan) => Arc::new(FaultBackend::new(Arc::clone(&self.backend), Arc::clone(plan))),
            None => Arc::clone(&self.backend),
        }
    }
}

impl fmt::Debug for DurabilityConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurabilityConfig")
            .field("fsync", &self.fsync)
            .field("compact_bytes", &self.compact_bytes)
            .field("fault_plan", &self.fault_plan.is_some())
            .finish_non_exhaustive()
    }
}

/// A stream operation after routing, executed by the owning worker.
/// Create/Restore carry the stream *name* because a durable server keys
/// its logs and snapshots by name.
pub(crate) enum StreamOp {
    Create(String, StreamConfig),
    Restore(String, Vec<u8>),
    /// Promote a replica-held stream: rebuild it from the durable state
    /// the replication feed laid down, with the generation bumped.
    Adopt(String),
    /// Drop the stream from its worker (WAL flushed first): the node
    /// stops serving it as primary; durable state stays on the backend.
    Demote,
    Ingest(Vec<NodeId>),
    Feed(Vec<NodeId>),
    Sample,
    Snapshot,
    Stats,
    /// Test hook: panics inside the worker, exercising panic isolation.
    #[cfg(test)]
    Panic,
}

/// One `Replicate` request, copied off the frame so the replica applier
/// can apply it after the connection has moved on to its next bytes.
pub(crate) struct Shipment {
    name: String,
    generation: u64,
    first_seq: u64,
    snapshot: Option<Vec<u8>>,
    records: Vec<u8>,
}

/// Where a reply goes from the thread that computed it (a worker, its
/// release thread, or the replica applier): a one-shot channel a blocked
/// caller waits on (the pump, which encodes and writes the reply itself,
/// or [`Server::adopt_stream`]), or a reactor connection. Workers never
/// block on a reply either way.
pub(crate) enum ReplyTo {
    /// One-shot channel whose receiver a blocked caller waits on.
    Channel(SyncSender<Response>),
    /// Reactor connection: encode the frame, write what the nonblocking
    /// socket takes right here, hand the rest to the reactor and wake it.
    Reactor(crate::reactor::CompletionSender),
}

impl ReplyTo {
    fn send(self, response: Response) {
        match self {
            // A gone peer just drops the reply.
            ReplyTo::Channel(tx) => drop(tx.send(response)),
            ReplyTo::Reactor(tx) => tx.send(response),
        }
    }
}

pub(crate) struct Job {
    stream: u64,
    op: StreamOp,
    reply: ReplyTo,
    /// Phase 2 of a fresh name's reservation, settled by the worker
    /// before `reply` is sent.
    reservation: Option<Reservation>,
    /// A Stats job's busy counter, its routing entry's, which the reply
    /// folds in as it leaves ([`Held::send`]).
    stats: Option<Arc<Counter>>,
    /// When the job was queued: its queue wait ends when the worker takes
    /// it.
    enqueued: Instant,
}

/// Routing entry of one named stream.
#[derive(Clone)]
pub(crate) struct StreamEntry {
    worker: usize,
    id: u64,
    /// Requests bounced with Busy for this stream (incremented by the
    /// connections, folded into Stats replies). This is the registered
    /// `uns_stream_busy_rejections_total` counter itself, so the Stats
    /// fold and the exposition read the same atomic.
    busy: Arc<Counter>,
    /// The stream's registered `uns_stream_floor` gauge: the floor as of
    /// its last answered write or install ([`Held::send`]), which routing
    /// answers `FloorEstimate` from.
    floor: Arc<Gauge>,
    /// `false` while the stream's Create/Restore/Adopt job is in flight.
    /// Other requests seeing a pending entry reply Busy instead of racing
    /// the creation, and the registry lock is not held meanwhile, so one
    /// slow create cannot stall unrelated streams.
    ready: Arc<AtomicBool>,
}

pub(crate) struct Registry {
    streams: Mutex<HashMap<String, StreamEntry>>,
    next_id: AtomicU64,
    next_worker: AtomicU64,
}

/// Phase 2 of the two-phase name reservation, carried by the create job
/// to the owning worker. Phase 1 (reserving the name under the registry
/// lock) is [`Router::reserve`]. The worker settles the reservation
/// before it replies: an `Ok` marks the entry ready. Dropping it
/// unsettled rolls the name back — a failed or panicking create, a Busy
/// bounce, a job dropped at shutdown — so the name is free again before
/// any reply says the create failed.
pub(crate) struct Reservation {
    registry: Arc<Registry>,
    metrics: Arc<ServiceMetrics>,
    name: String,
    entry: StreamEntry,
}

impl Reservation {
    fn settle(self, response: &Response) {
        if matches!(response, Response::Ok) {
            self.entry.ready.store(true, Ordering::Release);
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if self.entry.ready.load(Ordering::Acquire) {
            return;
        }
        // Matched by id: a panicking create's teardown may have freed the
        // name already, and a later create may have taken it since.
        let mut streams = self.registry.streams.lock().expect("registry lock poisoned");
        if streams.get(&self.name).is_some_and(|e| e.id == self.entry.id) {
            streams.remove(&self.name);
            drop(streams);
            // The worker may have registered this stream's series before
            // the create failed; a rolled-back name must not keep exporting.
            self.metrics.remove_stream(&self.name);
        }
    }
}

/// Read and write timeout of every admin HTTP socket
/// ([`Server::serve_metrics_http`]): a peer that connects and sends
/// nothing, or stops reading its response, releases its thread after this.
const ADMIN_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Most identifier buffers the pool retains; beyond this, returned buffers
/// are simply dropped.
const POOL_MAX_BUFS: usize = 64;

/// Largest per-buffer capacity (in identifiers) the pool retains. A
/// maximum-size batch ([`MAX_BATCH_IDS`], ~8M ids) would grow a buffer to
/// ~67 MB; retaining those would let one burst of huge batches pin
/// `POOL_MAX_BUFS × 67 MB` for the process lifetime. Buffers above this
/// cap are dropped on return instead — such batches still work, they just
/// pay their own allocation — bounding retained pool memory at
/// `POOL_MAX_BUFS × POOL_MAX_BUF_IDS × 8` bytes (8 MiB), while the
/// common batch sizes (the benchmark's bulk feed uses 4096) stay pooled.
const POOL_MAX_BUF_IDS: usize = 1 << 14;

/// Shared recycling pool for identifier-batch buffers (request ids and
/// Feed-reply outputs). See the module docs: this is what makes the batch
/// hot path allocation-free in steady state.
pub(crate) struct BufferPool {
    bufs: Mutex<Vec<Vec<NodeId>>>,
}

impl BufferPool {
    fn new() -> Self {
        Self { bufs: Mutex::new(Vec::new()) }
    }

    /// Pops a recycled buffer (empty, capacity retained) or makes a new one.
    pub(crate) fn take(&self) -> Vec<NodeId> {
        self.bufs.lock().expect("buffer pool lock poisoned").pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool. Buffers that never grew carry no
    /// useful capacity and oversized ones would pin memory
    /// ([`POOL_MAX_BUF_IDS`]); both are dropped instead of retained.
    pub(crate) fn put(&self, mut buf: Vec<NodeId>) {
        buf.clear();
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_BUF_IDS {
            return;
        }
        let mut bufs = self.bufs.lock().expect("buffer pool lock poisoned");
        if bufs.len() < POOL_MAX_BUFS {
            bufs.push(buf);
        }
    }
}

/// Primary-side replication hook: ships each WAL record to the stream's
/// replicas and overlaps their durable appends with the primary's own.
///
/// The owning worker calls [`ReplicationSink::ship`] synchronously on the
/// mutating-op path, so the sink sees a frozen stream: no other op can
/// append to the WAL while a ship (or the attach/catch-up it triggers) is
/// in flight. The sink first brings every replica session up to `seq`,
/// then **sends** the record to each replica, then runs `local` — the
/// primary's own append and fsync — exactly once, and returns without
/// waiting for the replicas' acks. The worker applies the op and hands
/// its reply to the worker's release thread together with the returned
/// [`PendingAcks`]; the release thread waits the acks out and only then
/// sends the reply, so the op is acknowledged to its client only once
/// both appends are durable, and the worker serves other ops meanwhile.
///
/// Records a session has sent but not yet had acked are bounded by the
/// connections writing to the stream: each has one request in flight. A
/// primary crash can therefore leave the logs apart by at most those
/// records, which the clients' position resync resolves. No acknowledged
/// op is ever missing from a replica that acked.
///
/// `record` is the exact CRC-framed encoding that `local` appends to the
/// primary's log — the same buffer, so the replica's log is
/// byte-identical by construction. `local` returns whether that append
/// is durable; after a failed one, the primary's log went through repair
/// or recovery, and the sink must wait out the acks already in flight
/// (none may land after the re-base) and re-base its replicas on the
/// primary's durable snapshot before shipping more. Ship errors are the
/// sink's to handle: a failed send or ack detaches the session and the
/// primary keeps serving degraded; the server never holds a reply on a
/// sick replica beyond the sink's own timeout. `local` must run with none
/// of the sink's locks held, so a panicking append cannot poison them.
pub trait ReplicationSink: Send + Sync {
    /// Ships one record for `stream`, counted in its `series`: `seq` is the
    /// sequence the record will occupy, `generation` the incarnation
    /// appending it. Runs `local` exactly once, after the sends. Returns the
    /// acks still outstanding, or `None` when none are: no replica was sent
    /// the record, or `local` failed and the sink waited them out itself.
    fn ship(
        &self,
        stream: &str,
        series: &ReplicationHandles,
        generation: u64,
        seq: u64,
        record: &[u8],
        local: &mut dyn FnMut() -> bool,
    ) -> Option<Box<dyn PendingAcks>>;

    /// Drops what the sink keeps for `stream`, which this node stopped
    /// serving: [`Server::demote_stream`] calls it once the stream's worker
    /// has answered the Demote, so none of its shipments is in flight. The
    /// provided method keeps nothing to drop.
    fn forget(&self, _stream: &str) {}
}

/// The replica acks of one shipped record, still outstanding when
/// [`ReplicationSink::ship`] returned. The worker's release thread waits
/// them out before it sends the op's reply.
pub trait PendingAcks: Send {
    /// Blocks until every replica the record was sent to has acked it,
    /// failed, or timed out. A failure is the sink's to handle (the
    /// session detaches at its next ship); the reply goes out regardless.
    fn wait(self: Box<Self>);
}

/// Replica-side replication hook: applies shipments arriving over the
/// wire [`Request::Replicate`] opcode and claims the streams this node
/// holds as a replica (so data ops on them bounce with
/// [`ErrorCode::NotPrimary`] instead of `UnknownStream`).
///
/// Replica-held streams live **outside** the server's stream registry —
/// they must not serve reads mid-catch-up — and a served name is never
/// held: during a promotion the handler must stop claiming the stream
/// *before* [`Server::adopt_stream`] is called. Routing enforces the
/// other half (it answers a shipment for a served name `NotPrimary`
/// itself, so `apply` never sees one) and asks
/// [`ReplicaHandler::holds`] only about names it does not serve.
///
/// `apply` runs on the server's replica applier, one thread that never
/// ships (see the module docs): shipments apply in arrival order, a slow
/// durable append stalls no connection, and two nodes replicating to each
/// other cannot wait on each other.
pub trait ReplicaHandler: Send + Sync {
    /// Applies one shipment, returning the reply frame: `ReplState` with
    /// the replica's durable position on success (log-before-ack — the
    /// records are on the replica's backend when this returns), an error
    /// response otherwise.
    fn apply(
        &self,
        stream: &str,
        generation: u64,
        first_seq: u64,
        snapshot: Option<&[u8]>,
        records: &[u8],
    ) -> Response;

    /// Whether this node currently holds `stream` as a replica. Asked on
    /// the routing thread: it must not wait on a shipment's appends.
    fn holds(&self, stream: &str) -> bool;
}

/// Install-once slot for a replication hook, set after start (the mesh
/// wires nodes together once they all listen) and read without a lock.
type Hook<T> = Arc<OnceLock<Arc<T>>>;

/// What routing reads, shared by the server handle, the reactor thread
/// and every pump thread: the name registry, the worker queues, the
/// buffer pool, the metrics and the replica-side shipment handler.
pub(crate) struct Router {
    registry: Arc<Registry>,
    senders: Vec<SyncSender<Job>>,
    /// The replica applier's queue (see the module docs); `None` once the
    /// server is dropped.
    applier: Option<Sender<(Shipment, ReplyTo, Instant)>>,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) metrics: Arc<ServiceMetrics>,
    replica_handler: Hook<dyn ReplicaHandler>,
}

/// The sampling server: owns the worker pool and accepts connections on
/// any [`Transport`].
///
/// Dropping the server stops the workers (connections still open get
/// "shutting down" errors on their next request).
pub struct Server {
    config: ServerConfig,
    pub(crate) router: Arc<Router>,
    workers: Vec<JoinHandle<()>>,
    pub(crate) shutdown: Arc<AtomicBool>,
    durability: Option<DurabilityConfig>,
    replication_sink: Hook<dyn ReplicationSink>,
    /// Wakers of accept/reactor loops blocked in a poller wait;
    /// [`Server::stop`] wakes each one so no loop sits out a timeout.
    pub(crate) accept_wakers: Arc<Mutex<Vec<Arc<epoll::Waker>>>>,
    /// Test seam: the next N connection-thread spawns report failure, the
    /// way fd or thread exhaustion would (see [`Server::handle`]).
    fail_spawns: Arc<AtomicU64>,
}

impl Server {
    /// Starts the worker pool. No connections are accepted yet — pass
    /// transports to [`Server::handle`], in-process socket pairs from
    /// [`Server::connect_in_process`], or a listener to
    /// [`Server::serve_reactor`].
    pub fn start(config: ServerConfig) -> Self {
        let metrics = Arc::new(ServiceMetrics::new(config.workers.max(1)));
        Self::start_inner(config, None, Vec::new(), HashMap::new(), metrics)
    }

    /// Starts a **durable** server: recovers every stream the backend
    /// knows (latest durable snapshot + write-ahead-log replay, torn tails
    /// CRC-truncated) *before* accepting work, then write-ahead-logs every
    /// mutating op per `durability.fsync`.
    ///
    /// # Errors
    ///
    /// Fails hard when a stream's durable snapshot is missing/corrupt or
    /// its storage errors — silently dropping a stream that was promised
    /// durable would be worse than refusing to start. (A torn log *tail*
    /// is normal crash damage and is truncated, not an error.)
    pub fn start_durable(
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, ServiceError> {
        // Route all storage I/O through the fault plan when one is set.
        let durability = DurabilityConfig { backend: durability.effective_backend(), ..durability };
        let workers_n = config.workers.max(1);
        let metrics = Arc::new(ServiceMetrics::new(workers_n));
        // Fault events fire deep inside the storage/transport wrappers;
        // bind the trace ring so they land next to the heals they cause.
        if let Some(plan) = &durability.fault_plan {
            plan.bind_trace(Arc::clone(metrics.trace()));
        }
        let mut names = durability.backend.list_streams()?;
        names.sort();
        let mut initial: Vec<HashMap<u64, StreamState>> =
            (0..workers_n).map(|_| HashMap::new()).collect();
        let mut registry_streams = HashMap::new();
        for (index, name) in names.iter().enumerate() {
            let state = recover_stream(
                &durability.backend,
                name,
                durability.fsync,
                workers_n,
                &metrics,
                metrics.stream(name),
                0,
            )?;
            let worker = index % workers_n;
            let id = index as u64;
            let recoveries = state.metrics.recoveries.get();
            state.metrics.event(TraceKind::StreamRecovered, worker as u64, recoveries);
            state.metrics.floor.set_u64(state.sampler.floor_estimate());
            registry_streams.insert(
                name.clone(),
                StreamEntry {
                    worker,
                    id,
                    busy: metrics.stream_busy(name),
                    floor: Arc::clone(&state.metrics.floor),
                    ready: Arc::new(AtomicBool::new(true)),
                },
            );
            initial[worker].insert(id, state);
        }
        Ok(Self::start_inner(config, Some(durability), initial, registry_streams, metrics))
    }

    fn start_inner(
        config: ServerConfig,
        durability: Option<DurabilityConfig>,
        mut initial: Vec<HashMap<u64, StreamState>>,
        registry_streams: HashMap<String, StreamEntry>,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
        let workers_n = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let recovered = registry_streams.len() as u64;
        let registry = Arc::new(Registry {
            streams: Mutex::new(registry_streams),
            next_id: AtomicU64::new(recovered),
            next_worker: AtomicU64::new(recovered),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(BufferPool::new());
        let replication_sink: Hook<dyn ReplicationSink> = Arc::default();
        let replica_handler: Hook<dyn ReplicaHandler> = Arc::default();
        initial.resize_with(workers_n, HashMap::new);
        let mut senders = Vec::with_capacity(workers_n);
        let mut workers = Vec::with_capacity(workers_n);
        for (index, streams) in initial.drain(..).enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth);
            senders.push(tx);
            let shutdown = Arc::clone(&shutdown);
            let worker = Worker {
                release: Release::new(index),
                index,
                pool_size: workers_n,
                streams,
                pool: Arc::clone(&pool),
                registry: Arc::clone(&registry),
                durability: durability.clone(),
                metrics: Arc::clone(&metrics),
                sink: Arc::clone(&replication_sink),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("uns-worker-{index}"))
                    .spawn(move || worker_main(&rx, &shutdown, worker))
                    .expect("spawning a worker thread"),
            );
        }
        let (applier, rx) = mpsc::channel();
        let applier_shutdown = Arc::clone(&shutdown);
        let handler = Arc::clone(&replica_handler);
        let applier_metrics = Arc::clone(&metrics);
        // Joined with the workers on drop.
        workers.push(
            std::thread::Builder::new()
                .name("uns-replica-applier".into())
                .spawn(move || applier_main(&rx, &applier_shutdown, &handler, &applier_metrics))
                .expect("spawning the replica applier thread"),
        );
        let router = Arc::new(Router {
            registry,
            senders,
            applier: Some(applier),
            pool,
            metrics,
            replica_handler,
        });
        Self {
            config: ServerConfig { workers: workers_n, queue_depth },
            router,
            workers,
            shutdown,
            durability,
            replication_sink,
            accept_wakers: Arc::new(Mutex::new(Vec::new())),
            fail_spawns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The effective configuration (after clamping).
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// The server's live metrics surface: registry, trace ring, renderer.
    /// The same text is served by the wire `Metrics` opcode and the
    /// [`Server::serve_metrics_http`] admin listener.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.router.metrics
    }

    /// Spawns a thread pumping `transport` through the connection core
    /// until the peer hangs up or violates the protocol. On a durable
    /// server with a fault plan, the reply path is routed through the
    /// plan's transport faults.
    ///
    /// A failed thread spawn (fd or thread exhaustion) costs exactly that
    /// one connection: the transport is dropped (closing it), the
    /// `uns_accept_spawn_failures_total` counter bumps, and the server
    /// keeps accepting — one overloaded moment must not kill the accept
    /// loop that would let the server recover.
    pub fn handle<T: Transport + 'static>(&self, transport: T) {
        match self.durability.as_ref().and_then(|d| d.fault_plan.as_ref()) {
            Some(plan) => self.spawn_connection(FaultTransport::new(transport, Arc::clone(plan))),
            None => self.spawn_connection(transport),
        }
    }

    fn spawn_connection<T: Transport + 'static>(&self, transport: T) {
        let router = Arc::clone(&self.router);
        let spawned = if self.take_injected_spawn_failure() {
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "injected spawn failure"))
        } else {
            std::thread::Builder::new()
                .name("uns-conn".into())
                .spawn(move || crate::conn::pump(transport, &router))
        };
        if spawned.is_err() {
            // The transport was dropped with the failed spawn (or with the
            // unspawned closure), closing the connection. Count it; the
            // caller keeps accepting.
            self.metrics().spawn_failures().inc();
        }
    }

    /// Consumes one injected spawn failure, if armed (tests only).
    fn take_injected_spawn_failure(&self) -> bool {
        self.fail_spawns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Arms the spawn-failure seam: the next `n` connection (or admin
    /// HTTP) thread spawns fail as if the process were out of threads.
    #[cfg(test)]
    pub(crate) fn inject_spawn_failures(&self, n: u64) {
        self.fail_spawns.store(n, Ordering::Relaxed);
    }

    /// Opens an in-process connection: one end of a Unix socket pair whose
    /// other end this server serves, speaking the full wire protocol
    /// without a listener or port.
    ///
    /// # Panics
    ///
    /// Panics if `socketpair` fails, as it does when the process or the
    /// system runs out of file descriptors.
    pub fn connect_in_process(&self) -> UnixStream {
        let (client, server) = UnixStream::pair().expect("socketpair for an in-process connection");
        self.handle(server);
        client
    }

    /// Serves TCP connections through the readiness reactor: one thread
    /// (the calling one) owns the listener and every connection socket,
    /// reassembles frames without blocking, and hands complete requests
    /// to the worker pool. Returns when [`Server::stop`] is called.
    ///
    /// On targets without the vendored poller (non-Linux) the same
    /// connection core runs behind an accept loop instead, one pump
    /// thread per connection; `config`'s admission limits are reactor
    /// features and do not apply there.
    ///
    /// # Errors
    ///
    /// Propagates listener/poller failures.
    pub fn serve_reactor(
        &self,
        listener: TcpListener,
        config: crate::reactor::ReactorConfig,
    ) -> std::io::Result<()> {
        if epoll::supported() {
            crate::reactor::run(self, listener, config)
        } else {
            self.serve_pumps(listener)
        }
    }

    /// Accepts TCP connections into pump threads until [`Server::stop`]
    /// (the [`Server::serve_reactor`] fallback).
    fn serve_pumps(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut waiter = AcceptWaiter::new(self, &listener);
        while !self.shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nodelay(true).ok();
                    stream.set_nonblocking(false).ok();
                    self.handle(stream);
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    waiter.wait();
                }
                Err(err) => return Err(err),
            }
        }
        Ok(())
    }

    /// Serves the plain-HTTP admin surface (`GET /metrics`, `/trace`,
    /// `/healthz` — see [`crate::http`]) until [`Server::stop`] is called.
    /// Runs on the calling thread, one short-lived thread per connection;
    /// scrapes are read-only, so this listener can face an ops network the
    /// wire protocol does not. Each socket reads and writes under a fixed
    /// 2 s timeout, so a peer that connects and stalls holds its thread
    /// for at most that long per read or write.
    ///
    /// # Errors
    ///
    /// Propagates listener failures other than `WouldBlock`.
    pub fn serve_metrics_http(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut waiter = AcceptWaiter::new(self, &listener);
        while !self.shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false).ok();
                    stream.set_read_timeout(Some(ADMIN_IO_TIMEOUT)).ok();
                    stream.set_write_timeout(Some(ADMIN_IO_TIMEOUT)).ok();
                    let metrics = Arc::clone(self.metrics());
                    let spawned = if self.take_injected_spawn_failure() {
                        Err(std::io::Error::new(
                            std::io::ErrorKind::WouldBlock,
                            "injected spawn failure",
                        ))
                    } else {
                        std::thread::Builder::new().name("uns-http".into()).spawn(move || {
                            let mut stream = stream;
                            let _ = crate::http::serve_http_once(&mut stream, &metrics);
                        })
                    };
                    if spawned.is_err() {
                        // This scrape is lost (socket closed with the
                        // drop); the admin listener itself survives.
                        self.metrics().spawn_failures().inc();
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    waiter.wait();
                }
                Err(err) => return Err(err),
            }
        }
        Ok(())
    }

    /// Makes every [`Server::serve_reactor`] / [`Server::serve_metrics_http`]
    /// loop return: sets the flag, then wakes each loop blocked in a poller
    /// wait.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for waker in self.accept_wakers.lock().expect("accept waker lock poisoned").iter() {
            waker.wake();
        }
    }

    /// Installs the primary-side replication sink, which workers ship
    /// each mutating op's record through from their next op on. It is set
    /// once: a second install fails with [`ServiceError::InvalidConfig`].
    pub fn set_replication_sink(&self, sink: Arc<dyn ReplicationSink>) -> Result<(), ServiceError> {
        self.replication_sink.set(sink).map_err(|_| already_installed("replication sink"))
    }

    /// Installs the replica-side shipment handler, which routing hands the
    /// `Replicate` frames to from the next frame on. It is set once: a
    /// second install fails with [`ServiceError::InvalidConfig`].
    pub fn set_replica_handler(&self, hook: Arc<dyn ReplicaHandler>) -> Result<(), ServiceError> {
        self.router.replica_handler.set(hook).map_err(|_| already_installed("replica handler"))
    }

    /// Promotes a replica-held stream to primary on this node: rebuild it
    /// from the durable state the replication feed laid down (latest
    /// snapshot + log replay) with the incarnation **generation bumped**,
    /// then register it — data ops on the name serve from here on.
    ///
    /// The bump is what makes promotion safe against the old primary: a
    /// stale shipment or leftover log from the previous incarnation fails
    /// the generation check and is discarded instead of replayed onto the
    /// promoted state. The caller (the mesh's failover detector) must stop
    /// its [`ReplicaHandler`] from claiming the stream *before* calling.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] on a non-durable server,
    /// [`ServiceError::StreamExists`] when the name is already served
    /// (an idempotent-promotion race — the stream is live either way),
    /// [`ServiceError::Durability`] when the durable state cannot be
    /// rebuilt.
    pub fn adopt_stream(&self, name: &str) -> Result<(), ServiceError> {
        if self.durability.is_none() {
            return Err(ServiceError::InvalidConfig("promotion requires a durable server".into()));
        }
        if name.is_empty() || name.len() > MAX_STREAM_NAME_LEN {
            return Err(ServiceError::InvalidConfig(format!(
                "stream name must be 1..={MAX_STREAM_NAME_LEN} bytes"
            )));
        }
        let response = match self.router.reserve(name, false, || StreamOp::Adopt(name.into())) {
            Routed::Immediate(response) => response,
            Routed::Dispatch(dispatch) => self.router.call(dispatch),
        };
        response.into_result().map(|_| ())
    }

    /// Names of every stream this server currently serves as primary.
    pub fn stream_names(&self) -> Vec<String> {
        let streams = self.router.registry.streams.lock().expect("registry lock poisoned");
        streams.keys().cloned().collect()
    }

    /// Demotes a stream this node serves: the name and its series leave
    /// the registry (no new ops route to it), then the owning worker flushes the
    /// stream's WAL and drops its in-memory state, and the replication sink
    /// (if any) [forgets](ReplicationSink::forget) it. Durable files stay on
    /// the backend — a replica applier can take them over, and
    /// [`Server::adopt_stream`] reverses the demotion.
    ///
    /// This is the re-join half of failover: a restarted node that finds
    /// another live primary for a stream it used to serve demotes itself
    /// instead of split-braining the name (see `uns-mesh`).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownStream`] when the name is not served here;
    /// [`ServiceError::Busy`] when its creation is still in flight.
    pub fn demote_stream(&self, name: &str) -> Result<(), ServiceError> {
        let entry = {
            let mut streams = self.router.registry.streams.lock().expect("registry lock poisoned");
            match streams.get(name) {
                Some(entry) if entry.ready.load(Ordering::Acquire) => {
                    let entry = entry.clone();
                    streams.remove(name);
                    // The series leave with the name, under the same lock:
                    // a create of the name registers fresh ones, and the
                    // ops still queued ahead of the Demote bump only the
                    // demoted stream's own handles.
                    self.metrics().remove_stream(name);
                    entry
                }
                Some(_) => return Err(ServiceError::Busy),
                None => return Err(ServiceError::UnknownStream(name.to_string())),
            }
        };
        // The name is unrouteable now; drain the worker's copy. A full
        // queue only delays the drop (jobs already queued for this id
        // still run first), so ride out transient Busy instead of
        // leaking the worker-held state.
        let response = loop {
            match self.router.call(Dispatch::to(entry.clone(), StreamOp::Demote)) {
                Response::Busy => std::thread::sleep(std::time::Duration::from_millis(1)),
                other => break other,
            }
        };
        if let Some(sink) = self.replication_sink.get() {
            sink.forget(name);
        }
        response.into_result().map(|_| ())
    }
}

fn already_installed(hook: &str) -> ServiceError {
    ServiceError::InvalidConfig(format!("a {hook} is already installed; it is set once"))
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        // With no pump thread left holding the router, dropping the job
        // senders disconnects the workers' and the applier's queues: they
        // exit at once instead of at their next idle tick.
        if let Some(router) = Arc::get_mut(&mut self.router) {
            router.senders.clear();
            router.applier = None;
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Readiness wait for an accept loop: blocks in the vendored poller until
/// the listener is ready or [`Server::stop`] wakes it, falling back to the
/// historical 2 ms sleep-poll where the poller is unsupported. The waker
/// registers with the server so `stop()` reaches a loop mid-wait; `Drop`
/// unregisters it.
struct AcceptWaiter {
    poller: Option<(epoll::Poller, Arc<epoll::Waker>)>,
    events: Vec<epoll::Event>,
    wakers: Arc<Mutex<Vec<Arc<epoll::Waker>>>>,
}

impl AcceptWaiter {
    fn new(server: &Server, listener: &TcpListener) -> Self {
        let wakers = Arc::clone(&server.accept_wakers);
        let poller = epoll::Poller::new().ok().and_then(|poller| {
            poller.register(listener, 0, epoll::Interest::READ).ok()?;
            let waker = Arc::new(epoll::Waker::new(&poller, 1).ok()?);
            wakers.lock().expect("accept waker lock poisoned").push(Arc::clone(&waker));
            Some((poller, waker))
        });
        Self { poller, events: Vec::new(), wakers }
    }

    /// Blocks until the listener is plausibly ready. Spurious returns are
    /// fine — the caller retries `accept` and lands back here.
    fn wait(&mut self) {
        match &self.poller {
            Some((poller, waker)) => {
                // The waker is the real stop signal; the timeout is a
                // defensive bound, not a polling cadence.
                let timeout = Some(std::time::Duration::from_secs(5));
                if poller.wait(&mut self.events, timeout).is_ok() {
                    waker.drain();
                }
            }
            None => std::thread::sleep(std::time::Duration::from_millis(2)),
        }
    }
}

impl Drop for AcceptWaiter {
    fn drop(&mut self) {
        if let Some((_, waker)) = &self.poller {
            let mut wakers = self.wakers.lock().expect("accept waker lock poisoned");
            wakers.retain(|registered| !Arc::ptr_eq(registered, waker));
        }
    }
}

/// Per-stream state owned by a worker.
struct StreamState {
    sampler: ServiceSampler,
    /// Present on durable servers: the stream's WAL.
    durable: Option<DurableStream>,
    /// The stream's registered series, which are also its only counters:
    /// reply positions, `Stats` and durable snapshots read them back, and
    /// the owning worker is their one writer.
    metrics: StreamMetrics,
}

impl StreamState {
    /// Applies one logged op to the sampler and the stream's counters: the
    /// one apply path, run by the worker on a live op and by WAL replay on
    /// recovery. A Feed appends its outputs to `outputs` and moves them into
    /// its reply; the other ops leave `outputs` alone.
    fn apply(&mut self, op: WalOpRef<'_>, outputs: &mut Vec<NodeId>) -> Response {
        let series = &self.metrics.pipeline;
        let (ids, admitted) = match op {
            WalOpRef::Ingest(ids) => (ids, self.sampler.ingest_batch(ids)),
            WalOpRef::Feed(ids) => (ids, self.sampler.feed_batch(ids, outputs)),
            WalOpRef::Sample => return Response::Sampled(self.sampler.sample()),
        };
        series.elements.add(ids.len() as u64);
        series.admitted.add(admitted);
        series.batches.inc();
        let position = series.elements.get();
        if let WalOpRef::Ingest(_) = op {
            return Response::Ingested { position, admitted };
        }
        series.outputs.add(ids.len() as u64);
        Response::Fed { position, admitted, outputs: std::mem::take(outputs) }
    }
}

/// Durability side of one stream: its open log.
struct DurableStream {
    /// The stream's registry name (logs and snapshots are keyed by it).
    name: String,
    wal: WalWriter,
    /// The mutating op's record, encoded once: the bytes shipped to the
    /// replicas are the bytes appended here. Reused across ops.
    record: Vec<u8>,
}

/// Rebuilds one stream from its durable state: decode the latest durable
/// snapshot, CRC-truncate the log's torn tail, replay the records the
/// snapshot does not cover (in stream order — the replay contract of
/// [`uns_core::NodeSampler`]), and resume the log at its valid end.
/// Deterministic coins make the replayed state bit-equal to the state the
/// ops originally produced.
///
/// `series` are the stream's counters the rebuilt state resumes: the
/// name's registered series on a restart or promotion, the stream's own
/// handles on an in-place heal (a stream demoted while its queue drains
/// has left the registry, and must not re-register its name there).
///
/// `generation_bump` is 0 on every plain recovery (restart, in-place
/// heal) and 1 on a failover promotion: the rebuilt stream continues as a
/// **new incarnation**, so stale state from the previous one can never be
/// replayed onto it. The replay decision itself still compares the log
/// against the *snapshot's* generation — the log on the backend was
/// written by the old incarnation and is exactly what must be replayed —
/// only the resumed writer (and the trailing checkpoint, which persists
/// the bump: snapshot first, then log reset rewriting the header) carries
/// the new generation. If that best-effort checkpoint fails the bump is
/// not yet durable — a crash then falls back to the old incarnation's
/// consistent snapshot+log, losing the bump but never a record.
fn recover_stream(
    backend: &Arc<dyn StorageBackend>,
    name: &str,
    fsync: FsyncPolicy,
    shards: usize,
    metrics: &ServiceMetrics,
    series: StreamMetrics,
    generation_bump: u64,
) -> Result<StreamState, ServiceError> {
    let blob = backend
        .read_snapshot(name)?
        .ok_or_else(|| ServiceError::Snapshot(format!("stream {name:?}: no durable snapshot")))?;
    let snap = DurableSnapshot::decode(&blob)?;
    let sampler = ServiceSampler::restore(&snap.sampler_blob)?;
    let mut store = backend.open_wal(name)?;
    let bytes = store.read_all()?;
    let parsed = parse_wal(&bytes);
    // The log speaks for this snapshot only when its header decodes, its
    // incarnation generation matches the snapshot's, and it does not claim
    // to start beyond the snapshot's sequence. A missing/torn header is
    // normal crash damage (an interrupted log reset); a generation
    // mismatch or a base ahead of the snapshot is a *different*
    // incarnation's log — left behind by a crash between a create/restore's
    // snapshot commit and its log reset — and replaying it onto the
    // restored sampler would silently corrupt it. In every unusable case
    // the snapshot alone is the truth and the log restarts empty.
    let usable =
        parsed.header.filter(|h| h.generation == snap.generation && h.base_seq <= snap.seq);
    let generation = snap.generation.wrapping_add(generation_bump);
    let mut durability = snap.durability;
    durability.recoveries += 1;
    // Opening the writer is the last step that can fail, so it runs before
    // anything touches the stream's series: a failed attempt leaves them as
    // they were.
    let (mut wal, replay) = match usable {
        Some(header) => {
            let skip = usize::try_from(snap.seq - header.base_seq)
                .unwrap_or(usize::MAX)
                .min(parsed.records.len());
            // Fold the replayed records back into the lifetime counters:
            // they were appended after the snapshot's counters were
            // persisted. The `skip` prefix was already counted at the last
            // checkpoint, so only the bytes from where it ends to the valid
            // end are new.
            let replayed_from = match skip.checked_sub(1) {
                Some(last_skipped) => parsed.record_ends[last_skipped],
                None => WAL_HEADER_LEN as u64,
            };
            durability.wal_records += (parsed.records.len() - skip) as u64;
            durability.wal_bytes += parsed.valid_len.saturating_sub(replayed_from);
            let next_seq = header.base_seq + parsed.records.len() as u64;
            let wal = WalWriter::resume(store, generation, parsed.valid_len, next_seq, fsync)?;
            (wal, &parsed.records[skip..])
        }
        None => (WalWriter::create(store, generation, snap.seq, fsync)?, &[][..]),
    };
    // Resume — not restart — the series from the persisted lifetime totals,
    // then replay through the live apply path, which bumps them.
    series.pipeline.set_to(&PipelineStats {
        elements: snap.elements,
        admitted: snap.admitted,
        outputs: snap.outputs,
        chunks: usize::try_from(snap.chunks).unwrap_or(usize::MAX),
        shards,
    });
    series.sync_durability(&durability);
    wal.set_metrics(series.wal_metrics(metrics));
    let durable = DurableStream { name: name.to_string(), wal, record: Vec::new() };
    let mut state = StreamState { sampler, durable: Some(durable), metrics: series };
    let mut outputs = Vec::new();
    for op in replay {
        if let Response::Fed { outputs: used, .. } = state.apply(op.into(), &mut outputs) {
            outputs = used;
            outputs.clear();
        }
    }
    // Checkpoint the recovered state: replaying the same log tail at the
    // next crash would be wasted work, and the bumped counters (above all
    // `recoveries`) must survive a further crash without waiting for a
    // size-triggered compaction.
    checkpoint(&mut state, backend, false);
    Ok(state)
}

/// How far a failed [`create_durable_stream`] got, which decides what the
/// caller must undo.
#[derive(Debug)]
enum CreateDurableError {
    /// Failed before the new snapshot landed. The backend's atomic
    /// `write_snapshot` contract means the stream's prior durable state
    /// (if any) is untouched — nothing to undo beyond the registry.
    Clean(ServiceError),
    /// The new incarnation's snapshot is committed but its log did not
    /// start. Durable truth has already moved: recovery will (correctly)
    /// land on the new snapshot and discard the old incarnation's log via
    /// the generation check, so the caller must not keep serving the old
    /// in-memory state.
    Committed(ServiceError),
}

/// Makes a freshly created/restored stream durable: write its durable
/// snapshot covering the fresh sampler, then start its log. Runs before
/// the create is acknowledged, so an acknowledged stream always survives a
/// crash.
///
/// The snapshot — atomic per the [`StorageBackend`] contract — is the
/// commit point, and it is stamped with a **generation** strictly above
/// anything the name's prior durable state (snapshot or leftover log)
/// carries. A crash in the window between the snapshot landing and the
/// log reset therefore cannot pair the new snapshot with the old
/// incarnation's records: recovery sees the generation mismatch and
/// discards the stale log.
fn create_durable_stream(
    backend: &Arc<dyn StorageBackend>,
    name: &str,
    sampler: &ServiceSampler,
    fsync: FsyncPolicy,
) -> Result<DurableStream, CreateDurableError> {
    let prior_snap_gen = backend
        .read_snapshot(name)
        .ok()
        .flatten()
        .and_then(|blob| DurableSnapshot::decode(&blob).ok())
        .map_or(0, |snap| snap.generation);
    let prior_wal_gen = backend
        .open_wal(name)
        .and_then(|mut store| store.read_all())
        .ok()
        .and_then(|bytes| parse_wal(&bytes).header)
        .map_or(0, |header| header.generation);
    let generation = prior_snap_gen.max(prior_wal_gen).wrapping_add(1);
    let mut sampler_blob = Vec::new();
    sampler.snapshot(&mut sampler_blob);
    let snap = DurableSnapshot {
        generation,
        seq: 0,
        elements: 0,
        admitted: 0,
        outputs: 0,
        chunks: 0,
        durability: DurabilityStats::default(),
        sampler_blob,
    };
    let mut bytes = Vec::new();
    snap.encode(&mut bytes);
    backend.write_snapshot(name, &bytes).map_err(|e| CreateDurableError::Clean(e.into()))?;
    let store = backend.open_wal(name).map_err(|e| CreateDurableError::Committed(e.into()))?;
    let wal = WalWriter::create(store, generation, 0, fsync)
        .map_err(|e| CreateDurableError::Committed(e.into()))?;
    Ok(DurableStream { name: name.to_string(), wal, record: Vec::new() })
}

/// Compacts the stream's log when it crossed the size threshold: persist a
/// durable snapshot covering everything applied, then restart the log at
/// that sequence. Ordered snapshot-first, so a crash between the two steps
/// only leaves already-covered records in the log (recovery skips them by
/// sequence). Best-effort: a failed snapshot write leaves the log growing
/// (retried at the next threshold crossing); a failed log reset breaks the
/// writer and the next op recovers the stream from the just-written
/// snapshot.
fn maybe_compact(state: &mut StreamState, compact_bytes: u64, backend: &Arc<dyn StorageBackend>) {
    {
        let Some(durable) = state.durable.as_ref() else { return };
        if durable.wal.len() < compact_bytes || durable.wal.is_empty() {
            return;
        }
    }
    checkpoint(state, backend, true);
}

/// The compaction mechanism itself, shared by size-triggered compaction
/// and the post-recovery checkpoint (which does not count as a
/// compaction): persist, then reset the log.
fn checkpoint(state: &mut StreamState, backend: &Arc<dyn StorageBackend>, count_compaction: bool) {
    let Some(durable) = state.durable.as_mut() else { return };
    let mut sampler_blob = Vec::new();
    state.sampler.snapshot(&mut sampler_blob);
    let pipeline = state.metrics.pipeline.totals();
    let mut persisted = state.metrics.durability();
    if count_compaction {
        persisted.snapshot_compactions += 1;
    }
    let snap = DurableSnapshot {
        generation: durable.wal.generation(),
        seq: durable.wal.next_seq(),
        elements: pipeline.elements,
        admitted: pipeline.admitted,
        outputs: pipeline.outputs,
        chunks: pipeline.chunks as u64,
        durability: persisted,
        sampler_blob,
    };
    let mut bytes = Vec::new();
    snap.encode(&mut bytes);
    if backend.write_snapshot(&durable.name, &bytes).is_err() {
        return; // log keeps growing; retried at the next crossing
    }
    let log_bytes_before = durable.wal.len();
    if durable.wal.reset(snap.seq).is_ok() && count_compaction {
        state.metrics.compactions.inc();
        state.metrics.event(
            TraceKind::Compaction,
            log_bytes_before,
            persisted.snapshot_compactions,
        );
    }
    // On reset failure the writer is broken; the next mutating op sends
    // the stream through recovery, which lands on this snapshot.
}

/// One worker thread's state: the streams it owns and everything their ops
/// touch. [`Worker::step`] runs one routed job to its reply, and
/// [`worker_main`] is the receive loop around it.
struct Worker {
    /// The reply path: sends each reply, or holds it for its acks.
    release: Release,
    index: usize,
    /// Worker-pool size: every stream's `shards` series.
    pool_size: usize,
    streams: HashMap<u64, StreamState>,
    pool: Arc<BufferPool>,
    registry: Arc<Registry>,
    durability: Option<DurabilityConfig>,
    metrics: Arc<ServiceMetrics>,
    sink: Hook<dyn ReplicationSink>,
}

/// A worker thread: steps through jobs until shutdown, ticks while idle,
/// and flushes its logs on the way out.
fn worker_main(rx: &Receiver<Job>, shutdown: &AtomicBool, mut worker: Worker) {
    // The shutdown check runs every iteration, not only when the
    // bounded-wait receive times out: a connected client keeping jobs
    // flowing would otherwise starve the timeout arm forever and `Drop`
    // (which joins the workers) would hang under active load.
    while !shutdown.load(Ordering::Relaxed) {
        // Bounded-wait receive: the router (shared by the server and every
        // pump thread) owns the job senders, so the channel does not
        // disconnect while connections are open — the shutdown flag is
        // what makes Drop terminate promptly even with idle connections
        // attached.
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(job) => worker.step(job),
            Err(mpsc::RecvTimeoutError::Timeout) => worker.tick(),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    worker.flush();
}

impl Worker {
    /// Runs one routed job to its reply.
    ///
    /// Panic isolation: a bug in one stream's sampler must cost that job
    /// an error reply, not the worker thread — a dead worker would leave
    /// every stream of this shard permanently unreachable. The sampler is
    /// plain data; a panic can at worst leave the *stream it hit*
    /// mid-mutation, so a panicking *mutating* op drops that stream's
    /// in-memory state. A durable stream then **self-heals**: it is rebuilt
    /// in place from snapshot + log replay (registry entry intact) and the
    /// client is told the outcome is unknown. A non-durable stream — or one
    /// whose recovery fails — is removed from this worker AND from the name
    /// registry, so the name errors as unknown (not wedged behind a ready
    /// entry that can neither answer nor be re-created) and create works
    /// again. Read-only ops (snapshot/stats) cannot corrupt state, so
    /// their stream survives a panic intact.
    fn step(&mut self, job: Job) {
        let started = Instant::now();
        self.metrics.queue_depth[self.index].dec();
        let Job { stream, op, reply, reservation, stats, enqueued } = job;
        self.metrics.queue_wait[self.index]
            .record_duration(started.saturating_duration_since(enqueued));
        let mutates = op_mutates(&op);
        let op_index = op_metric_index(&op);
        let execute = std::panic::AssertUnwindSafe(|| self.execute(stream, op));
        let (response, acks) = std::panic::catch_unwind(execute).unwrap_or_else(|panic| {
            let message = format!("stream operation panicked: {}", panic_message(panic.as_ref()));
            self.metrics.trace_global(TraceKind::WorkerPanic, stream, 0);
            let response = if mutates && self.heal_or_tear_down(stream) {
                Response::Error {
                    code: ErrorCode::Durability,
                    message: format!("{message}; stream recovered, op outcome unknown"),
                }
            } else {
                Response::Error { code: ErrorCode::Other, message }
            };
            (response, None)
        });
        if let Some(op_index) = op_index {
            self.metrics.record_op(op_index, started.elapsed());
        }
        let floor = self.floor_to_publish(stream, &response);
        // A fresh name's reservation settles before anyone hears back:
        // ready on Ok, rolled back otherwise (panics included).
        if let Some(reservation) = reservation {
            reservation.settle(&response);
        }
        // A Stats reply also folds the replication series the worker holds.
        let stats = stats
            .zip(self.streams.get(&stream))
            .map(|(busy, state)| (busy, state.metrics.replication.clone()));
        self.release.reply(stream, Held { reply, response, acks, stats, floor });
    }

    /// The floor a successful write or install publishes as its reply
    /// leaves ([`Held::send`]): the stream's floor right after the op, with
    /// the stream's `uns_stream_floor` gauge to store it in. A write also
    /// feeds it to the floor-trajectory window here (live ops only: WAL
    /// replay publishes no trajectory). A Demote's `Ok` finds no stream
    /// and publishes nothing.
    fn floor_to_publish(&mut self, stream: u64, response: &Response) -> Option<(Arc<Gauge>, u64)> {
        let position = match response {
            Response::Ingested { position, .. } | Response::Fed { position, .. } => Some(*position),
            Response::Ok => None,
            _ => return None,
        };
        let state = self.streams.get_mut(&stream)?;
        let floor = state.sampler.floor_estimate();
        if let Some(position) = position {
            state.metrics.observe_floor(position, floor);
        }
        Some((Arc::clone(&state.metrics.floor), floor))
    }

    /// Idle tick: flushes Timer-policy WALs whose interval has elapsed.
    /// The append path only consults the clock while ops arrive, so
    /// without this a record written just before traffic stops would stay
    /// unsynced indefinitely — the timer policy's loss bound must hold on
    /// idle streams too. A failed sync marks the writer broken; the next op
    /// on that stream heals it through the usual recovery path.
    fn tick(&mut self) {
        for durable in self.streams.values_mut().filter_map(|state| state.durable.as_mut()) {
            if durable.wal.timer_sync_due() {
                let _ = durable.wal.sync();
            }
        }
    }

    /// Drains the durability buffers on the way out: an orderly shutdown
    /// should not cost the EveryN/Timer loss window.
    fn flush(&mut self) {
        for durable in self.streams.values_mut().filter_map(|state| state.durable.as_mut()) {
            let _ = durable.wal.sync();
        }
    }

    /// Runs one routed job against the worker's stream table. Batch
    /// buffers arriving in `op` are recycled into the pool once consumed;
    /// Feed replies take their outputs buffer from the pool (the thread
    /// that encodes the reply returns it). On a durable server, mutating
    /// ops are write-ahead logged before they touch the sampler, and the
    /// log is compacted when it crosses the configured size. Returns the
    /// reply and, on a replicated stream, the replica acks it must wait
    /// for.
    fn execute(&mut self, stream: u64, op: StreamOp) -> (Response, Option<Box<dyn PendingAcks>>) {
        let logged = match &op {
            StreamOp::Ingest(ids) => WalOpRef::Ingest(ids),
            StreamOp::Feed(ids) => WalOpRef::Feed(ids),
            StreamOp::Sample => WalOpRef::Sample,
            _ => return (self.execute_unlogged(stream, op), None),
        };
        let acks = match self.wal_before_apply(stream, logged) {
            Ok(acks) => acks,
            Err(reply) => {
                if let StreamOp::Ingest(ids) | StreamOp::Feed(ids) = op {
                    self.pool.put(ids);
                }
                return (reply, None);
            }
        };
        let state = self.streams.get_mut(&stream).expect("checked by wal_before_apply");
        let mut outputs =
            if matches!(op, StreamOp::Feed(_)) { self.pool.take() } else { Vec::new() };
        let response = state.apply(logged, &mut outputs);
        if let StreamOp::Ingest(ids) | StreamOp::Feed(ids) = op {
            self.pool.put(ids);
        }
        if let Some(d) = &self.durability {
            maybe_compact(state, d.compact_bytes, &d.backend);
        }
        (response, acks)
    }

    /// [`Worker::execute`] for the ops that write no log record: creation,
    /// promotion, demotion and the reads.
    fn execute_unlogged(&mut self, stream: u64, op: StreamOp) -> Response {
        match op {
            StreamOp::Create(name, config) => match ServiceSampler::create(&config) {
                Ok(sampler) => self.install(stream, &name, sampler, "created"),
                Err(err) => error_response(&err),
            },
            StreamOp::Restore(name, blob) => match ServiceSampler::restore(&blob) {
                Ok(sampler) => self.install(stream, &name, sampler, "restored"),
                Err(err) => error_response(&err),
            },
            StreamOp::Adopt(name) => {
                let Some(d) = &self.durability else {
                    return Response::Error {
                        code: ErrorCode::InvalidConfig,
                        message: "promotion requires a durable server".into(),
                    };
                };
                // Rebuild from the replicated durable state with the
                // incarnation generation bumped, so anything the previous
                // incarnation left behind (a stale shipment, an old
                // primary's log) fails the generation check instead of
                // replaying onto the promoted stream.
                let series = self.metrics.stream(&name);
                match recover_stream(
                    &d.backend,
                    &name,
                    d.fsync,
                    self.pool_size,
                    &self.metrics,
                    series,
                    1,
                ) {
                    Ok(state) => {
                        let generation =
                            state.durable.as_ref().map_or(0, |durable| durable.wal.generation());
                        state.metrics.event(TraceKind::Promote, self.index as u64, generation);
                        state.metrics.replication.failovers.inc();
                        self.streams.insert(stream, state);
                        Response::Ok
                    }
                    Err(err) => Response::Error {
                        code: ErrorCode::Durability,
                        message: format!("stream not adopted: {err}"),
                    },
                }
            }
            StreamOp::Demote => match self.streams.remove(&stream) {
                Some(mut state) => {
                    // Flush the WAL so the durable state is complete to the
                    // policy's promise, then drop: the writer closes, the
                    // on-backend files stay for whoever takes the stream
                    // over (a replica applier, or a later re-adoption).
                    if let Some(durable) = state.durable.as_mut() {
                        let _ = durable.wal.sync();
                    }
                    state.metrics.event(TraceKind::Demote, self.index as u64, 0);
                    Response::Ok
                }
                None => unknown_stream(),
            },
            StreamOp::Snapshot => match self.streams.get(&stream) {
                Some(state) => {
                    let mut blob = Vec::new();
                    state.sampler.snapshot(&mut blob);
                    Response::Snapshot(blob)
                }
                None => unknown_stream(),
            },
            StreamOp::Stats => match self.streams.get(&stream) {
                Some(state) => Response::Stats(StreamStats {
                    pipeline: state.metrics.pipeline.totals(),
                    busy_rejections: 0, // folded in as the reply leaves
                    durability: state.metrics.durability(),
                    // Folded in as the reply leaves, from the stream's
                    // registered atomics, like busy_rejections.
                    replication: ReplicationStats::default(),
                }),
                None => unknown_stream(),
            },
            StreamOp::Ingest(_) | StreamOp::Feed(_) | StreamOp::Sample => {
                unreachable!("logged ops run in Worker::execute")
            }
            #[cfg(test)]
            StreamOp::Panic => panic!("test-injected worker panic"),
        }
    }

    /// Appends `op` to the stream's WAL (when durable) **before** it is
    /// applied. `Ok` means the op is durable locally to the policy's
    /// promise and may be applied; it carries the replica acks still
    /// outstanding, which the op's reply must wait out. `Err` carries the
    /// reply to send instead — the op was not applied, and a broken writer
    /// has already sent the stream through in-place recovery (or torn it
    /// down).
    fn wal_before_apply(
        &mut self,
        stream: u64,
        op: WalOpRef<'_>,
    ) -> Result<Option<Box<dyn PendingAcks>>, Response> {
        let Some(state) = self.streams.get_mut(&stream) else {
            return Err(unknown_stream());
        };
        let Some(durable) = state.durable.as_mut() else {
            return Ok(None); // non-durable server: nothing to log
        };
        // Injected worker panic: scheduled *before* the WAL append, so a
        // panicked op is never logged, never applied, never acknowledged.
        if let Some(plan) = self.durability.as_ref().and_then(|d| d.fault_plan.as_ref()) {
            if plan.worker_panics() {
                panic!("injected worker panic");
            }
        }
        // Encode once; ship and append the same bytes. The worker owns the
        // stream exclusively, so the sink sees a frozen WAL — an attach or
        // catch-up it performs inside `ship` cannot race new appends — and
        // the local append runs inside `ship`, after the sends to the
        // replicas (see [`ReplicationSink`]).
        let DurableStream { name, wal, record } = durable;
        record.clear();
        encode_record(record, op);
        let (generation, seq) = (wal.generation(), wal.next_seq());
        let mut appended = None;
        // Idempotent: the first call appends, repeats report its outcome.
        let mut local = || appended.get_or_insert_with(|| wal.append_record(record)).is_ok();
        let acks = self.sink.get().and_then(|sink| {
            sink.ship(name, &state.metrics.replication, generation, seq, record, &mut local)
        });
        // The append itself when no sink is installed (or a sink skipped it).
        local();
        let err = match appended.expect("local append ran") {
            Ok(()) => return Ok(acks),
            Err(err) => err,
        };
        let message = if !wal.is_broken() {
            format!("op not applied ({err}); log repaired in place")
        } else if self.heal_or_tear_down(stream) {
            format!("op not applied ({err}); stream recovered in place")
        } else {
            format!("op not applied ({err}); stream lost: recovery failed")
        };
        Err(Response::Error { code: ErrorCode::Durability, message })
    }

    /// Installs a freshly created/restored sampler under `stream`, making
    /// it durable first on a durable server, and seeds its series. The
    /// failure handling depends on how far durability got
    /// ([`CreateDurableError`]) and on whether the slot was fresh or an
    /// existing stream being replaced (Restore's rewind semantics):
    ///
    /// - **fresh + any failure** — the client is told the create failed,
    ///   so nothing may survive it: best-effort delete whatever durable
    ///   state the attempt left behind (the worker rolls the registry
    ///   reservation back when it settles it). Without the purge, the next
    ///   restart would resurrect a stream that was never acknowledged.
    /// - **replace + `Clean`** — the old incarnation's durable state and
    ///   in-memory stream are both untouched; report the failure and keep
    ///   serving the old stream, its series as they were.
    /// - **replace + `Committed`** — durable truth already moved to the
    ///   new incarnation (its snapshot is the commit point), so the old
    ///   in-memory state must not keep serving. Recover in place: the
    ///   generation check discards the old incarnation's log, so a
    ///   successful heal lands on exactly the state the client asked to
    ///   install — answered `Ok`, honestly. A failed heal loses the stream
    ///   (name freed, durable state purged).
    fn install(
        &mut self,
        stream: u64,
        name: &str,
        sampler: ServiceSampler,
        verb: &str,
    ) -> Response {
        let mut durable = match &self.durability {
            None => None,
            Some(d) => match create_durable_stream(&d.backend, name, &sampler, d.fsync) {
                Ok(durable) => Some(durable),
                Err(err) => {
                    let committed = matches!(err, CreateDurableError::Committed(_));
                    let (CreateDurableError::Clean(err) | CreateDurableError::Committed(err)) = err;
                    let message = format!("stream not {verb}: {err}");
                    let fresh = !self.streams.contains_key(&stream);
                    if fresh {
                        let _ = d.backend.remove_stream(name);
                    }
                    if fresh || !committed {
                        return Response::Error { code: ErrorCode::Durability, message };
                    }
                    if self.heal_or_tear_down(stream) {
                        return Response::Ok;
                    }
                    let message = format!("{message}; stream lost: recovery failed");
                    return Response::Error { code: ErrorCode::Durability, message };
                }
            },
        };
        // Registration (or re-acquisition for a replaced stream) happens
        // here, once — the hot path only bumps the returned handles.
        let metrics = self.metrics.stream(name);
        metrics
            .pipeline
            .set_to(&PipelineStats { shards: self.pool_size, ..PipelineStats::default() });
        metrics.sync_durability(&DurabilityStats::default());
        if let Some(durable) = durable.as_mut() {
            durable.wal.set_metrics(metrics.wal_metrics(&self.metrics));
        }
        let kind =
            if verb == "created" { TraceKind::StreamCreated } else { TraceKind::StreamRestored };
        metrics.event(kind, self.index as u64, 0);
        self.streams.insert(stream, StreamState { sampler, durable, metrics });
        Response::Ok
    }

    /// Rebuilds a durable stream in place after its in-memory state was
    /// lost (worker panic, broken WAL writer) and returns `true`. A stream
    /// that is not durable, or whose recovery keeps failing, is torn down
    /// instead (`false`): its name leaves the registry, so create works
    /// again instead of wedging behind a ready entry that can neither
    /// answer nor be replaced; its series stop exporting; and its durable
    /// state is deleted, so the runtime view ("unknown stream") and the
    /// post-restart view agree. The purge is best-effort by design: if it
    /// fails, the worst case is the stream *resurrecting* at the next
    /// restart from its last consistent snapshot+log — stale, but never
    /// corrupt.
    fn heal_or_tear_down(&mut self, stream: u64) -> bool {
        let mut purge = None;
        if let Some(state) = self.streams.remove(&stream) {
            if let (Some(d), Some(durable)) = (&self.durability, &state.durable) {
                // Recovery itself performs I/O, so it can hit the same
                // transient faults (torn write, failed fsync) that
                // triggered the heal. The durable snapshot + log are intact
                // on the backend, so a bounded retry is the difference
                // between a blip and losing a recoverable stream; only a
                // persistent failure tears the stream down.
                for _ in 0..HEAL_ATTEMPTS {
                    let recovered = recover_stream(
                        &d.backend,
                        &durable.name,
                        d.fsync,
                        self.pool_size,
                        &self.metrics,
                        state.metrics.clone(),
                        0,
                    );
                    if let Ok(recovered) = recovered {
                        let recoveries = recovered.metrics.recoveries.get();
                        recovered.metrics.event(TraceKind::StreamHealed, 0, recoveries);
                        self.streams.insert(stream, recovered);
                        return true;
                    }
                }
                purge = Some(durable.name.clone());
            }
            state.metrics.event(TraceKind::StreamLost, 0, 0);
        }
        let mut removed = None;
        let mut names = self.registry.streams.lock().expect("registry lock poisoned");
        names.retain(|name, entry| {
            if entry.id == stream {
                removed = Some(name.clone());
                false
            } else {
                true
            }
        });
        drop(names);
        // A lost stream must stop exporting: stale series would read as live.
        if let Some(name) = &removed {
            self.metrics.remove_stream(name);
        }
        if let (Some(d), Some(name)) = (&self.durability, purge) {
            let _ = d.backend.remove_stream(&name);
        }
        false
    }
}

/// A worker's reply, held by the release thread until the replica acks
/// of its op are in, or sent by the worker when there are none.
struct Held {
    reply: ReplyTo,
    response: Response,
    acks: Option<Box<dyn PendingAcks>>,
    /// A Stats reply's busy counter ([`Job::stats`]) and its stream's
    /// replication series.
    stats: Option<(Arc<Counter>, ReplicationHandles)>,
    /// A write's or install's post-op floor and the stream's floor gauge
    /// ([`Worker::floor_to_publish`]), stored as the reply leaves.
    floor: Option<(Arc<Gauge>, u64)>,
}

impl Held {
    /// Sends the reply. As it leaves — after any held write on its stream
    /// was acked — a Stats reply folds in its connection-side counters,
    /// and a write or install publishes its floor into the gauge that
    /// routing answers `FloorEstimate` from. So a Floor read reports the
    /// floor as of the stream's last answered write, never a write whose
    /// reply (on a replicated stream: whose acks) is still outstanding.
    ///
    /// The gauge's `Relaxed` store is ordered before anything a client can
    /// see of this reply: it is sequenced before the reply leaves this
    /// thread, and every way the frame reaches the socket (this thread's
    /// own write, the reactor's flush after its completion-queue mutex,
    /// the pump after the reply channel) passes a syscall or a lock. A
    /// client's next request is read by a syscall on the routing thread,
    /// so its Floor load comes after the store. Exact up to `i64::MAX`
    /// (the gauge saturates there), which a floor, bounded by the
    /// stream's length in elements, does not reach in practice.
    fn send(self) {
        if let Some((gauge, floor)) = &self.floor {
            gauge.set_u64(*floor);
        }
        let response = match &self.stats {
            Some((busy, replication)) => fold_stats(self.response, busy, replication),
            None => self.response,
        };
        self.reply.send(response);
    }
}

/// A worker's reply path. A reply goes out from the worker itself unless
/// its op left replica acks outstanding or an earlier reply on the same
/// stream is still held; then it queues for the worker's release thread,
/// which waits out each held reply's acks and sends the replies in queue
/// order. A stream thus keeps its reply order, no read is answered before
/// an earlier write to its stream is acked, and a `Demote` answers only
/// once its stream holds nothing. A `FloorEstimate` skips this queue: it
/// reads the floor as of the stream's last answered write ([`Held::send`]).
/// The thread is spawned when the worker first holds a reply, so a server
/// without a replication sink never starts one, and it is joined on drop,
/// after every held reply went out.
struct Release {
    worker: usize,
    thread: Option<(Sender<Held>, JoinHandle<()>)>,
    /// Replies queued so far; the ticket of the last one.
    queued: u64,
    /// Replies the release thread has sent: bumped with `Release` after
    /// each reply goes out and read with `Acquire`, so a ticket the worker
    /// sees as sent was sent before anything the worker sends next.
    sent: Arc<AtomicU64>,
    /// Per stream, the ticket of its last queued reply: the stream holds
    /// replies while `sent` is below it.
    last_held: HashMap<u64, u64>,
}

impl Release {
    fn new(worker: usize) -> Self {
        let sent = Arc::new(AtomicU64::new(0));
        Self { worker, thread: None, queued: 0, sent, last_held: HashMap::new() }
    }

    fn reply(&mut self, stream: u64, held: Held) {
        let sent = self.sent.load(Ordering::Acquire);
        let behind = if sent == self.queued {
            if !self.last_held.is_empty() {
                self.last_held.clear(); // nothing is held on any stream
            }
            false
        } else {
            self.last_held.get(&stream).is_some_and(|&ticket| ticket > sent)
        };
        if held.acks.is_none() && !behind {
            held.send();
            return;
        }
        let (tx, _) = self.thread.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel::<Held>();
            let sent = Arc::clone(&self.sent);
            let thread = std::thread::Builder::new()
                .name(format!("uns-release-{}", self.worker))
                .spawn(move || {
                    for mut held in rx {
                        if let Some(acks) = held.acks.take() {
                            // A panicking wait costs only the wait: the
                            // reply still goes out, in order.
                            let wait = std::panic::AssertUnwindSafe(|| acks.wait());
                            let _ = std::panic::catch_unwind(wait);
                        }
                        held.send();
                        sent.fetch_add(1, Ordering::Release);
                    }
                })
                .expect("spawning a release thread");
            (tx, thread)
        });
        self.queued += 1;
        self.last_held.insert(stream, self.queued);
        tx.send(held).expect("the release thread outlives its sender");
    }
}

impl Drop for Release {
    fn drop(&mut self) {
        if let Some((tx, thread)) = self.thread.take() {
            drop(tx);
            let _ = thread.join();
        }
    }
}

/// In-place recovery attempts before a durable stream is given up on.
const HEAL_ATTEMPTS: usize = 5;

/// Whether a panicking `op` may have left its stream's state mid-mutation
/// (in which case the stream is torn down rather than trusted).
fn op_mutates(op: &StreamOp) -> bool {
    match op {
        StreamOp::Create(..)
        | StreamOp::Restore(..)
        | StreamOp::Adopt(..)
        | StreamOp::Ingest(_)
        | StreamOp::Feed(_)
        | StreamOp::Sample => true,
        // Demote only removes state; a panic mid-removal leaves nothing
        // worth healing (the registry entry is already gone).
        StreamOp::Demote => false,
        StreamOp::Snapshot | StreamOp::Stats => false,
        #[cfg(test)]
        StreamOp::Panic => true,
    }
}

/// The `uns_op_latency_nanos` label index of `op`; `None` for ops outside
/// the public wire surface (the test-only panic hook).
fn op_metric_index(op: &StreamOp) -> Option<usize> {
    let label = match op {
        StreamOp::Create(..) => "create",
        StreamOp::Restore(..) => "restore",
        // Promotion and demotion are the mesh's traffic, not client ops —
        // no op label.
        StreamOp::Adopt(..) | StreamOp::Demote => return None,
        StreamOp::Ingest(_) => "ingest",
        StreamOp::Feed(_) => "feed",
        StreamOp::Sample => "sample",
        StreamOp::Snapshot => "snapshot",
        StreamOp::Stats => "stats",
        #[cfg(test)]
        StreamOp::Panic => return None,
    };
    crate::metrics::op_label_index(label)
}

/// Best-effort human-readable payload of a caught panic.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The replica applier's loop: applies shipments in arrival order (so one
/// stream's shipments stay in order) and never ships, so it always drains
/// — see the module docs. Exits like a worker: on disconnect, or at the
/// shutdown flag.
fn applier_main(
    rx: &Receiver<(Shipment, ReplyTo, Instant)>,
    shutdown: &AtomicBool,
    handler: &Hook<dyn ReplicaHandler>,
    metrics: &ServiceMetrics,
) {
    while !shutdown.load(Ordering::Relaxed) {
        let (shipment, reply, enqueued) = match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(queued) => queued,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        let handler = handler.get().expect("routing queues shipments only once a handler is set");
        let started = Instant::now();
        metrics.applier_queue_wait.record_duration(started.saturating_duration_since(enqueued));
        // A panicking handler costs this shipment an error reply, not the
        // applier: the replicator treats it like any failed shipment.
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler.apply(
                &shipment.name,
                shipment.generation,
                shipment.first_seq,
                shipment.snapshot.as_deref(),
                &shipment.records,
            )
        }))
        .unwrap_or_else(|panic| Response::Error {
            code: ErrorCode::Other,
            message: format!("replica apply panicked: {}", panic_message(panic.as_ref())),
        });
        metrics.replica_apply.record_duration(started.elapsed());
        reply.send(response);
    }
}

fn unknown_stream() -> Response {
    Response::Error {
        code: ErrorCode::UnknownStream,
        message: "stream was dropped while the request was queued".into(),
    }
}

fn error_response(err: &ServiceError) -> Response {
    let code = match err {
        ServiceError::UnknownStream(_) => ErrorCode::UnknownStream,
        ServiceError::StreamExists(_) => ErrorCode::StreamExists,
        ServiceError::InvalidConfig(_) => ErrorCode::InvalidConfig,
        ServiceError::Snapshot(_) => ErrorCode::BadSnapshot,
        _ => ErrorCode::Other,
    };
    Response::Error { code, message: err.to_string() }
}

/// One routed request: answered on the spot, or a worker job.
pub(crate) enum Routed {
    /// Answer immediately — no worker involved.
    Immediate(Response),
    /// Hand to a worker; the reply comes back through the [`ReplyTo`]
    /// the driver passes to [`Router::submit`].
    Dispatch(Dispatch),
}

/// A request to enqueue: a stream op for its owning worker, or a shipment
/// for the replica applier.
pub(crate) enum Dispatch {
    /// `op` on the stream behind `entry`, the stream's routing entry: it
    /// names the owning worker, a Busy bounce counts against it, and a
    /// Stats reply folds its counters ([`Job::stats`]).
    Stream { op: StreamOp, entry: StreamEntry, reservation: Option<Reservation> },
    /// A shipment, which targets no registered stream.
    Shipment(Shipment),
}

impl Dispatch {
    /// `op` on the stream behind `entry`.
    fn to(entry: StreamEntry, op: StreamOp) -> Self {
        Self::Stream { op, entry, reservation: None }
    }
}

/// Folds the stream's busy rejections and replication series into a
/// worker's Stats reply — the wire Stats and the exposition read the same
/// registered atomics.
fn fold_stats(response: Response, busy: &Counter, replication: &ReplicationHandles) -> Response {
    match response {
        Response::Stats(mut stats) => {
            stats.busy_rejections = busy.get();
            stats.replication = ReplicationStats {
                lag_records: u64::try_from(replication.lag.get()).unwrap_or(0),
                shipped_bytes: replication.shipped_bytes.get(),
                failovers: replication.failovers.get(),
            };
            Response::Stats(stats)
        }
        other => other,
    }
}

impl Router {
    /// Resolves one decoded request: immediate answers are produced here
    /// (metrics, floor estimates, validation, NotPrimary bounces,
    /// unknown/pending streams);
    /// worker-bound ops come back with their route resolved and their
    /// payload copied off the frame (batches into pooled buffers).
    pub(crate) fn route(&self, request: &Request<'_>) -> Routed {
        // Metrics targets no stream and reads only atomics — answered right
        // here, before the name validation below (its stream name is empty
        // by design), never enqueued to a worker.
        if let Request::Metrics = request {
            return Routed::Immediate(Response::Metrics(self.metrics.render()));
        }
        let name = request.stream_name();
        if name.is_empty() || name.len() > MAX_STREAM_NAME_LEN {
            return Routed::Immediate(Response::Error {
                code: ErrorCode::InvalidConfig,
                message: format!("stream name must be 1..={MAX_STREAM_NAME_LEN} bytes"),
            });
        }
        // Shipments go to the replica handler, never to a registered
        // stream: replica streams live outside the registry (they must not
        // serve reads mid-catch-up), and the handler owns their WALs.
        if let Request::Replicate { generation, first_seq, snapshot, records, .. } = request {
            if self.replica_handler.get().is_none() {
                return Routed::Immediate(Response::Error {
                    code: ErrorCode::Other,
                    message: "node accepts no replication shipments".into(),
                });
            }
            // A served name is never held, so the handler never opens
            // the log its worker writes: a shipment for it (a peer that
            // promoted the stream while this node kept serving it) is
            // refused here.
            if self.registry.streams.lock().expect("registry lock poisoned").contains_key(name) {
                return Routed::Immediate(Response::Error {
                    code: ErrorCode::NotPrimary,
                    message: format!("stream {name:?} is served as primary on this node"),
                });
            }
            return Routed::Dispatch(Dispatch::Shipment(Shipment {
                name: name.to_string(),
                generation: *generation,
                first_seq: *first_seq,
                snapshot: snapshot.map(<[u8]>::to_vec),
                records: records.to_vec(),
            }));
        }
        // A create or restore of a replica-held name would put a second
        // primary on the wire.
        if matches!(request, Request::CreateStream { .. } | Request::Restore { .. }) {
            if let Some(bounce) = self.held_here(name) {
                return Routed::Immediate(bounce);
            }
        }
        // Batches are capped below the frame limit so the echoed Fed reply
        // provably fits a frame too (see [`MAX_BATCH_IDS`]).
        if let Request::Ingest { ids, .. } | Request::FeedBatch { ids, .. } = request {
            if ids.len() > MAX_BATCH_IDS {
                return Routed::Immediate(Response::Error {
                    code: ErrorCode::InvalidConfig,
                    message: format!(
                        "batch of {} identifiers exceeds the {MAX_BATCH_IDS}-identifier cap",
                        ids.len()
                    ),
                });
            }
        }
        let op = match request {
            Request::Metrics | Request::Replicate { .. } => unreachable!("answered above"),
            Request::CreateStream { config, .. } => {
                return self.reserve(name, false, || StreamOp::Create(name.to_string(), *config))
            }
            Request::Restore { snapshot, .. } => {
                return self
                    .reserve(name, true, || StreamOp::Restore(name.to_string(), snapshot.to_vec()))
            }
            // Batch ops: resolve the route BEFORE copying the ids off the
            // frame, so unknown/pending streams cost no copy. The batch
            // buffer comes from the pool — the owning worker returns it
            // once the batch is fed (a Busy bounce recycles it).
            Request::Ingest { ids, .. } | Request::FeedBatch { ids, .. } => {
                let entry = match self.lookup_ready(name) {
                    Ok(entry) => entry,
                    Err(response) => return Routed::Immediate(response),
                };
                let mut batch = self.pool.take();
                ids.copy_into(&mut batch);
                let op = match request {
                    Request::Ingest { .. } => StreamOp::Ingest(batch),
                    _ => StreamOp::Feed(batch),
                };
                return Routed::Dispatch(Dispatch::to(entry, op));
            }
            Request::Sample { .. } => StreamOp::Sample,
            // The floor as of the stream's last answered write: one atomic
            // load, so it never queues behind a worker's batch.
            Request::FloorEstimate { .. } => {
                return Routed::Immediate(match self.lookup_ready(name) {
                    Ok(entry) => Response::Value(u64::try_from(entry.floor.get()).unwrap_or(0)),
                    Err(response) => response,
                })
            }
            Request::Snapshot { .. } => StreamOp::Snapshot,
            Request::Stats { .. } => StreamOp::Stats,
        };
        match self.lookup_ready(name) {
            Ok(entry) => Routed::Dispatch(Dispatch::to(entry, op)),
            Err(response) => Routed::Immediate(response),
        }
    }

    /// Phase 1 of create/restore/adopt: under the registry lock, resolve
    /// the existing entry (`replace`) or reserve a pending one. The job
    /// itself runs unlocked on the owning worker, which settles the
    /// [`Reservation`] before replying; concurrent requests on the name
    /// bounce with Busy meanwhile.
    pub(crate) fn reserve(
        &self,
        name: &str,
        replace: bool,
        make_op: impl FnOnce() -> StreamOp,
    ) -> Routed {
        let (entry, fresh) = {
            let mut streams = self.registry.streams.lock().expect("registry lock poisoned");
            match streams.get(name) {
                Some(entry) if !entry.ready.load(Ordering::Acquire) => {
                    return Routed::Immediate(Response::Busy)
                }
                Some(entry) if replace => (entry.clone(), false),
                Some(_) => {
                    return Routed::Immediate(Response::Error {
                        code: ErrorCode::StreamExists,
                        message: format!("stream {name:?} already exists"),
                    })
                }
                None => {
                    let next = self.registry.next_worker.fetch_add(1, Ordering::Relaxed);
                    let entry = StreamEntry {
                        worker: (next as usize) % self.senders.len(),
                        id: self.registry.next_id.fetch_add(1, Ordering::Relaxed),
                        busy: self.metrics.stream_busy(name),
                        floor: self.metrics.stream_floor(name),
                        ready: Arc::new(AtomicBool::new(false)),
                    };
                    streams.insert(name.to_string(), entry.clone());
                    (entry, true)
                }
            }
        };
        let reservation = fresh.then(|| Reservation {
            registry: Arc::clone(&self.registry),
            metrics: Arc::clone(&self.metrics),
            name: name.to_string(),
            entry: entry.clone(),
        });
        Routed::Dispatch(Dispatch::Stream { op: make_op(), entry, reservation })
    }

    /// Looks a stream up for a non-create operation: entries still being
    /// created bounce with Busy, unknown names error ([`Router::held_here`]).
    fn lookup_ready(&self, name: &str) -> Result<StreamEntry, Response> {
        let entry =
            self.registry.streams.lock().expect("registry lock poisoned").get(name).cloned();
        match entry {
            Some(entry) if entry.ready.load(Ordering::Acquire) => Ok(entry),
            Some(_) => Err(Response::Busy),
            None => Err(self.held_here(name).unwrap_or_else(|| Response::Error {
                code: ErrorCode::UnknownStream,
                message: format!("unknown stream {name:?}"),
            })),
        }
    }

    /// NotPrimary for a name this node holds as a replica, which the
    /// registry never serves: clients fail over without a resync, where
    /// UnknownStream would send them re-creating a stream alive elsewhere.
    fn held_here(&self, name: &str) -> Option<Response> {
        self.replica_handler.get()?.holds(name).then(|| Response::Error {
            code: ErrorCode::NotPrimary,
            message: format!("stream {name:?} is held as a replica on this node"),
        })
    }

    /// Non-blocking enqueue on the owning worker (a shipment: on the
    /// replica applier). `Some(response)` is an immediate bounce (full
    /// queue → Busy, the backpressure contract; shutdown), `None` means
    /// the job is queued and `reply` will be answered. A bounced job's
    /// batch buffer recycles into the pool and its reservation, if any,
    /// rolls back.
    pub(crate) fn submit(&self, dispatch: Dispatch, reply: ReplyTo) -> Option<Response> {
        let (op, entry, reservation) = match dispatch {
            Dispatch::Stream { op, entry, reservation } => (op, entry, reservation),
            Dispatch::Shipment(shipment) => {
                // Unbounded by design (see the module docs).
                let queued = (shipment, reply, Instant::now());
                let sent = self.applier.as_ref().is_some_and(|tx| tx.send(queued).is_ok());
                return (!sent).then(shutting_down);
            }
        };
        let stats = matches!(op, StreamOp::Stats).then(|| Arc::clone(&entry.busy));
        let job = Job { stream: entry.id, op, reply, reservation, stats, enqueued: Instant::now() };
        let worker = entry.worker;
        let (job, response) = match self.senders[worker].try_send(job) {
            Ok(()) => {
                // Incremented after the send (the worker decrements on
                // receive), so the depth gauge may transiently read -1 —
                // approximate by design, never drifting.
                self.metrics.queue_depth[worker].inc();
                return None;
            }
            Err(TrySendError::Full(job)) => {
                entry.busy.inc();
                (job, Response::Busy)
            }
            Err(TrySendError::Disconnected(job)) => (job, shutting_down()),
        };
        if let StreamOp::Ingest(ids) | StreamOp::Feed(ids) = job.op {
            self.pool.put(ids);
        }
        Some(response)
    }

    /// [`Router::submit`], then a blocking wait for the reply. The reply
    /// channel is created per request and its **only** sender moves into
    /// the job: a job dropped unanswered (worker exit at shutdown) drops
    /// the sender with it, so the wait can never be stranded.
    pub(crate) fn call(&self, dispatch: Dispatch) -> Response {
        let (reply_tx, reply_rx) = mpsc::sync_channel::<Response>(1);
        self.submit(dispatch, ReplyTo::Channel(reply_tx))
            .unwrap_or_else(|| reply_rx.recv().unwrap_or_else(|_| shutting_down()))
    }
}

fn shutting_down() -> Response {
    Response::Error { code: ErrorCode::Other, message: "server shutting down".into() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceClient;
    use crate::protocol::EstimatorKind;
    use uns_sketch::HashFamilyKind;

    fn test_config() -> StreamConfig {
        StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 8,
            width: 10,
            depth: 5,
            seed: 42,
            family: HashFamilyKind::Mersenne,
        }
    }

    #[test]
    fn create_feed_sample_floor_stats_over_in_process_transport() {
        let server = Server::start(ServerConfig { workers: 2, queue_depth: 8 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("s", &test_config()).unwrap();
        let ids: Vec<NodeId> = (0..500u64).map(|i| NodeId::new(i % 40)).collect();
        let fed = client.feed_batch("s", &ids).unwrap();
        assert_eq!(fed.outputs.len(), 500);
        assert_eq!(fed.position, 500);
        assert!(fed.admitted >= 8);
        let ack = client.ingest("s", &ids).unwrap();
        assert_eq!(ack.position, 1000);
        assert!(client.sample("s").unwrap().is_some());
        assert!(client.floor_estimate("s").unwrap() > 0);
        let stats = client.stats("s").unwrap();
        assert_eq!(stats.pipeline.elements, 1000);
        assert_eq!(stats.pipeline.outputs, 500);
        assert_eq!(stats.pipeline.chunks, 2);
        assert_eq!(stats.pipeline.shards, 2);
        assert_eq!(stats.busy_rejections, 0);
    }

    #[test]
    fn duplicate_create_and_unknown_stream_are_rejected() {
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("dup", &test_config()).unwrap();
        assert!(matches!(
            client.create_stream("dup", &test_config()),
            Err(ServiceError::StreamExists(_))
        ));
        assert!(matches!(client.sample("nope"), Err(ServiceError::UnknownStream(_))));
        assert!(matches!(
            client.create_stream("", &test_config()),
            Err(ServiceError::InvalidConfig(_))
        ));
        let mut bad = test_config();
        bad.capacity = 0;
        assert!(matches!(client.create_stream("zero2", &bad), Err(ServiceError::InvalidConfig(_))));
        // A failed create leaves the name free.
        assert!(client.create_stream("zero2", &test_config()).is_ok());
    }

    #[test]
    fn service_feed_matches_in_process_feed_bit_for_bit() {
        let server = Server::start(ServerConfig::default());
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        let config = test_config();
        client.create_stream("exact", &config).unwrap();
        let ids: Vec<NodeId> = (0..3_000u64).map(|i| NodeId::new(i * 13 % 100)).collect();
        let mut service_outputs = Vec::new();
        for batch in ids.chunks(257) {
            service_outputs.extend(client.feed_batch("exact", batch).unwrap().outputs);
        }
        let mut reference = ServiceSampler::create(&config).unwrap();
        let mut expected = Vec::new();
        reference.feed_batch(&ids, &mut expected);
        assert_eq!(service_outputs, expected);
        // Snapshot over the wire equals the reference's snapshot bytes.
        let mut reference_blob = Vec::new();
        reference.snapshot(&mut reference_blob);
        assert_eq!(client.snapshot("exact").unwrap(), reference_blob);
    }

    #[test]
    fn snapshot_restore_round_trips_over_the_wire() {
        let server = Server::start(ServerConfig::default());
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("a", &test_config()).unwrap();
        let ids: Vec<NodeId> = (0..2_000u64).map(|i| NodeId::new(i * 7 % 80)).collect();
        client.feed_batch("a", &ids).unwrap();
        let blob = client.snapshot("a").unwrap();
        // Restore under a new name: both streams now evolve identically.
        client.restore("b", &blob).unwrap();
        let tail: Vec<NodeId> = (0..500u64).map(|i| NodeId::new(i * 3 % 80)).collect();
        let out_a = client.feed_batch("a", &tail).unwrap().outputs;
        let out_b = client.feed_batch("b", &tail).unwrap().outputs;
        assert_eq!(out_a, out_b);
        // Restore also replaces an existing stream (rewind semantics).
        client.restore("a", &blob).unwrap();
        let rewound = client.feed_batch("a", &tail).unwrap();
        assert_eq!(rewound.outputs, out_a);
        assert_eq!(rewound.position, tail.len() as u64, "stats reset on restore");
        // Garbage blobs are rejected without creating the stream.
        assert!(matches!(client.restore("c", b"garbage"), Err(ServiceError::Snapshot(_))));
        assert!(matches!(client.sample("c"), Err(ServiceError::UnknownStream(_))));
    }

    #[test]
    fn full_queue_returns_busy_not_buffering() {
        // One worker, queue depth 1, several connections hammering it:
        // whenever one request occupies the worker and another the single
        // queue slot, every further arrival must bounce with Busy — the
        // no-unbounded-buffering contract. Clients absorb the Busy replies
        // by retrying; the server-side counter records that they happened.
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 1 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("s", &test_config()).unwrap();
        let batch: Vec<NodeId> = (0..20_000u64).map(NodeId::new).collect();
        let busy_replies: u64 = std::thread::scope(|scope| {
            let hammers: Vec<_> = (0..4)
                .map(|_| {
                    let mut hammer = ServiceClient::new(server.connect_in_process()).unwrap();
                    let batch = &batch;
                    scope.spawn(move || {
                        let (mut sent, mut busy) = (0u32, 0u64);
                        while sent < 30 {
                            match hammer.ingest("s", batch) {
                                Ok(_) => sent += 1,
                                Err(ServiceError::Busy) => busy += 1, // retry: backpressure, not loss
                                Err(err) => panic!("unexpected error: {err}"),
                            }
                        }
                        busy
                    })
                })
                .collect();
            hammers.into_iter().map(|hammer| hammer.join().unwrap()).sum()
        });
        let stats = client.stats("s").unwrap();
        assert_eq!(stats.pipeline.elements, 4 * 30 * 20_000, "every retried batch landed once");
        assert!(busy_replies >= 1, "4 connections against a depth-1 queue never saw Busy");
        // A bounce applies nothing and every one is counted: each Busy the
        // clients saw is one queue-full rejection on the stream's counter.
        assert_eq!(stats.busy_rejections, busy_replies);
    }

    #[test]
    fn drop_under_active_load_does_not_hang() {
        // A client keeping requests flowing used to starve the workers'
        // shutdown check (it only ran when the queue went quiet for 25ms),
        // so Drop — which joins the workers — would block forever.
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 4 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("s", &test_config()).unwrap();
        let mut hammer = ServiceClient::new(server.connect_in_process()).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let ids: Vec<NodeId> = (0..512u64).map(NodeId::new).collect();
                loop {
                    match hammer.ingest("s", &ids) {
                        Ok(_) | Err(ServiceError::Busy) => {} // keep the pressure up
                        Err(_) => return,                     // shutdown reached this connection
                    }
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(server); // must terminate despite requests still flowing
        });
    }

    #[test]
    fn worker_survives_a_panicking_job_and_the_stream_name_is_freed() {
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("victim", &test_config()).unwrap();
        client.create_stream("bystander", &test_config()).unwrap();
        let ids: Vec<NodeId> = (0..100u64).map(NodeId::new).collect();
        client.feed_batch("victim", &ids).unwrap();
        client.feed_batch("bystander", &ids).unwrap();
        // Inject a job that panics inside the worker, addressed at the
        // victim stream (a mutating op, so isolation tears it down).
        let (worker, id) = {
            let streams = server.router.registry.streams.lock().unwrap();
            let entry = streams.get("victim").unwrap();
            (entry.worker, entry.id)
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            stream: id,
            op: StreamOp::Panic,
            reply: ReplyTo::Channel(reply_tx),
            reservation: None,
            stats: None,
            enqueued: Instant::now(),
        };
        server.router.senders[worker].send(job).unwrap();
        match reply_rx.recv().unwrap() {
            Response::Error { code: ErrorCode::Other, message } => {
                assert!(message.contains("panicked"), "unexpected message: {message}");
            }
            other => panic!("expected a panic error reply, got {other:?}"),
        }
        // The victim's possibly-corrupt state is gone — and so is its
        // registry entry, so the name errors as unknown (not Busy, not a
        // hang) and can be created afresh.
        assert!(matches!(client.sample("victim"), Err(ServiceError::UnknownStream(_))));
        client.create_stream("victim", &test_config()).unwrap();
        // The worker thread and its other streams survived untouched.
        assert!(client.sample("bystander").unwrap().is_some());
        assert_eq!(client.stats("bystander").unwrap().pipeline.elements, 100);
    }

    #[test]
    fn drop_with_idle_connection_does_not_hang() {
        let server = Server::start(ServerConfig { workers: 2, queue_depth: 4 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("s", &test_config()).unwrap();
        // The connection stays open and idle across the drop: workers must
        // still terminate (shutdown flag), or this test never finishes.
        drop(server);
        // The surviving client gets shutdown errors, not hangs.
        assert!(client.sample("s").is_err());
    }

    #[test]
    fn durable_server_recovers_streams_bit_equal_after_a_crash() {
        let backend = crate::storage::MemBackend::new();
        let durability = DurabilityConfig::new(Arc::new(backend.clone()));
        let config = ServerConfig { workers: 2, queue_depth: 8 };
        let ids: Vec<NodeId> = (0..1_000u64).map(|i| NodeId::new(i % 37)).collect();
        let tail: Vec<NodeId> = (0..400u64).map(|i| NodeId::new(i * 11 % 53)).collect();
        {
            let server = Server::start_durable(config, durability.clone()).unwrap();
            let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
            client.create_stream("s", &test_config()).unwrap();
            client.feed_batch("s", &ids).unwrap();
            // No orderly shutdown sync matters here: fsync-per-op already
            // made every acknowledged op durable.
        }
        backend.crash(); // unsynced bytes (none at PerOp) vanish
        let server = Server::start_durable(config, durability).unwrap();
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        let stats = client.stats("s").unwrap();
        assert_eq!(stats.pipeline.elements, 1_000, "replay restored the reply position");
        assert_eq!(stats.durability.recoveries, 1);
        assert!(stats.durability.wal_records >= 1);
        // The recovered stream's future is bit-equal to an uninterrupted
        // in-process run over the same stream prefix.
        let out = client.feed_batch("s", &tail).unwrap();
        let mut reference = ServiceSampler::create(&test_config()).unwrap();
        let mut scratch = Vec::new();
        reference.feed_batch(&ids, &mut scratch);
        let mut expected = Vec::new();
        reference.feed_batch(&tail, &mut expected);
        assert_eq!(out.outputs, expected);
        assert_eq!(out.position, 1_400);
    }

    #[test]
    fn durable_stream_compacts_and_stays_exact() {
        let backend = crate::storage::MemBackend::new();
        let mut durability = DurabilityConfig::new(Arc::new(backend.clone()));
        durability.compact_bytes = 512; // force frequent compaction
        let config = ServerConfig { workers: 1, queue_depth: 8 };
        let server = Server::start_durable(config, durability.clone()).unwrap();
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("s", &test_config()).unwrap();
        let ids: Vec<NodeId> = (0..64u64).map(NodeId::new).collect();
        for _ in 0..40 {
            client.feed_batch("s", &ids).unwrap();
        }
        let stats = client.stats("s").unwrap();
        assert!(stats.durability.snapshot_compactions >= 1, "compaction never fired");
        assert!(
            backend.wal_len("s") < 40 * 64 * 8,
            "log was never truncated: {} bytes",
            backend.wal_len("s")
        );
        // Recovery from the compacted state is still exact.
        drop(server);
        backend.crash();
        let server = Server::start_durable(config, durability).unwrap();
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        assert_eq!(client.stats("s").unwrap().pipeline.elements, 40 * 64);
        let mut reference = ServiceSampler::create(&test_config()).unwrap();
        let mut scratch = Vec::new();
        for _ in 0..40 {
            scratch.clear();
            reference.feed_batch(&ids, &mut scratch);
        }
        let mut expected = Vec::new();
        reference.feed_batch(&ids, &mut expected);
        assert_eq!(client.feed_batch("s", &ids).unwrap().outputs, expected);
    }

    #[test]
    fn stale_wal_from_a_previous_incarnation_is_discarded_on_recovery() {
        // The crash window the generation stamp closes: a restore over an
        // existing durable stream commits its new snapshot (the commit
        // point) and crashes before the log reset, leaving the new
        // snapshot paired with the OLD incarnation's records. Recovery
        // must trust the snapshot and discard the stale log, not replay
        // stale ops onto the restored sampler.
        let backend = crate::storage::MemBackend::new();
        let durability = DurabilityConfig::new(Arc::new(backend.clone()));
        let config = ServerConfig { workers: 1, queue_depth: 8 };
        let ids: Vec<NodeId> = (0..300u64).map(|i| NodeId::new(i % 29)).collect();
        {
            let server = Server::start_durable(config, durability.clone()).unwrap();
            let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
            client.create_stream("s", &test_config()).unwrap();
            client.feed_batch("s", &ids).unwrap(); // the old incarnation's records
        }
        // Fabricate the torn restore: a fresh-sampler snapshot stamped
        // with the next generation lands (write_snapshot is atomic), the
        // log reset never happens.
        let fresh = ServiceSampler::create(&test_config()).unwrap();
        let mut sampler_blob = Vec::new();
        fresh.snapshot(&mut sampler_blob);
        let snap = DurableSnapshot {
            generation: 2, // the create above stamped generation 1
            seq: 0,
            elements: 0,
            admitted: 0,
            outputs: 0,
            chunks: 0,
            durability: DurabilityStats::default(),
            sampler_blob,
        };
        let mut bytes = Vec::new();
        snap.encode(&mut bytes);
        backend.write_snapshot("s", &bytes).unwrap();
        backend.crash();
        let server = Server::start_durable(config, durability).unwrap();
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        let stats = client.stats("s").unwrap();
        assert_eq!(stats.pipeline.elements, 0, "stale log replayed into the restored stream");
        assert_eq!(stats.durability.wal_records, 0, "stale records joined the lifetime count");
        assert_eq!(stats.durability.recoveries, 1);
        // The stream's future is bit-equal to the fresh sampler the
        // snapshot holds — untouched by the 300 stale elements.
        let out = client.feed_batch("s", &ids).unwrap();
        let mut reference = ServiceSampler::create(&test_config()).unwrap();
        let mut expected = Vec::new();
        reference.feed_batch(&ids, &mut expected);
        assert_eq!(out.outputs, expected);
        assert_eq!(out.position, 300);
    }

    #[test]
    fn failed_durable_create_leaves_no_orphan_stream() {
        // Every fsync fails: the create's snapshot lands (snapshot writes
        // are not on the log fault path) but starting the WAL fails, so
        // the client is told the create failed. Nothing may survive an
        // unacknowledged create — not the registry name, not the
        // on-backend snapshot a later restart would resurrect.
        let backend = crate::storage::MemBackend::new();
        let mut faulty = DurabilityConfig::new(Arc::new(backend.clone()));
        faulty.fault_plan = Some(FaultPlan::new(
            7,
            crate::fault::FaultSpec { sync_fail_per_mille: 1000, ..Default::default() },
        ));
        let config = ServerConfig { workers: 1, queue_depth: 8 };
        {
            let server = Server::start_durable(config, faulty).unwrap();
            let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
            assert!(matches!(
                client.create_stream("phantom", &test_config()),
                Err(ServiceError::Durability(_))
            ));
            assert!(matches!(client.sample("phantom"), Err(ServiceError::UnknownStream(_))));
            assert_eq!(backend.list_streams().unwrap(), Vec::<String>::new());
        }
        // A restart finds no durable state to resurrect, and the name is
        // free for a real create on a healthy backend.
        let server =
            Server::start_durable(config, DurabilityConfig::new(Arc::new(backend.clone())))
                .unwrap();
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        assert!(matches!(client.sample("phantom"), Err(ServiceError::UnknownStream(_))));
        client.create_stream("phantom", &test_config()).unwrap();
    }

    #[test]
    fn a_lost_stream_is_purged_and_stays_gone_after_restart() {
        let backend = crate::storage::MemBackend::new();
        let durability = DurabilityConfig::new(Arc::new(backend.clone()));
        let config = ServerConfig { workers: 1, queue_depth: 8 };
        let server = Server::start_durable(config, durability.clone()).unwrap();
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("doomed", &test_config()).unwrap();
        let ids: Vec<NodeId> = (0..100u64).map(NodeId::new).collect();
        client.feed_batch("doomed", &ids).unwrap();
        // Corrupt the durable snapshot so the post-panic heal cannot
        // succeed, then panic the worker mid-op: the stream is lost.
        backend.write_snapshot("doomed", b"garbage").unwrap();
        let (worker, id) = {
            let streams = server.router.registry.streams.lock().unwrap();
            let entry = streams.get("doomed").unwrap();
            (entry.worker, entry.id)
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            stream: id,
            op: StreamOp::Panic,
            reply: ReplyTo::Channel(reply_tx),
            reservation: None,
            stats: None,
            enqueued: Instant::now(),
        };
        server.router.senders[worker].send(job).unwrap();
        assert!(matches!(reply_rx.recv().unwrap(), Response::Error { code: ErrorCode::Other, .. }));
        // Runtime view: unknown. The teardown purged the backend too, so
        // the durable view agrees and a restart does not resurrect the
        // stream the running server reported lost.
        assert!(matches!(client.sample("doomed"), Err(ServiceError::UnknownStream(_))));
        assert_eq!(backend.list_streams().unwrap(), Vec::<String>::new());
        drop(server);
        let server = Server::start_durable(config, durability).unwrap();
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        assert!(matches!(client.sample("doomed"), Err(ServiceError::UnknownStream(_))));
    }

    #[test]
    fn recovery_counts_only_replayed_wal_bytes() {
        // Three equal-size records in the log, a snapshot covering the
        // first two: recovery replays only the third, and wal_bytes must
        // grow by exactly that record — the skipped prefix was already
        // folded into the persisted counters at the last checkpoint.
        let backend: Arc<dyn StorageBackend> = Arc::new(crate::storage::MemBackend::new());
        let ids: Vec<NodeId> = (0..8u64).map(NodeId::new).collect();
        let mut wal =
            WalWriter::create(backend.open_wal("s").unwrap(), 1, 0, FsyncPolicy::PerOp).unwrap();
        for _ in 0..3 {
            wal.append_op(WalOpRef::Ingest(&ids)).unwrap();
        }
        let record = (wal.len() - WAL_HEADER_LEN as u64) / 3;
        drop(wal);
        let sampler = ServiceSampler::create(&test_config()).unwrap();
        let mut sampler_blob = Vec::new();
        sampler.snapshot(&mut sampler_blob);
        let snap = DurableSnapshot {
            generation: 1,
            seq: 2,
            elements: 16,
            admitted: 0,
            outputs: 0,
            chunks: 2,
            durability: DurabilityStats {
                wal_bytes: 2 * record,
                wal_records: 2,
                snapshot_compactions: 0,
                recoveries: 0,
            },
            sampler_blob,
        };
        let mut bytes = Vec::new();
        snap.encode(&mut bytes);
        backend.write_snapshot("s", &bytes).unwrap();
        let metrics = ServiceMetrics::new(1);
        let series = metrics.stream("s");
        let state =
            recover_stream(&backend, "s", FsyncPolicy::PerOp, 1, &metrics, series, 0).unwrap();
        let series = &state.metrics;
        assert_eq!(series.recoveries.get(), 1);
        assert_eq!(series.wal_records.get(), 3, "the replayed record joins the lifetime count");
        assert_eq!(series.wal_bytes.get(), 3 * record, "skipped records were double-counted");
    }

    #[test]
    fn pump_fallback_accepts_tcp_connections() {
        // The accept loop `serve_reactor` falls back to where the poller
        // is unsupported, exercised directly.
        let server = Server::start(ServerConfig { workers: 2, queue_depth: 16 });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve_pumps(listener).unwrap());
            let stream = std::net::TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut client = ServiceClient::new(stream).unwrap();
            client.create_stream("tcp", &test_config()).unwrap();
            let ids: Vec<NodeId> = (0..100u64).map(NodeId::new).collect();
            let fed = client.feed_batch("tcp", &ids).unwrap();
            assert_eq!(fed.outputs.len(), 100);
            server.stop();
        });
    }

    #[test]
    fn failed_connection_spawn_costs_one_connection_not_the_server() {
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
        server.inject_spawn_failures(2);
        // The two failed spawns close their connections (the client sees
        // EOF on its first op), counted in the metric.
        for _ in 0..2 {
            let mut orphan = ServiceClient::new(server.connect_in_process()).unwrap();
            assert!(orphan.floor_estimate("any").is_err(), "a dropped connection cannot answer");
        }
        assert_eq!(server.metrics().spawn_failures().get(), 2);
        // The seam is exhausted: the very next connection is served.
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("after", &test_config()).unwrap();
        let text = client.metrics().unwrap();
        assert!(
            text.contains("uns_accept_spawn_failures_total 2"),
            "spawn failures missing from the rendered metrics:\n{text}"
        );
    }

    #[test]
    fn silent_admin_client_is_closed_and_scrapes_keep_answering() {
        use std::io::{Read, Write};
        use std::net::TcpStream;
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bound = 2 * ADMIN_IO_TIMEOUT;
        // Nothing below may panic inside the scope: the listener only
        // returns after `stop`, so the results are asserted after it.
        let (silent, healthz) = std::thread::scope(|scope| {
            scope.spawn(|| server.serve_metrics_http(listener));
            // Connect and send nothing; the server must hang up on us.
            let started = Instant::now();
            let silent = TcpStream::connect(addr).and_then(|mut conn| {
                conn.set_read_timeout(Some(bound))?;
                let read = conn.read(&mut [0u8; 64]);
                Ok((read.map_err(|err| err.kind()), started.elapsed()))
            });
            let healthz = TcpStream::connect(addr).and_then(|mut conn| {
                conn.set_read_timeout(Some(bound))?;
                conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")?;
                let mut response = String::new();
                conn.read_to_string(&mut response)?;
                Ok(response)
            });
            server.stop();
            (silent, healthz)
        });
        let (read, elapsed) = silent.expect("connect to the admin port");
        assert!(
            matches!(read, Ok(0)) || read == Err(std::io::ErrorKind::ConnectionReset),
            "the silent connection was not closed within {bound:?}: {read:?} after {elapsed:?}"
        );
        assert!(elapsed < bound, "closed only after {elapsed:?}");
        let healthz = healthz.expect("GET /healthz after the silent client");
        assert!(healthz.starts_with("HTTP/1.1 200") && healthz.ends_with("ok\n"), "{healthz}");
    }

    #[test]
    fn demote_stream_stops_serving_but_keeps_durable_state() {
        let backend = Arc::new(crate::storage::MemBackend::new());
        let durability = DurabilityConfig::new(Arc::clone(&backend) as Arc<dyn StorageBackend>);
        let server =
            Server::start_durable(ServerConfig { workers: 1, queue_depth: 8 }, durability).unwrap();
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("d", &test_config()).unwrap();
        let ids: Vec<NodeId> = (0..64u64).map(NodeId::new).collect();
        client.feed_batch("d", &ids).unwrap();
        assert_eq!(server.stream_names(), ["d"]);

        server.demote_stream("d").unwrap();
        assert!(server.stream_names().is_empty());
        assert!(matches!(client.feed_batch("d", &ids), Err(ServiceError::UnknownStream(_))));
        assert!(matches!(server.demote_stream("d"), Err(ServiceError::UnknownStream(_))));
        // The demotion is announced in the trace ring and the per-stream
        // series leave the registry.
        assert!(server
            .metrics()
            .trace()
            .events()
            .iter()
            .any(|e| e.kind == uns_metrics::TraceKind::Demote && &*e.stream == "d"));
        assert!(!client.metrics().unwrap().contains("stream=\"d\""));
        // Durable state survived (WAL flushed before the drop): adoption
        // recovers the stream and its position continues where it left.
        server.adopt_stream("d").unwrap();
        let ack = client.feed_batch("d", &ids).unwrap();
        assert_eq!(ack.position, 128, "the adopted stream resumed the demoted position");
    }

    #[test]
    fn a_name_created_while_its_demoted_stream_drains_starts_from_zero() {
        let server = Server::start(ServerConfig { workers: 2, queue_depth: 8 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("s", &test_config()).unwrap();
        let (worker, id) = {
            let streams = server.router.registry.streams.lock().unwrap();
            let entry = streams.get("s").unwrap();
            (entry.worker, entry.id)
        };
        assert_eq!(worker, 0, "round-robin placement: the next create lands on worker 1");
        let job = |op, reply| Job {
            stream: id,
            op,
            reply,
            reservation: None,
            stats: None,
            enqueued: Instant::now(),
        };
        // Park the old worker on a rendezvous reply, then queue two feeds
        // behind it: they are still queued when the demote frees the name.
        let (park_tx, park_rx) = mpsc::sync_channel(0);
        server.router.senders[worker]
            .send(job(StreamOp::Sample, ReplyTo::Channel(park_tx)))
            .unwrap();
        let ids: Vec<NodeId> = (0..64u64).map(NodeId::new).collect();
        let mut fed = Vec::new();
        for _ in 0..2 {
            let (tx, rx) = mpsc::sync_channel(1);
            server.router.senders[worker]
                .send(job(StreamOp::Feed(ids.clone()), ReplyTo::Channel(tx)))
                .unwrap();
            fed.push(rx);
        }
        std::thread::scope(|scope| {
            let demote = scope.spawn(|| server.demote_stream("s"));
            while server.stream_names().contains(&"s".to_string()) {
                std::thread::yield_now();
            }
            // The new incarnation lands on the other worker while the old
            // one still holds its queued feeds.
            client.create_stream("s", &test_config()).unwrap();
            park_rx.recv().unwrap();
            for rx in fed {
                assert!(matches!(rx.recv().unwrap(), Response::Fed { .. }));
            }
            demote.join().unwrap().unwrap();
        });
        let ack = client.feed_batch("s", &ids).unwrap();
        assert_eq!(ack.position, 64, "the drained feeds moved the new stream's position");
        assert_eq!(client.stats("s").unwrap().pipeline.elements, 64);
        let text = client.metrics().unwrap();
        assert!(text.contains("uns_stream_elements_total{stream=\"s\"} 64\n"), "{text}");
    }

    #[test]
    fn floor_answers_the_last_released_floor_while_the_worker_is_parked() {
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("s", &test_config()).unwrap();
        let ids: Vec<NodeId> = (0..64u64).map(NodeId::new).collect();
        client.feed_batch("s", &ids).unwrap();
        let mut reference = ServiceSampler::create(&test_config()).unwrap();
        reference.feed_batch(&ids, &mut Vec::new());
        let released = reference.floor_estimate();
        reference.feed_batch(&ids, &mut Vec::new());
        let next = reference.floor_estimate();
        assert_ne!(released, next, "the queued feed must move the floor");
        let id = server.router.registry.streams.lock().unwrap().get("s").unwrap().id;
        let job = |op, reply| Job {
            stream: id,
            op,
            reply,
            reservation: None,
            stats: None,
            enqueued: Instant::now(),
        };
        // Park the worker on a rendezvous reply and queue a feed behind it.
        let (park_tx, park_rx) = mpsc::sync_channel(0);
        server.router.senders[0].send(job(StreamOp::Sample, ReplyTo::Channel(park_tx))).unwrap();
        let (fed_tx, fed_rx) = mpsc::sync_channel(1);
        server.router.senders[0]
            .send(job(StreamOp::Feed(ids.clone()), ReplyTo::Channel(fed_tx)))
            .unwrap();
        std::thread::scope(|scope| {
            let (floor_tx, floor_rx) = mpsc::channel();
            let client = &mut client;
            scope.spawn(move || floor_tx.send(client.floor_estimate("s")));
            let floor = floor_rx.recv_timeout(Duration::from_secs(10));
            park_rx.recv().unwrap(); // unpark whatever the outcome
            let floor = floor.expect("Floor queued behind the parked worker").unwrap();
            assert_eq!(floor, released, "Floor reported a write whose reply has not left");
        });
        assert!(matches!(fed_rx.recv().unwrap(), Response::Fed { .. }));
        assert_eq!(client.floor_estimate("s").unwrap(), next, "the feed's reply published");
    }

    #[test]
    fn a_restore_publishes_its_floor_before_its_reply_is_handed_off() {
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("s", &test_config()).unwrap();
        let ids: Vec<NodeId> = (0..64u64).map(NodeId::new).collect();
        client.feed_batch("s", &ids).unwrap();
        let (blob, restored) = (client.snapshot("s").unwrap(), client.floor_estimate("s").unwrap());
        client.feed_batch("s", &ids).unwrap();
        assert_ne!(
            client.floor_estimate("s").unwrap(),
            restored,
            "the second feed moves the floor"
        );
        // Rewind "s" with the Restore's Ok reply parked on a rendezvous:
        // the floor is published before the reply is handed off, so it
        // reads the restored floor while the worker waits to hand it over.
        let Routed::Dispatch(dispatch) =
            server.router.reserve("s", true, || StreamOp::Restore("s".into(), blob))
        else {
            panic!("a ready name dispatches its restore")
        };
        let (park_tx, park_rx) = mpsc::sync_channel(0);
        assert!(server.router.submit(dispatch, ReplyTo::Channel(park_tx)).is_none());
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut floor = client.floor_estimate("s").unwrap();
        while floor != restored && Instant::now() < deadline {
            std::thread::yield_now();
            floor = client.floor_estimate("s").unwrap();
        }
        assert_eq!(park_rx.recv().unwrap(), Response::Ok);
        assert_eq!(floor, restored, "the rewound stream kept answering the old floor");
    }
}
