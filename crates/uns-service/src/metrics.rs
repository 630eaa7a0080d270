//! The service's live metrics surface: one [`MetricsRegistry`] + ring
//! [`TraceLog`] per server, with per-stream series handles threaded into
//! the worker loop and WAL.
//!
//! Two invariants the tests pin:
//!
//! * **Stats/Metrics agreement** — every counter the wire `Stats` opcode
//!   reports is read from the same registered atomic the exposition
//!   renders. The per-stream series are the stream's only counters: reply
//!   positions and durable snapshots read them too, and the owning worker
//!   is their one writer, so they are exact. After quiescence the two
//!   surfaces agree bit for bit.
//! * **Allocation-free hot path** — per-batch instrumentation is relaxed
//!   atomic adds plus two `Instant` reads; registration (the only
//!   allocating step) happens once at stream create/restore/recover.

use crate::wal::{DurabilityStats, WalMetrics};
use std::sync::Arc;
use std::time::Duration;
use uns_metrics::{Counter, Gauge, LatencyHistogram, MetricsRegistry, TraceKind, TraceLog};
use uns_sim::PipelineSeries;

/// Exposition family name for per-stream busy rejections.
pub const METRIC_STREAM_BUSY: &str = "uns_stream_busy_rejections_total";
/// Exposition family name for per-stream lifetime WAL bytes.
pub const METRIC_STREAM_WAL_BYTES: &str = "uns_stream_wal_bytes_total";
/// Exposition family name for per-stream lifetime WAL records.
pub const METRIC_STREAM_WAL_RECORDS: &str = "uns_stream_wal_records_total";
/// Exposition family name for per-stream checkpoint compactions.
pub const METRIC_STREAM_COMPACTIONS: &str = "uns_stream_wal_compactions_total";
/// Exposition family name for per-stream lifetime recoveries.
pub const METRIC_STREAM_RECOVERIES: &str = "uns_stream_recoveries_total";
/// Exposition family name for the floor as of a stream's last answered write.
pub const METRIC_STREAM_FLOOR: &str = "uns_stream_floor";
/// Exposition family name for the floor-trajectory window minimum.
pub const METRIC_STREAM_FLOOR_WINDOW_MIN: &str = "uns_stream_floor_window_min";
/// Exposition family name for the per-stream replica lag gauge (records
/// sent to the replicas whose acks are still outstanding).
pub const METRIC_STREAM_REPLICA_LAG: &str = "uns_replica_lag_records";
/// Exposition family name for the node-wide histogram of replica ack
/// waits: from sending a record to reading the replica's durable ack.
pub const METRIC_REPLICATION_ACK_WAIT: &str = "uns_replication_ack_wait_nanos";
/// Exposition family name for per-stream bytes shipped to replicas.
pub const METRIC_STREAM_REPLICATION_BYTES: &str = "uns_replication_bytes_total";
/// Exposition family name for per-stream failover promotions served.
pub const METRIC_STREAM_FAILOVERS: &str = "uns_failovers_total";
/// Exposition family name for connections refused because a connection
/// thread could not be spawned.
pub const METRIC_SPAWN_FAILURES: &str = "uns_accept_spawn_failures_total";
/// Exposition family name for the reactor's live connection count.
pub const METRIC_REACTOR_CONNECTIONS: &str = "uns_reactor_connections";
/// Exposition family name for bytes currently buffered across all reactor
/// connections (read reassembly plus pending writes).
pub const METRIC_REACTOR_BUFFERED_BYTES: &str = "uns_reactor_buffered_bytes";
/// Exposition family name for connections the reactor has accepted.
pub const METRIC_REACTOR_ACCEPTED: &str = "uns_reactor_accepted_total";
/// Exposition family name for connections the reactor refused at the cap.
pub const METRIC_REACTOR_REJECTED: &str = "uns_reactor_rejected_total";
/// Exposition family name for requests bounced with `RateLimited`.
pub const METRIC_REACTOR_RATE_LIMITED: &str = "uns_reactor_rate_limited_total";
/// Exposition family name for worker-bound replies by how they left:
/// `path="direct"` when the replying thread wrote the whole frame to the
/// socket, `path="deferred"` when it left bytes for the reactor to flush.
pub const METRIC_REACTOR_REPLIES: &str = "uns_reactor_replies_total";

/// Batches per floor-trajectory window: the window-min gauge and its
/// [`TraceKind::FloorSample`] event update once per this many mutating
/// batches, so the trajectory survives in the trace ring without putting a
/// trace push on every batch.
pub const FLOOR_WINDOW_BATCHES: u32 = 16;

/// Trace ring capacity: enough for the control-plane history of a long run
/// (floor samples are one per [`FLOOR_WINDOW_BATCHES`] batches per stream).
const TRACE_CAPACITY: usize = 1024;

/// Wire-op labels for the per-op latency histogram, indexed by
/// [`op_label_index`]'s return value.
/// `FloorEstimate` has none: routing answers it without a worker.
const OP_LABELS: [&str; 7] = ["create", "restore", "ingest", "feed", "sample", "snapshot", "stats"];

const HELP_BUSY: &str = "Batches rejected with Busy because the stream's queue was full.";
const HELP_WAL_BYTES: &str = "Lifetime bytes appended to the stream's write-ahead log.";
const HELP_WAL_RECORDS: &str = "Lifetime records appended to the stream's write-ahead log.";
const HELP_COMPACTIONS: &str = "Checkpoint compactions (snapshot persisted, log reset).";
const HELP_RECOVERIES: &str = "Times the stream was rebuilt from durable state.";
const HELP_FLOOR: &str = "Sampler floor estimate as of the stream's last answered write or \
     install; FloorEstimate replies read it.";
const HELP_FLOOR_WINDOW_MIN: &str =
    "Minimum floor estimate over the last floor-trajectory window of batches.";
const HELP_REPLICA_LAG: &str = "Records sent to the stream's replicas whose acks are still \
     outstanding; nonzero in steady state, since shipments are pipelined.";
const HELP_REPLICATION_ACK_WAIT: &str =
    "Time from sending a record to a replica to reading its durable ack.";
const HELP_REPLICATION_BYTES: &str = "Record bytes shipped to the stream's replicas.";
const HELP_FAILOVERS: &str = "Failover promotions this stream went through on this node.";
const HELP_SPAWN_FAILURES: &str =
    "Connections refused because the connection thread could not be spawned.";
const HELP_REACTOR_CONNECTIONS: &str = "Connections the reactor currently owns.";
const HELP_REACTOR_BUFFERED_BYTES: &str =
    "Bytes buffered across all reactor connections (reassembly + pending writes).";
const HELP_REACTOR_ACCEPTED: &str = "Connections the reactor has accepted, lifetime.";
const HELP_REACTOR_REJECTED: &str = "Connections the reactor refused at the connection cap.";
const HELP_REACTOR_RATE_LIMITED: &str =
    "Requests rejected with RateLimited by a connection's admission limiter.";
const HELP_REACTOR_REPLIES: &str = "Worker-bound replies written whole by the replying thread \
     (direct) or left, in part or whole, for the reactor to flush (deferred).";

/// Per-server metrics state: the registry, the trace ring, and the handles
/// global instrumentation sites hold (queue depths, op latency, WAL
/// timing). Created once in `Server::start*` and shared by every worker
/// and connection thread.
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: Arc<MetricsRegistry>,
    trace: Arc<TraceLog>,
    /// `uns_worker_queue_depth{worker="i"}`; approximate under concurrency
    /// (the enqueue increment races the worker's decrement), never off by
    /// more than in-flight jobs.
    pub(crate) queue_depth: Vec<Arc<Gauge>>,
    /// `uns_queue_wait_nanos{worker="i"}`: enqueue to the worker taking
    /// the job.
    pub(crate) queue_wait: Vec<Arc<LatencyHistogram>>,
    /// `uns_applier_queue_wait_nanos`: enqueue to the replica applier
    /// taking the shipment.
    pub(crate) applier_queue_wait: Arc<LatencyHistogram>,
    /// `uns_replica_apply_nanos`: one shipment's apply on the replica
    /// applier, durable appends included.
    pub(crate) replica_apply: Arc<LatencyHistogram>,
    op_latency: [Arc<LatencyHistogram>; OP_LABELS.len()],
    pub(crate) wal_append: Arc<LatencyHistogram>,
    pub(crate) wal_fsync: Arc<LatencyHistogram>,
    /// Shared empty stream name for process-wide trace events.
    no_stream: Arc<str>,
}

impl ServiceMetrics {
    /// A fresh registry + trace ring for a server with `workers` workers.
    pub fn new(workers: usize) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        registry
            .gauge("uns_server_workers", "Worker threads serving stream queues.", &[])
            .set_u64(workers as u64);
        let queue_depth = (0..workers)
            .map(|index| {
                registry.gauge(
                    "uns_worker_queue_depth",
                    "Jobs queued for the worker (approximate under concurrency).",
                    &[("worker", &index.to_string())],
                )
            })
            .collect();
        let queue_wait = (0..workers)
            .map(|index| {
                registry.histogram(
                    "uns_queue_wait_nanos",
                    "Time a job waited in its worker's queue before the worker took it.",
                    &[("worker", &index.to_string())],
                )
            })
            .collect();
        let applier_queue_wait = registry.histogram(
            "uns_applier_queue_wait_nanos",
            "Time a replica shipment waited in the replica applier's queue.",
            &[],
        );
        let replica_apply = registry.histogram(
            "uns_replica_apply_nanos",
            "Latency of applying one replica shipment, durable appends included.",
            &[],
        );
        let op_latency = std::array::from_fn(|index| {
            registry.histogram(
                "uns_op_latency_nanos",
                "Worker-side latency of one request, by wire op.",
                &[("op", OP_LABELS[index])],
            )
        });
        let wal_append = registry.histogram(
            "uns_wal_append_nanos",
            "Latency of one WAL record append (excluding fsync).",
            &[],
        );
        let wal_fsync = registry.histogram("uns_wal_fsync_nanos", "Latency of one WAL fsync.", &[]);
        Self {
            registry,
            trace: Arc::new(TraceLog::new(TRACE_CAPACITY)),
            queue_depth,
            queue_wait,
            applier_queue_wait,
            replica_apply,
            op_latency,
            wal_append,
            wal_fsync,
            no_stream: Arc::from(""),
        }
    }

    /// The registry behind the exposition surface.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The structured trace ring.
    pub fn trace(&self) -> &Arc<TraceLog> {
        &self.trace
    }

    /// Renders the full exposition text.
    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// Records one worker-side op latency (`op` from [`op_label_index`]).
    #[inline]
    pub(crate) fn record_op(&self, op: usize, elapsed: Duration) {
        self.op_latency[op].record_duration(elapsed);
    }

    /// Records a process-wide trace event with no stream attached.
    pub(crate) fn trace_global(&self, kind: TraceKind, a: u64, b: u64) {
        self.trace.push(kind, &self.no_stream, a, b);
    }

    /// The busy-rejection counter for `stream` — registered from the
    /// connection side because rejections happen before a worker is
    /// involved; the `Stats` fold reads the same atomic.
    pub(crate) fn stream_busy(&self, stream: &str) -> Arc<Counter> {
        self.registry.counter(METRIC_STREAM_BUSY, HELP_BUSY, &[("stream", stream)])
    }

    /// Registers (or re-acquires) every per-stream series and returns the
    /// handle bundle the owning worker holds.
    pub(crate) fn stream(&self, stream: &str) -> StreamMetrics {
        let labels = [("stream", stream)];
        StreamMetrics {
            name: Arc::from(stream),
            trace: Arc::clone(&self.trace),
            pipeline: PipelineSeries::register(&self.registry, stream),
            floor: self.stream_floor(stream),
            floor_window_min: self.registry.gauge(
                METRIC_STREAM_FLOOR_WINDOW_MIN,
                HELP_FLOOR_WINDOW_MIN,
                &labels,
            ),
            wal_bytes: self.registry.counter(METRIC_STREAM_WAL_BYTES, HELP_WAL_BYTES, &labels),
            wal_records: self.registry.counter(
                METRIC_STREAM_WAL_RECORDS,
                HELP_WAL_RECORDS,
                &labels,
            ),
            compactions: self.registry.counter(
                METRIC_STREAM_COMPACTIONS,
                HELP_COMPACTIONS,
                &labels,
            ),
            recoveries: self.registry.counter(METRIC_STREAM_RECOVERIES, HELP_RECOVERIES, &labels),
            replication: stream_replication_handles(&self.registry, stream),
            window_min: u64::MAX,
            window_len: 0,
        }
    }

    /// The floor gauge of `stream`: routing answers `FloorEstimate` from
    /// it, and the owning worker's [`StreamMetrics::floor`] is the same
    /// atomic.
    pub(crate) fn stream_floor(&self, stream: &str) -> Arc<Gauge> {
        self.registry.gauge(METRIC_STREAM_FLOOR, HELP_FLOOR, &[("stream", stream)])
    }

    /// Drops every series labeled with this stream — torn-down streams
    /// must not keep exporting stale numbers.
    pub(crate) fn remove_stream(&self, stream: &str) {
        self.registry.remove_labeled("stream", stream);
    }

    /// The accept-side spawn-failure counter. Registered on demand; the
    /// registry hands back the same atomic for the same name.
    pub(crate) fn spawn_failures(&self) -> Arc<Counter> {
        self.registry.counter(METRIC_SPAWN_FAILURES, HELP_SPAWN_FAILURES, &[])
    }

    /// Registers (or re-acquires) the reactor's connection-layer series.
    pub(crate) fn reactor(&self) -> ReactorMetrics {
        ReactorMetrics {
            connections: self.registry.gauge(
                METRIC_REACTOR_CONNECTIONS,
                HELP_REACTOR_CONNECTIONS,
                &[],
            ),
            buffered_bytes: self.registry.gauge(
                METRIC_REACTOR_BUFFERED_BYTES,
                HELP_REACTOR_BUFFERED_BYTES,
                &[],
            ),
            accepted: self.registry.counter(METRIC_REACTOR_ACCEPTED, HELP_REACTOR_ACCEPTED, &[]),
            rejected: self.registry.counter(METRIC_REACTOR_REJECTED, HELP_REACTOR_REJECTED, &[]),
            rate_limited: self.registry.counter(
                METRIC_REACTOR_RATE_LIMITED,
                HELP_REACTOR_RATE_LIMITED,
                &[],
            ),
            replies_direct: self.registry.counter(
                METRIC_REACTOR_REPLIES,
                HELP_REACTOR_REPLIES,
                &[("path", "direct")],
            ),
            replies_deferred: self.registry.counter(
                METRIC_REACTOR_REPLIES,
                HELP_REACTOR_REPLIES,
                &[("path", "deferred")],
            ),
        }
    }
}

/// The reactor's connection-layer series handles — one bundle per
/// [`crate::Server::serve_reactor`] loop, all registered against the
/// server's exposition registry.
#[derive(Clone, Debug)]
pub(crate) struct ReactorMetrics {
    /// Live connection count.
    pub(crate) connections: Arc<Gauge>,
    /// Bytes buffered across all connections (per-connection memory
    /// accounting: reassembly buffers plus pending writes).
    pub(crate) buffered_bytes: Arc<Gauge>,
    /// Lifetime accepted connections.
    pub(crate) accepted: Arc<Counter>,
    /// Connections refused at the connection cap.
    pub(crate) rejected: Arc<Counter>,
    /// Requests bounced by a connection's admission limiter.
    pub(crate) rate_limited: Arc<Counter>,
    /// Worker-bound replies the replying thread wrote whole.
    pub(crate) replies_direct: Arc<Counter>,
    /// Worker-bound replies that left bytes for the reactor to flush.
    pub(crate) replies_deferred: Arc<Counter>,
}

/// The per-stream replication series handles, which the owning worker
/// hands the replication sink with every shipment. The registry hands out
/// the same atomics for the same name, so the sink updates exactly the
/// numbers the `Stats` fold and `/metrics` exposition report.
#[derive(Clone, Debug)]
pub struct ReplicationHandles {
    /// `uns_replica_lag_records{stream=…}` — records sent to the replicas
    /// whose acks are still outstanding (0 when detached or idle).
    pub lag: Arc<Gauge>,
    /// `uns_replication_bytes_total{stream=…}` — record and snapshot bytes
    /// shipped to replicas.
    pub shipped_bytes: Arc<Counter>,
    /// `uns_failovers_total{stream=…}` — promotions served on this node.
    pub failovers: Arc<Counter>,
}

/// Registers (or re-acquires) the replication series of `stream`.
pub fn stream_replication_handles(registry: &MetricsRegistry, stream: &str) -> ReplicationHandles {
    let labels = [("stream", stream)];
    ReplicationHandles {
        lag: registry.gauge(METRIC_STREAM_REPLICA_LAG, HELP_REPLICA_LAG, &labels),
        shipped_bytes: registry.counter(
            METRIC_STREAM_REPLICATION_BYTES,
            HELP_REPLICATION_BYTES,
            &labels,
        ),
        failovers: registry.counter(METRIC_STREAM_FAILOVERS, HELP_FAILOVERS, &labels),
    }
}

/// Registers (or re-acquires) the node-wide replica ack-wait histogram.
pub fn replication_ack_wait(registry: &MetricsRegistry) -> Arc<LatencyHistogram> {
    registry.histogram(METRIC_REPLICATION_ACK_WAIT, HELP_REPLICATION_ACK_WAIT, &[])
}

/// The per-stream metric handles a worker holds inside its stream state:
/// the stream's counters themselves, not a copy of them. The worker (and
/// the WAL writer it owns) is the only writer, so reading a series back
/// gives the exact total. Every update is a relaxed atomic op on a
/// pre-registered series. A clone holds the same series.
#[derive(Debug, Clone)]
pub(crate) struct StreamMetrics {
    /// Shared stream name for trace events (no allocation per event).
    pub name: Arc<str>,
    trace: Arc<TraceLog>,
    /// Pipeline accounting series (elements/admitted/outputs/batches/shards);
    /// `elements` is the stream position replies carry.
    pub pipeline: PipelineSeries,
    /// The floor as of the stream's last answered write or install,
    /// stored as that reply leaves; routing answers `FloorEstimate` from
    /// it.
    pub floor: Arc<Gauge>,
    floor_window_min: Arc<Gauge>,
    /// WAL byte total, bumped by the WAL writer via [`WalMetrics`].
    pub wal_bytes: Arc<Counter>,
    /// WAL record total, bumped by the WAL writer via [`WalMetrics`].
    pub wal_records: Arc<Counter>,
    /// Checkpoint compactions.
    pub compactions: Arc<Counter>,
    /// Lifetime recoveries.
    pub recoveries: Arc<Counter>,
    /// Replication series, bumped by the replication sink.
    pub replication: ReplicationHandles,
    window_min: u64,
    window_len: u32,
}

impl StreamMetrics {
    /// Overwrites the durability series — install and recovery paths,
    /// where the counters resume persisted totals.
    pub fn sync_durability(&self, stats: &DurabilityStats) {
        self.wal_bytes.set(stats.wal_bytes);
        self.wal_records.set(stats.wal_records);
        self.compactions.set(stats.snapshot_compactions);
        self.recoveries.set(stats.recoveries);
    }

    /// Reads the durability series back as totals.
    pub fn durability(&self) -> DurabilityStats {
        DurabilityStats {
            wal_bytes: self.wal_bytes.get(),
            wal_records: self.wal_records.get(),
            snapshot_compactions: self.compactions.get(),
            recoveries: self.recoveries.get(),
        }
    }

    /// The handle bundle the stream's WAL writer bumps on its own append
    /// and fsync path.
    pub fn wal_metrics(&self, service: &ServiceMetrics) -> WalMetrics {
        WalMetrics {
            append_nanos: Arc::clone(&service.wal_append),
            fsync_nanos: Arc::clone(&service.wal_fsync),
            bytes: Arc::clone(&self.wal_bytes),
            records: Arc::clone(&self.wal_records),
        }
    }

    /// Records one floor observation after a mutating batch: once per
    /// [`FLOOR_WINDOW_BATCHES`], publishes the window minimum to its gauge
    /// and the trace ring. `position` is the stream position in elements.
    /// The `floor` gauge is not touched here: a write's reply publishes it
    /// as it leaves.
    #[inline]
    pub fn observe_floor(&mut self, position: u64, floor: u64) {
        self.window_min = self.window_min.min(floor);
        self.window_len += 1;
        if self.window_len >= FLOOR_WINDOW_BATCHES {
            self.floor_window_min.set_u64(self.window_min);
            self.trace.push(TraceKind::FloorSample, &self.name, position, self.window_min);
            self.window_min = u64::MAX;
            self.window_len = 0;
        }
    }

    /// Records a trace event for this stream.
    pub fn event(&self, kind: TraceKind, a: u64, b: u64) {
        self.trace.push(kind, &self.name, a, b);
    }
}

/// Maps a wire op to its `uns_op_latency_nanos` label index; `None` for
/// ops outside the public wire surface (test-only panics).
#[inline]
pub(crate) fn op_label_index(label: &str) -> Option<usize> {
    OP_LABELS.iter().position(|&l| l == label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uns_metrics::parse::{find, parse_exposition};

    #[test]
    fn floor_window_publishes_min_once_per_window() {
        let service = ServiceMetrics::new(1);
        let mut stream = service.stream("s");
        for batch in 0..FLOOR_WINDOW_BATCHES {
            // Floors 100, 99, 98, …: the window min is the last one.
            stream.observe_floor(u64::from(batch) * 8, u64::from(100 - batch));
        }
        let floor_min = u64::from(100 - (FLOOR_WINDOW_BATCHES - 1));
        let samples = parse_exposition(&service.render()).expect("render parses");
        let window = find(&samples, METRIC_STREAM_FLOOR_WINDOW_MIN, &[("stream", "s")])
            .expect("window-min gauge");
        assert_eq!(window.value_u64(), Some(floor_min));
        let events = service.trace().events();
        let sample =
            events.iter().find(|e| e.kind == TraceKind::FloorSample).expect("floor sample traced");
        assert_eq!(sample.b, floor_min);
        assert_eq!(&*sample.stream, "s");
    }

    #[test]
    fn op_labels_resolve_and_unknown_ops_do_not() {
        for (index, label) in OP_LABELS.iter().enumerate() {
            assert_eq!(op_label_index(label), Some(index));
        }
        assert_eq!(op_label_index("panic"), None);
    }
}
