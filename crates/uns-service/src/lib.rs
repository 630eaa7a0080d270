#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The networked uniform-node-sampling service.
//!
//! The paper's sampling component runs *inside every node of a large-scale
//! open system*, continuously fed by node-id streams arriving over the
//! network. This crate is that service boundary for the reproduction:
//! sockets in, samples out, state that survives restarts — turning the
//! in-process kernels of `uns-core`/`uns-sketch` into something a
//! deployment can talk to.
//!
//! Std-only by design: the build containers have no registry access, so
//! networking is a readiness-based [`reactor`] (one thread, a vendored
//! `epoll` poller) over [`std::net::TcpStream`], with in-process
//! connections over a [`std::os::unix::net::UnixStream`] pair (see
//! [`transport`]) for tests. Both run the same sans-IO connection core, so
//! framing, reply order and admission do not depend on the transport.
//!
//! # Pieces
//!
//! * [`wire`] + [`protocol`] — a framed, versioned binary protocol
//!   (length-prefixed frames, op codes for `CreateStream`, `Ingest`,
//!   `FeedBatch`, `Sample`, `FloorEstimate`, `Snapshot`, `Restore`,
//!   `Stats`, `Metrics`, `Replicate`) with zero-copy batch decode;
//! * [`server`] — the multi-tenant server: named streams, each owning a
//!   knowledge-free sampler (estimator kind and `c`/`k`/`s` chosen at
//!   stream creation), a worker pool that serializes every stream through
//!   its owning shard, bounded queues with explicit `Busy` backpressure;
//! * [`reactor`] — the readiness-based connection layer: one thread owns
//!   the listener and every connection socket, reassembles frames without
//!   blocking, and hands complete requests to the same worker pool —
//!   with a per-connection admission rate limit, a connection cap, and
//!   per-connection memory accounting;
//! * [`snapshot`] + [`sampler`] — deterministic byte-level snapshot and
//!   restore of the complete sampler state (memory `Γ` in slot order,
//!   estimator cells, floor-engine inputs, RNG state) such that a restored
//!   service is **bit-equal going forward** to one that never stopped;
//! * [`storage`] + [`wal`] — per-stream write-ahead op logging with
//!   configurable fsync policy, snapshot compaction, and crash recovery
//!   (snapshot + log replay reusing the bit-equal restore path);
//! * [`fault`] — seeded deterministic fault injection (torn writes,
//!   corrupt WAL tails, dropped/delayed replies, scheduled worker panics)
//!   wrapping the storage and [`transport`] seams;
//! * [`client`] + [`resilient`] — a blocking client and a resilient
//!   client wrapper with deadlines, capped backoff, and position resync;
//! * [`metrics`] + [`http`] — live observability: per-op latency
//!   histograms, per-stream throughput/WAL/floor-trajectory series, and a
//!   recent-event trace ring, scrapeable via the read-only `Metrics`
//!   opcode or a plain `GET /metrics` HTTP listener
//!   ([`server::Server::serve_metrics_http`]).
//!
//! # Example
//!
//! ```
//! use uns_service::protocol::{EstimatorKind, HashFamilyKind, StreamConfig};
//! use uns_service::server::{Server, ServerConfig};
//! use uns_service::client::ServiceClient;
//! use uns_core::NodeId;
//!
//! # fn main() -> Result<(), uns_service::ServiceError> {
//! let server = Server::start(ServerConfig::default());
//! let mut client = ServiceClient::new(server.connect_in_process())?;
//! client.create_stream(
//!     "overlay-0",
//!     &StreamConfig {
//!         kind: EstimatorKind::CountMin,
//!         capacity: 10,
//!         width: 10,
//!         depth: 5,
//!         seed: 1,
//!         family: HashFamilyKind::Mersenne,
//!     },
//! )?;
//! let ids: Vec<NodeId> = (0..100u64).map(NodeId::new).collect();
//! let ack = client.feed_batch("overlay-0", &ids)?;
//! assert_eq!(ack.outputs.len(), 100); // one uniform sample per element
//! let blob = client.snapshot("overlay-0")?; // survives restarts
//! client.restore("overlay-0-copy", &blob)?;
//! # Ok(())
//! # }
//! ```

pub mod client;
mod conn;
pub mod error;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod resilient;
pub mod sampler;
pub mod server;
pub mod snapshot;
pub mod storage;
pub mod transport;
pub mod wal;
pub mod wire;

pub use client::{FeedAck, IngestAck, ServiceClient};
pub use error::ServiceError;
pub use fault::{FaultPlan, FaultSpec};
pub use metrics::{
    stream_replication_handles, ReplicationHandles, ServiceMetrics, FLOOR_WINDOW_BATCHES,
};
pub use protocol::{EstimatorKind, HashFamilyKind, ReplicationStats, StreamConfig, StreamStats};
pub use reactor::{RateLimit, ReactorConfig};
pub use resilient::{Delivery, ResilientClient, RetryPolicy, RetryStats};
pub use sampler::ServiceSampler;
pub use server::{
    DurabilityConfig, PendingAcks, ReplicaHandler, ReplicationSink, Server, ServerConfig,
};
pub use storage::{DirBackend, MemBackend, StorageBackend};
pub use transport::Transport;
pub use wal::{DurabilityStats, FsyncPolicy};
