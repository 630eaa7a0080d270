#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The replicated sampling mesh: N [`uns_service`] nodes, each stream
//! placed on a primary plus `R` replicas by rendezvous hashing, kept in
//! sync by shipping the primary's write-ahead log over the wire.
//!
//! The paper's sampler is a deterministic function of its inputs, which
//! makes replication unusually honest here: the WAL *is* the state. A
//! replica that holds the same durable snapshot and the same log bytes
//! recovers a **bit-identical** sampler — promotion after a primary death
//! is the ordinary crash-recovery path ([`Server::adopt_stream`]) with the
//! incarnation generation bumped so a stale primary's log can never
//! replay onto the promoted stream.
//!
//! # Pieces
//!
//! * [`membership`] — the fixed node set plus the dynamic liveness view;
//! * [`placement`] — rendezvous (highest-random-weight) placement: every
//!   node computes the same primary/replica ranking with no coordinator;
//! * [`replicator`] — the primary-side
//!   [`ReplicationSink`](uns_service::server::ReplicationSink) (sends each
//!   WAL record to the replicas before the local append starts, overlaps
//!   the local append and fsync with theirs, and leaves the acks to the
//!   worker's release thread, which replies only once both appends are
//!   durable; attaches/catches-up replicas synchronously on the frozen
//!   stream, on a fresh connection) and the replica-side
//!   [`ReplicaHandler`](uns_service::server::ReplicaHandler) (durably logs
//!   shipments before acking). Records are pipelined, at most one per
//!   connection writing to the stream, so a crash leaves the logs apart by
//!   at most those records sent but not yet acked, which the clients'
//!   position resync resolves;
//! * [`failover`] — seeded-heartbeat failure detection driving promotion.
//!
//! A [`MeshNode`] wires all four onto one [`Server`]. Clients are plain
//! [`uns_service::resilient::ResilientClient`]s over the placement-ordered
//! endpoint list ([`client_endpoints`]): a dead primary surfaces as a
//! connect error, a not-yet-promoted replica as `NotPrimary`, and the
//! client rotates until the promoted node answers — with position resync
//! keeping mutating ops exactly-once across the hand-off.

pub mod failover;
pub mod membership;
pub mod placement;
pub mod replicator;

pub use failover::{FailoverConfig, FailureDetector};
pub use membership::{Membership, NodeInfo};
pub use placement::{place, rank, Placement};
pub use replicator::{AttachStats, ReplicaApplier, Replicator};

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use uns_service::error::ServiceError;
use uns_service::fault::FaultPlan;
use uns_service::reactor::ReactorConfig;
use uns_service::server::{DurabilityConfig, Server, ServerConfig};
use uns_service::storage::StorageBackend;
use uns_service::wal::FsyncPolicy;

/// Everything one mesh node needs beyond its name, listener, and backend.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Replicas per stream (`R`); the live set clamps it.
    pub replication: usize,
    /// Fsync policy of both the primary WAL and the replica-side log.
    pub fsync: FsyncPolicy,
    /// The wrapped server's tuning knobs.
    pub server: ServerConfig,
    /// Heartbeat knobs of the failure detector.
    pub failover: FailoverConfig,
    /// Connect timeout of replication sessions.
    pub connect_timeout: Duration,
    /// Per-shipment reply timeout of replication sessions.
    pub op_timeout: Option<Duration>,
    /// Optional seeded fault schedule wrapping every replication
    /// connection this node *originates* (the partition tests sever it).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for MeshConfig {
    fn default() -> Self {
        Self {
            replication: 1,
            fsync: FsyncPolicy::PerOp,
            server: ServerConfig::default(),
            failover: FailoverConfig::default(),
            connect_timeout: Duration::from_millis(500),
            op_timeout: Some(Duration::from_secs(2)),
            fault_plan: None,
        }
    }
}

/// The placement-ordered endpoint list a client of `stream` should fail
/// over across: primary first, then the replicas in promotion order.
/// Computed over the full node set — clients do not track liveness; a
/// dead node surfaces as a connect error and the resilient client
/// rotates past it.
pub fn client_endpoints(
    membership: &Membership,
    stream: &str,
    replication: usize,
) -> Vec<SocketAddr> {
    let names: Vec<String> = membership.nodes().iter().map(|n| n.name.clone()).collect();
    rank(stream, &names)
        .into_iter()
        .take(replication + 1)
        .filter_map(|name| membership.addr_of(&name))
        .collect()
}

/// Whether `peer` currently serves `stream` as primary: a `Stats` probe
/// answered `Ok`. A dead peer (connect error), a replica (`NotPrimary`),
/// and a peer without the stream (`UnknownStream`) all answer no.
fn peer_serves(membership: &Membership, config: &MeshConfig, peer: &str, stream: &str) -> bool {
    let Some(addr) = membership.addr_of(peer) else { return false };
    let Ok(tcp) = std::net::TcpStream::connect_timeout(&addr, config.connect_timeout) else {
        return false;
    };
    tcp.set_nodelay(true).ok();
    let Ok(mut client) = uns_service::client::ServiceClient::new(tcp) else { return false };
    if client.set_op_timeout(config.op_timeout).is_err() {
        return false;
    }
    client.stats(stream).is_ok()
}

/// One node of the mesh: a durable [`Server`] with the replica applier
/// and replication sink installed, serving the wire protocol on a TCP
/// listener, plus (once [`MeshNode::start_failover`] is called) a
/// heartbeat detector that promotes this node's replica streams when
/// their primary dies.
pub struct MeshNode {
    name: String,
    replication: usize,
    server: Arc<Server>,
    membership: Arc<Membership>,
    applier: Arc<ReplicaApplier>,
    replicator: Arc<Replicator>,
    serve_thread: Mutex<Option<JoinHandle<std::io::Result<()>>>>,
    detector: Mutex<Option<FailureDetector>>,
}

impl MeshNode {
    /// Starts the node: recovers durable streams from `backend`, installs
    /// the replication hooks, and begins serving `listener`. The failure
    /// detector is **not** started here — call
    /// [`MeshNode::start_failover`] once every node of the mesh is up, so
    /// a slow-starting peer is not declared dead on sight.
    ///
    /// # Errors
    ///
    /// Durable recovery failures from [`Server::start_durable`].
    pub fn start(
        name: &str,
        listener: TcpListener,
        backend: Arc<dyn StorageBackend>,
        membership: Arc<Membership>,
        config: &MeshConfig,
    ) -> Result<Arc<Self>, ServiceError> {
        let mut durability = DurabilityConfig::new(Arc::clone(&backend));
        durability.fsync = config.fsync;
        let server = Arc::new(Server::start_durable(config.server, durability)?);
        let applier = Arc::new(ReplicaApplier::new(Arc::clone(&backend), config.fsync));
        server.set_replica_handler(Arc::clone(&applier) as _)?;
        let replicator = Arc::new(Replicator::new(
            name,
            Arc::clone(&membership),
            config.replication,
            backend,
            Arc::clone(server.metrics()),
            config.connect_timeout,
            config.op_timeout,
            config.fault_plan.clone(),
        ));
        server.set_replication_sink(Arc::clone(&replicator) as _)?;
        // Re-join demotion (the restart bugfix): durable recovery just
        // brought up *every* stream in this node's backend as primary —
        // including streams this node only ever held as a replica, and
        // streams whose primaryship was adopted elsewhere while it was
        // down. Serving those would put two primaries on the wire. Before
        // the listener opens, each recovered stream is demoted to a
        // replica hold unless this node is the placement primary over the
        // full membership *and* no peer is currently serving it; clients
        // get `NotPrimary` here and find the real primary by rotation,
        // and the next shipment heals this copy (generation mismatch ⇒
        // snapshot re-attach).
        let everyone: Vec<String> = membership.nodes().iter().map(|n| n.name.clone()).collect();
        for stream in server.stream_names() {
            let ranking = rank(&stream, &everyone);
            let placed_here = ranking.first().is_some_and(|primary| primary == name);
            let served_elsewhere = ranking
                .iter()
                .filter(|peer| peer.as_str() != name)
                .any(|peer| peer_serves(&membership, config, peer, &stream));
            if placed_here && !served_elsewhere {
                continue;
            }
            if server.demote_stream(&stream).is_ok() {
                let _ = applier.hold(&stream);
            }
        }
        let serve_server = Arc::clone(&server);
        let serve_thread = std::thread::Builder::new()
            .name(format!("uns-mesh-{name}"))
            .spawn(move || serve_server.serve_reactor(listener, ReactorConfig::default()))
            .expect("spawning the mesh serve thread");
        Ok(Arc::new(Self {
            name: name.to_string(),
            replication: config.replication,
            server,
            membership,
            applier,
            replicator,
            serve_thread: Mutex::new(Some(serve_thread)),
            detector: Mutex::new(None),
        }))
    }

    /// Starts the heartbeat detector. On a peer's death, every stream this
    /// node holds as a replica is promoted **iff** placement over the
    /// surviving live set now makes this node the primary — so exactly one
    /// survivor adopts each orphaned stream.
    pub fn start_failover(self: &Arc<Self>, config: FailoverConfig) {
        let node = Arc::clone(self);
        let detector = FailureDetector::start(
            self.name.clone(),
            Arc::clone(&self.membership),
            config,
            move |_dead| node.promote_orphans(),
        );
        *self.detector.lock().expect("detector lock poisoned") = Some(detector);
    }

    /// Promotes every replica-held stream whose placement over the current
    /// live view names this node primary. Public so tests (and operators)
    /// can drive promotion without the heartbeat thread.
    pub fn promote_orphans(&self) {
        for stream in self.applier.held_streams() {
            let live = self.membership.live_names();
            let Some(placement) = place(&stream, &live, self.replication) else { continue };
            if placement.primary != self.name {
                continue;
            }
            // Release-before-adopt: the applier stops claiming the stream
            // before the registry serves it, so the NotPrimary routing
            // check never bounces ops on a promoted stream.
            if self.applier.release(&stream) {
                let _ = self.server.adopt_stream(&stream);
            }
        }
    }

    /// This node's placement name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The wrapped server (metrics, in-process connections, stats).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The replica-side applier (held streams, durable positions).
    pub fn applier(&self) -> &ReplicaApplier {
        &self.applier
    }

    /// The primary-side replication sink (attach counters).
    pub fn replicator(&self) -> &Replicator {
        &self.replicator
    }

    /// Stops the detector, the server, and the serve loop, joining both
    /// threads. Also what "killing" a node means in the failover tests:
    /// the listener closes, so peers' probes start refusing.
    pub fn stop(&self) {
        if let Some(detector) = self.detector.lock().expect("detector lock poisoned").take() {
            detector.stop();
        }
        self.server.stop();
        if let Some(thread) = self.serve_thread.lock().expect("serve lock poisoned").take() {
            let _ = thread.join();
        }
    }
}
