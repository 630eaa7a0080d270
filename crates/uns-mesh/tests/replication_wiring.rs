//! Replication is wired once and handed to its users:
//!
//! * a stream's replication series are the ones its owning worker hands
//!   to the sink, so a stream demoted and adopted again on the same node
//!   ships through its fresh, registered series, and `/metrics` and
//!   `Stats` see the bytes it ships;
//! * the replica applier answers `holds` and `held_streams` from the held
//!   names alone, so a shipment waiting on its log's fsync delays no
//!   routing question about another stream;
//! * a served name is never held: routing refuses a shipment for a stream
//!   the node serves, so the applier never opens the log its worker
//!   writes;
//! * a demoted stream leaves the sink: its replication connections close,
//!   and a re-adoption ships over new ones.

mod common;

use common::{batch_ids, stream_config, Mesh};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use uns_core::NodeId;
use uns_mesh::{place, MeshConfig, ReplicaApplier};
use uns_metrics::parse::{find, parse_exposition};
use uns_service::client::ServiceClient;
use uns_service::error::ServiceError;
use uns_service::protocol::{EstimatorKind, Response};
use uns_service::sampler::ServiceSampler;
use uns_service::server::{ReplicaHandler, Server};
use uns_service::storage::{MemBackend, StorageBackend, WalStore};
use uns_service::wal::{encode_record, DurableSnapshot, FsyncPolicy, WalOpRef};

const BATCH_LEN: u64 = 64;
/// How long a routing question may take while a shipment is parked.
const ANSWER_BOUND: Duration = Duration::from_millis(100);

/// The stream's `(uns_replication_bytes_total, uns_replica_lag_records)`
/// as `/metrics` renders them.
fn exported_series(server: &Server, stream: &str) -> (u64, u64) {
    let samples = parse_exposition(&server.metrics().render()).expect("exposition parses");
    let read = |name: &str| {
        find(&samples, name, &[("stream", stream)])
            .and_then(|sample| sample.value_u64())
            .unwrap_or_else(|| panic!("{name}{{stream={stream:?}}} is exported"))
    };
    (read("uns_replication_bytes_total"), read("uns_replica_lag_records"))
}

#[test]
fn a_readopted_stream_ships_through_its_fresh_series() {
    let stream = "readopted";
    let mesh = Mesh::start(2, &MeshConfig::default());
    let names: Vec<String> = mesh.membership.nodes().iter().map(|n| n.name.clone()).collect();
    let placement = place(stream, &names, 1).expect("two live nodes");
    let server = mesh.nodes[mesh.index_of(&placement.primary)].server();
    let mut client = ServiceClient::new(server.connect_in_process()).expect("client");
    client.create_stream(stream, &stream_config(EstimatorKind::CountMin)).expect("create");
    client.feed_batch(stream, &batch_ids(0, BATCH_LEN)).expect("feed");
    let (shipped, _) = exported_series(server, stream);
    assert!(shipped > 0, "the first incarnation ships");

    // Demote and adopt again on the same node: the name's series leave
    // the registry with the demotion and come back fresh with the
    // adoption, counting from zero.
    server.demote_stream(stream).expect("demote");
    server.adopt_stream(stream).expect("adopt again");
    client.feed_batch(stream, &batch_ids(1, BATCH_LEN)).expect("feed after the adoption");
    let (first, _) = exported_series(server, stream);
    client.feed_batch(stream, &batch_ids(2, BATCH_LEN)).expect("second feed after it");
    let (second, lag) = exported_series(server, stream);
    assert!(first > 0, "the re-adopted stream's shipments reach its exported series");
    assert!(second > first, "its shipped bytes grow with each feed: {first} -> {second}");
    assert_eq!(lag, 0, "every ack is in once the reply is");

    let stats = client.stats(stream).expect("stats");
    assert_eq!(stats.replication.shipped_bytes, second, "Stats and /metrics agree");
    assert_eq!(stats.replication.lag_records, 0);
    assert_eq!(stats.replication.failovers, 1, "the adoption counts on the fresh series");
    mesh.stop_all();
}

/// The connections `server`'s reactor holds open, as `/metrics` renders
/// them.
fn reactor_connections(server: &Server) -> u64 {
    let samples = parse_exposition(&server.metrics().render()).expect("exposition parses");
    find(&samples, "uns_reactor_connections", &[])
        .and_then(|sample| sample.value_u64())
        .expect("uns_reactor_connections is exported")
}

/// Polls `read` until it returns `want`, for at most 10 s.
fn wait_for(what: &str, want: u64, read: impl Fn() -> u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = read();
        if got == want {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: still {got}, want {want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_demoted_stream_closes_its_replication_connections() {
    let stream = "demoted";
    let mesh = Mesh::start(2, &MeshConfig::default());
    let names: Vec<String> = mesh.membership.nodes().iter().map(|n| n.name.clone()).collect();
    let placement = place(stream, &names, 1).expect("two live nodes");
    let primary = mesh.nodes[mesh.index_of(&placement.primary)].server();
    let replica = mesh.nodes[mesh.index_of(&placement.replicas[0])].server();
    let mut client = ServiceClient::new(primary.connect_in_process()).expect("client");
    client.create_stream(stream, &stream_config(EstimatorKind::CountMin)).expect("create");
    client.feed_batch(stream, &batch_ids(0, BATCH_LEN)).expect("feed");
    // The primary's only link to the replica is the stream's session.
    let attached = reactor_connections(replica);
    assert!(attached >= 1, "the replica serves the stream's replication connection");

    primary.demote_stream(stream).expect("demote");
    wait_for("replica connections after the demotion", attached - 1, || {
        reactor_connections(replica)
    });

    // Adopted again, the stream attaches afresh and ships.
    primary.adopt_stream(stream).expect("adopt again");
    client.feed_batch(stream, &batch_ids(1, BATCH_LEN)).expect("feed after the adoption");
    let (shipped, lag) = exported_series(primary, stream);
    assert!(shipped > 0, "the re-adopted stream ships");
    assert_eq!(lag, 0, "every ack is in once the reply is");
    wait_for("replica connections after the re-adoption", attached, || {
        reactor_connections(replica)
    });
    mesh.stop_all();
}

/// Parks the first WAL `sync` after it is armed until the test releases
/// it, announcing that it parked.
struct SyncGate {
    armed: AtomicBool,
    parked: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl SyncGate {
    fn pass(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.parked.lock().expect("gate lock").send(()).expect("the test listens");
            self.release.lock().expect("gate lock").recv().expect("the test releases");
        }
    }
}

/// A memory backend whose logs sync through a [`SyncGate`].
struct GatedBackend {
    inner: MemBackend,
    gate: Arc<SyncGate>,
}

struct GatedWal {
    inner: Box<dyn WalStore>,
    gate: Arc<SyncGate>,
}

impl WalStore for GatedWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.gate.pass();
        self.inner.sync()
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

impl StorageBackend for GatedBackend {
    fn open_wal(&self, stream: &str) -> io::Result<Box<dyn WalStore>> {
        let inner = self.inner.open_wal(stream)?;
        Ok(Box::new(GatedWal { inner, gate: Arc::clone(&self.gate) }))
    }

    fn write_snapshot(&self, stream: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_snapshot(stream, bytes)
    }

    fn read_snapshot(&self, stream: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_snapshot(stream)
    }

    fn list_streams(&self) -> io::Result<Vec<String>> {
        self.inner.list_streams()
    }

    fn remove_stream(&self, stream: &str) -> io::Result<()> {
        self.inner.remove_stream(stream)
    }
}

/// A generation-1 durable snapshot of a fresh sampler at sequence 0.
fn fresh_snapshot() -> Vec<u8> {
    let mut sampler_blob = Vec::new();
    ServiceSampler::create(&stream_config(EstimatorKind::CountMin))
        .expect("sampler")
        .snapshot(&mut sampler_blob);
    let mut bytes = Vec::new();
    DurableSnapshot {
        generation: 1,
        seq: 0,
        elements: 0,
        admitted: 0,
        outputs: 0,
        chunks: 0,
        durability: Default::default(),
        sampler_blob,
    }
    .encode(&mut bytes);
    bytes
}

#[test]
fn the_applier_answers_holds_while_a_shipment_waits_on_its_log() {
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let gate = Arc::new(SyncGate {
        armed: AtomicBool::new(false),
        parked: Mutex::new(parked_tx),
        release: Mutex::new(release_rx),
    });
    let backend = GatedBackend { inner: MemBackend::new(), gate: Arc::clone(&gate) };
    let applier = ReplicaApplier::new(Arc::new(backend), FsyncPolicy::PerOp);
    let snapshot = fresh_snapshot();
    for stream in ["busy", "other"] {
        let baseline = applier.apply(stream, 1, 0, Some(&snapshot), &[]);
        assert_eq!(baseline, Response::ReplState { generation: 1, next_seq: 0 });
    }
    let ids: Vec<NodeId> = (0..BATCH_LEN).map(NodeId::new).collect();
    let mut record = Vec::new();
    encode_record(&mut record, WalOpRef::Feed(&ids));

    gate.armed.store(true, Ordering::SeqCst);
    std::thread::scope(|scope| {
        let shipment = scope.spawn(|| applier.apply("busy", 1, 0, None, &record));
        parked_rx.recv_timeout(Duration::from_secs(10)).expect("the shipment reaches its fsync");
        let (answer_tx, answer_rx) = mpsc::channel();
        let applier = &applier;
        let prober = scope.spawn(move || {
            let answer = (applier.holds("other"), applier.held_streams());
            answer_tx.send(answer).expect("the test listens");
        });
        let answer = answer_rx.recv_timeout(ANSWER_BOUND);
        release_tx.send(()).expect("the shipment waits");
        prober.join().expect("prober");
        let applied = shipment.join().expect("shipment");
        assert_eq!(applied, Response::ReplState { generation: 1, next_seq: 1 });
        let (holds, held) = answer.expect("holds and held_streams wait on a shipment's fsync");
        assert!(holds, "the other stream is held");
        assert_eq!(held, ["busy", "other"]);
    });
}

#[test]
fn a_shipment_for_a_served_stream_is_refused_and_never_held() {
    let stream = "served";
    let mesh = Mesh::start(2, &MeshConfig::default());
    let names: Vec<String> = mesh.membership.nodes().iter().map(|n| n.name.clone()).collect();
    let placement = place(stream, &names, 1).expect("two live nodes");
    let node = &mesh.nodes[mesh.index_of(&placement.primary)];
    let mut client = ServiceClient::new(node.server().connect_in_process()).expect("client");
    client.create_stream(stream, &stream_config(EstimatorKind::CountMin)).expect("create");
    client.feed_batch(stream, &batch_ids(0, BATCH_LEN)).expect("feed");

    // What a peer that promoted the stream during a partition would ship
    // to this stale primary: a snapshot re-base, then a probe.
    let mut peer = ServiceClient::new(node.server().connect_in_process()).expect("peer");
    let rebase = peer.replicate(stream, 1, 0, Some(&fresh_snapshot()), &[]);
    assert!(matches!(rebase, Err(ServiceError::NotPrimary(_))), "re-base refused: {rebase:?}");
    let probe = peer.replicate(stream, 1, 0, None, &[]);
    assert!(matches!(probe, Err(ServiceError::NotPrimary(_))), "probe refused: {probe:?}");
    assert!(!node.applier().holds(stream), "a served name is never held");
    assert!(node.applier().held_streams().iter().all(|held| held != stream));

    // The stream keeps serving from its own log.
    let ack = client.feed_batch(stream, &batch_ids(1, BATCH_LEN)).expect("still served");
    assert_eq!(ack.position, 2 * BATCH_LEN, "no shipment touched the served stream");
    assert_eq!(client.stats(stream).expect("stats").durability.wal_records, 2);
    mesh.stop_all();
}
