//! Head-of-line isolation of the reactor thread: a slow durable create
//! or a slow replica shipment on one connection must not stall the other
//! connections the same reactor serves. Both run off the reactor (the
//! create on a worker, the shipment on the replica applier) and reply
//! through completions, so the reactor answers everyone else —
//! here, a `Metrics` round trip on a second connection — while the slow
//! job is still running. And routing asks the replica side only about
//! names the registry does not serve: a replica handler slow to answer
//! `holds` stalls no op on a served stream.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use uns_core::NodeId;
use uns_service::error::ServiceError;
use uns_service::protocol::{EstimatorKind, HashFamilyKind, Request, Response, StreamConfig};
use uns_service::server::{DurabilityConfig, ReplicaHandler, Server, ServerConfig};
use uns_service::storage::{MemBackend, StorageBackend, WalStore};
use uns_service::wire::{read_frame, write_frame};
use uns_service::{ReactorConfig, ServiceClient};

/// How long the slow job stalls, and the bound on the other connection's
/// round trip while it does.
const STALL: Duration = Duration::from_millis(500);
const BOUND: Duration = Duration::from_millis(250);

/// A memory backend whose `open_wal` stalls once armed — a durable create
/// opens its log, so the create's job takes [`STALL`].
struct SlowWal {
    inner: MemBackend,
    armed: AtomicBool,
}

impl StorageBackend for SlowWal {
    fn open_wal(&self, stream: &str) -> io::Result<Box<dyn WalStore>> {
        if self.armed.load(Ordering::Relaxed) {
            std::thread::sleep(STALL);
        }
        self.inner.open_wal(stream)
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

/// The one stream name [`SlowReplica`] holds.
const HELD: &str = "held";

/// A replica handler whose every shipment takes [`STALL`], holding only
/// [`HELD`]; its `holds` parks while [`SlowReplica::park_holds`]'s guard
/// lives.
#[derive(Default)]
struct SlowReplica {
    holds_parked: Mutex<bool>,
    unparked: Condvar,
}

impl SlowReplica {
    fn park_holds(&self) -> HoldsParked<'_> {
        *self.holds_parked.lock().expect("park lock") = true;
        HoldsParked(self)
    }
}

/// Unparks [`SlowReplica::holds`] when dropped, failing assertions too.
struct HoldsParked<'a>(&'a SlowReplica);

impl Drop for HoldsParked<'_> {
    fn drop(&mut self) {
        *self.0.holds_parked.lock().expect("park lock") = false;
        self.0.unparked.notify_all();
    }
}

impl ReplicaHandler for SlowReplica {
    fn apply(
        &self,
        _stream: &str,
        generation: u64,
        first_seq: u64,
        _snapshot: Option<&[u8]>,
        _records: &[u8],
    ) -> Response {
        std::thread::sleep(STALL);
        Response::ReplState { generation, next_seq: first_seq }
    }

    fn holds(&self, stream: &str) -> bool {
        let mut parked = self.holds_parked.lock().expect("park lock");
        while *parked {
            parked = self.unparked.wait(parked).expect("park lock");
        }
        stream == HELD
    }
}

/// Stops the server when dropped, so a failing assertion unwinds out of
/// the scope that serves it instead of waiting on its reactor forever.
struct StopOnDrop<'a>(&'a Server);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream
}

/// Serves `server` through the reactor; connection A sends `slow` (a raw
/// request body) and, while its job runs, connection B times a `Metrics`
/// round trip. Returns B's round trip and A's eventual reply.
fn race(server: &Server, slow: &[u8]) -> (Duration, Response) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let reactor = scope.spawn(|| server.serve_reactor(listener, ReactorConfig::default()));
        let mut a = connect(addr);
        let mut b = ServiceClient::new(connect(addr)).expect("client");
        b.metrics().expect("warm-up round trip");
        write_frame(&mut a, slow).expect("slow request");
        // Let the reactor pick the slow request up first.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        b.metrics().expect("metrics round trip");
        let elapsed = started.elapsed();
        let mut frame = Vec::new();
        assert!(read_frame(&mut a, &mut frame).expect("slow reply"), "connection A closed");
        server.stop();
        reactor.join().expect("reactor thread").expect("reactor exit");
        (elapsed, Response::decode(&frame).expect("reply decodes"))
    })
}

#[test]
fn a_slow_durable_create_does_not_stall_other_connections() {
    let backend = Arc::new(SlowWal { inner: MemBackend::new(), armed: AtomicBool::new(false) });
    let durability = DurabilityConfig::new(Arc::clone(&backend) as Arc<dyn StorageBackend>);
    let server =
        Server::start_durable(ServerConfig { workers: 1, queue_depth: 8 }, durability).unwrap();
    backend.armed.store(true, Ordering::Relaxed);
    let config = StreamConfig {
        kind: EstimatorKind::CountMin,
        capacity: 8,
        width: 16,
        depth: 4,
        seed: 3,
        family: HashFamilyKind::Mersenne,
    };
    let mut create = Vec::new();
    Request::CreateStream { name: "slow", config }.encode(&mut create);
    let (elapsed, reply) = race(&server, &create);
    assert_eq!(reply, Response::Ok, "the slow create still succeeds");
    assert!(elapsed < BOUND, "a {STALL:?} create stalled another connection for {elapsed:?}");
}

#[test]
fn a_slow_replica_shipment_does_not_stall_other_connections() {
    let server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
    server.set_replica_handler(Arc::new(SlowReplica::default())).expect("install");
    let mut ship = Vec::new();
    Request::Replicate { name: "r", generation: 1, first_seq: 4, snapshot: None, records: &[] }
        .encode(&mut ship);
    let (elapsed, reply) = race(&server, &ship);
    assert_eq!(reply, Response::ReplState { generation: 1, next_seq: 4 });
    assert!(elapsed < BOUND, "a {STALL:?} shipment stalled another connection for {elapsed:?}");
}

#[test]
fn a_replica_handler_slow_to_answer_holds_stalls_no_served_stream() {
    let server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
    let replica = Arc::new(SlowReplica::default());
    server.set_replica_handler(Arc::clone(&replica) as Arc<dyn ReplicaHandler>).expect("install");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let reactor = scope.spawn(|| server.serve_reactor(listener, ReactorConfig::default()));
        let stop = StopOnDrop(&server);
        let mut client = ServiceClient::new(connect(addr)).expect("client");
        client.set_op_timeout(Some(Duration::from_secs(2))).expect("op timeout");
        let config = StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 8,
            width: 16,
            depth: 4,
            seed: 3,
            family: HashFamilyKind::Mersenne,
        };
        client.create_stream("served", &config).expect("create");
        let ids: Vec<NodeId> = (0..64u64).map(NodeId::new).collect();
        {
            // While `holds` is parked, a feed on the served stream answers:
            // routing never asks the replica side about it.
            let _parked = replica.park_holds();
            let started = Instant::now();
            client.feed_batch("served", &ids).expect("the feed answers while holds is parked");
            let elapsed = started.elapsed();
            assert!(elapsed < BOUND, "a parked holds stalled a served stream for {elapsed:?}");
        }
        // A create of a held name still asks, and still bounces.
        let err = client.create_stream(HELD, &config).expect_err("a held name is not created");
        assert!(matches!(err, ServiceError::NotPrimary(_)), "expected NotPrimary, got {err:?}");
        drop(stop);
        reactor.join().expect("reactor thread").expect("reactor exit");
    });
}
