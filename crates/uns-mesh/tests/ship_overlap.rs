//! The primary's durable append overlaps the replica round trip: the
//! replicator sends the record to the replica and appends and fsyncs it
//! locally while the replica applies it; the reply goes out once the ack
//! is in.
//! With a replica whose apply stalls [`STALL`] and a primary WAL whose
//! fsync stalls [`STALL`], one durable `FeedBatch` therefore replies in
//! about one stall; run one after the other, the two stalls add up to at
//! least `2 × STALL`.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uns_core::NodeId;
use uns_mesh::{Membership, NodeInfo, ReplicaApplier, Replicator};
use uns_service::protocol::{EstimatorKind, HashFamilyKind, Response, StreamConfig};
use uns_service::server::{
    DurabilityConfig, ReplicaHandler, ReplicationSink, Server, ServerConfig,
};
use uns_service::storage::{MemBackend, StorageBackend, WalStore};
use uns_service::wal::FsyncPolicy;
use uns_service::{ReactorConfig, ServiceClient};

/// How long the replica's apply and the primary's fsync each stall, and
/// the bound on the op's round trip while both do.
const STALL: Duration = Duration::from_millis(200);
const BOUND: Duration = Duration::from_millis(350);

/// A memory backend whose WAL `sync` stalls [`STALL`] once armed.
struct SlowSync {
    inner: MemBackend,
    armed: Arc<AtomicBool>,
}

struct SlowSyncStore {
    inner: Box<dyn WalStore>,
    armed: Arc<AtomicBool>,
}

impl WalStore for SlowSyncStore {
    fn append(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.armed.load(Ordering::Relaxed) {
            std::thread::sleep(STALL);
        }
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

impl StorageBackend for SlowSync {
    fn open_wal(&self, stream: &str) -> io::Result<Box<dyn WalStore>> {
        let inner = self.inner.open_wal(stream)?;
        Ok(Box::new(SlowSyncStore { inner, armed: Arc::clone(&self.armed) }))
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

/// A real replica applier whose every shipment stalls [`STALL`] once
/// armed.
struct SlowReplica {
    inner: ReplicaApplier,
    armed: AtomicBool,
}

impl ReplicaHandler for SlowReplica {
    fn apply(
        &self,
        stream: &str,
        generation: u64,
        first_seq: u64,
        snapshot: Option<&[u8]>,
        records: &[u8],
    ) -> Response {
        if self.armed.load(Ordering::Relaxed) {
            std::thread::sleep(STALL);
        }
        self.inner.apply(stream, generation, first_seq, snapshot, records)
    }

    fn holds(&self, stream: &str) -> bool {
        self.inner.holds(stream)
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

fn ids(batch: u64) -> Vec<NodeId> {
    (0..64).map(|i| NodeId::new(batch * 64 + i)).collect()
}

#[test]
fn the_local_fsync_overlaps_the_replica_round_trip() {
    let stream = "overlap";
    let replica_server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
    let replica = Arc::new(SlowReplica {
        inner: ReplicaApplier::new(Arc::new(MemBackend::new()), FsyncPolicy::PerOp),
        armed: AtomicBool::new(false),
    });
    replica_server
        .set_replica_handler(Arc::clone(&replica) as Arc<dyn ReplicaHandler>)
        .expect("install");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let replica_addr = listener.local_addr().expect("addr");

    let armed = Arc::new(AtomicBool::new(false));
    let backend: Arc<dyn StorageBackend> =
        Arc::new(SlowSync { inner: MemBackend::new(), armed: Arc::clone(&armed) });
    let primary = Server::start_durable(
        ServerConfig { workers: 1, queue_depth: 8 },
        DurabilityConfig::new(Arc::clone(&backend)),
    )
    .expect("durable primary");
    // The primary is never dialled; only its replica is.
    let unused: SocketAddr = "127.0.0.1:9".parse().expect("addr");
    let membership = Arc::new(Membership::new(vec![
        NodeInfo { name: "primary".into(), addr: unused },
        NodeInfo { name: "replica".into(), addr: replica_addr },
    ]));
    let replicator = Replicator::new(
        "primary",
        membership,
        1,
        backend,
        Arc::clone(primary.metrics()),
        Duration::from_secs(1),
        Some(Duration::from_secs(5)),
        None,
    );
    primary
        .set_replication_sink(Arc::new(replicator) as Arc<dyn ReplicationSink>)
        .expect("install");

    std::thread::scope(|scope| {
        let reactor =
            scope.spawn(|| replica_server.serve_reactor(listener, ReactorConfig::default()));
        let stop = StopOnDrop(&replica_server);
        let mut client = ServiceClient::new(primary.connect_in_process()).expect("client");
        let config = StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 8,
            width: 16,
            depth: 4,
            seed: 3,
            family: HashFamilyKind::Mersenne,
        };
        client.create_stream(stream, &config).expect("create");
        // Unarmed first op: attaches the replica with the snapshot.
        client.feed_batch(stream, &ids(0)).expect("attaching feed");
        assert_eq!(replica.inner.position(stream).map(|(_, next)| next), Some(1));

        armed.store(true, Ordering::Relaxed);
        replica.armed.store(true, Ordering::Relaxed);
        // Best of three, so one scheduler hiccup cannot fail the test; a
        // serial ship-then-append path takes at least 2 × STALL on each.
        let mut fastest = Duration::MAX;
        for batch in 1..=3 {
            let started = Instant::now();
            let ack = client.feed_batch(stream, &ids(batch)).expect("durable feed");
            fastest = fastest.min(started.elapsed());
            assert_eq!(ack.position, (batch + 1) * 64);
        }
        armed.store(false, Ordering::Relaxed);
        replica.armed.store(false, Ordering::Relaxed);
        assert_eq!(
            replica.inner.position(stream).map(|(_, next)| next),
            Some(4),
            "every acked record is durable on the replica"
        );
        assert!(
            fastest < BOUND,
            "a {STALL:?} replica apply and a {STALL:?} local fsync took {fastest:?}: they ran \
             one after the other"
        );
        drop(stop);
        reactor.join().expect("reactor thread").expect("reactor exit");
    });
}
