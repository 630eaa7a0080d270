//! `Replicator::ship` runs the primary's local append exactly once per
//! record on every path a shipment can take: no placed peer, a session
//! still backing off, a failed send, a rejected ack, a timed-out ack —
//! and a panicking append poisons nothing. A rejected or timed-out ack
//! surfaces in the returned acks' wait; the session detaches at the next
//! ship. Each test drives the
//! replicator directly, with a real WAL as the local append and a real
//! replica applier behind a TCP listener, and ends with the replica's log
//! byte-identical to the primary's.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use uns_core::NodeId;
use uns_mesh::{AttachStats, Membership, NodeInfo, ReplicaApplier, Replicator};
use uns_service::fault::{FaultPlan, FaultSpec};
use uns_service::metrics::{stream_replication_handles, ReplicationHandles, ServiceMetrics};
use uns_service::protocol::{ErrorCode, EstimatorKind, HashFamilyKind, Response, StreamConfig};
use uns_service::sampler::ServiceSampler;
use uns_service::server::{ReplicaHandler, ReplicationSink, Server, ServerConfig};
use uns_service::storage::{MemBackend, StorageBackend};
use uns_service::wal::{encode_record, DurableSnapshot, FsyncPolicy, WalOpRef, WalWriter};
use uns_service::ReactorConfig;

const STREAM: &str = "paths";
/// Per-ack timeout of the replication sessions under test.
const OP_TIMEOUT: Duration = Duration::from_millis(100);
/// Longer than the replicator's 250 ms re-attach backoff.
const PAST_BACKOFF: Duration = Duration::from_millis(300);
/// A replica apply stall past [`OP_TIMEOUT`], and one well inside it.
const STALL: Duration = Duration::from_millis(300);
const SHORT_STALL: Duration = Duration::from_millis(50);

/// A fault the replica answers one record shipment (`first_seq`, no
/// snapshot) with.
#[derive(Clone, Copy)]
enum Fault {
    /// Apply after this long.
    Stall(Duration),
    /// Refuse without applying.
    Reject,
}

/// A real replica applier with one scripted fault.
struct Replica {
    applier: ReplicaApplier,
    backend: MemBackend,
    fault: Mutex<Option<(u64, Fault)>>,
}

impl ReplicaHandler for Replica {
    fn apply(
        &self,
        stream: &str,
        generation: u64,
        first_seq: u64,
        snapshot: Option<&[u8]>,
        records: &[u8],
    ) -> Response {
        let mut fault = self.fault.lock().expect("fault lock");
        let fires = snapshot.is_none()
            && !records.is_empty()
            && fault.is_some_and(|(seq, _)| seq == first_seq);
        if fires {
            match fault.take().map(|(_, fault)| fault) {
                Some(Fault::Stall(stall)) => std::thread::sleep(stall),
                _ => {
                    return Response::Error {
                        code: ErrorCode::Durability,
                        message: "scripted rejection".into(),
                    }
                }
            }
        }
        drop(fault);
        self.applier.apply(stream, generation, first_seq, snapshot, records)
    }

    fn holds(&self, stream: &str) -> bool {
        self.applier.holds(stream)
    }
}

/// The primary's durable stream: a snapshot at sequence 0 and an empty
/// log, the state a fresh durable create leaves behind.
fn primary_wal(backend: &MemBackend) -> WalWriter {
    let config = StreamConfig {
        kind: EstimatorKind::CountMin,
        capacity: 8,
        width: 16,
        depth: 4,
        seed: 3,
        family: HashFamilyKind::Mersenne,
    };
    let mut sampler_blob = Vec::new();
    ServiceSampler::create(&config).expect("sampler").snapshot(&mut sampler_blob);
    let mut snapshot = Vec::new();
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
    .encode(&mut snapshot);
    backend.write_snapshot(STREAM, &snapshot).expect("snapshot");
    WalWriter::create(backend.open_wal(STREAM).expect("wal"), 1, 0, FsyncPolicy::PerOp)
        .expect("log")
}

fn replicator(
    backend: &MemBackend,
    replica: Option<SocketAddr>,
    plan: Option<Arc<FaultPlan>>,
) -> Replicator {
    let unused: SocketAddr = "127.0.0.1:9".parse().expect("addr");
    let mut nodes = vec![NodeInfo { name: "primary".into(), addr: unused }];
    if let Some(addr) = replica {
        nodes.push(NodeInfo { name: "replica".into(), addr });
    }
    Replicator::new(
        "primary",
        Arc::new(Membership::new(nodes)),
        1,
        Arc::new(backend.clone()),
        Arc::new(ServiceMetrics::new(1)),
        Duration::from_millis(200),
        Some(OP_TIMEOUT),
        plan,
    )
}

/// The WAL record of feed batch `batch`.
fn record(batch: u64) -> Vec<u8> {
    let ids: Vec<NodeId> = (0..32).map(|i| NodeId::new(batch * 32 + i)).collect();
    let mut record = Vec::new();
    encode_record(&mut record, WalOpRef::Feed(&ids));
    record
}

/// The stream's replication series, as its owning worker hands them over.
fn series() -> ReplicationHandles {
    stream_replication_handles(ServiceMetrics::new(1).registry(), STREAM)
}

/// Ships batch `batch` as the primary's next record with the append to
/// `wal` as the local step, then waits out the acks the way a worker's
/// release thread does before replying; returns how often the local step
/// ran.
fn ship(replicator: &Replicator, wal: &mut WalWriter, batch: u64) -> u64 {
    let record = record(batch);
    let (generation, seq) = (wal.generation(), wal.next_seq());
    let mut calls = 0;
    let acks = replicator.ship(STREAM, &series(), generation, seq, &record, &mut || {
        calls += 1;
        wal.append_record(&record).is_ok()
    });
    if let Some(acks) = acks {
        acks.wait();
    }
    calls
}

fn wal_bytes(backend: &MemBackend) -> Vec<u8> {
    let mut bytes = Vec::new();
    backend.with_wal_bytes(STREAM, |b| bytes = b.clone());
    bytes
}

/// Stops the server when dropped, so a failing assertion unwinds out of
/// the scope that serves it instead of waiting on its reactor forever.
struct StopOnDrop<'a>(&'a Server);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Serves a [`Replica`] on a localhost listener for the duration of `run`.
fn with_replica(run: impl FnOnce(&Replica, SocketAddr)) {
    let backend = MemBackend::new();
    let replica = Arc::new(Replica {
        applier: ReplicaApplier::new(Arc::new(backend.clone()), FsyncPolicy::PerOp),
        backend,
        fault: Mutex::new(None),
    });
    let server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
    server.set_replica_handler(Arc::clone(&replica) as Arc<dyn ReplicaHandler>).expect("install");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let reactor = scope.spawn(|| server.serve_reactor(listener, ReactorConfig::default()));
        let stop = StopOnDrop(&server);
        run(&replica, addr);
        drop(stop);
        reactor.join().expect("reactor thread").expect("reactor exit");
    });
}

#[test]
fn no_placed_peer_runs_the_local_append_once() {
    let backend = MemBackend::new();
    let mut wal = primary_wal(&backend);
    let replicator = replicator(&backend, None, None);
    for batch in 0..3 {
        assert_eq!(ship(&replicator, &mut wal, batch), 1);
    }
    assert_eq!(wal.next_seq(), 3);
    assert_eq!(replicator.attach_stats(), AttachStats::default());
}

#[test]
fn a_session_in_backoff_runs_the_local_append_once() {
    // A replica address nothing listens on: the attach is refused.
    let dead = TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr");
    let backend = MemBackend::new();
    let mut wal = primary_wal(&backend);
    let replicator = replicator(&backend, Some(dead), None);
    assert_eq!(ship(&replicator, &mut wal, 0), 1, "failed attach");
    assert_eq!(ship(&replicator, &mut wal, 1), 1, "attach skipped while backing off");
    assert_eq!(wal.next_seq(), 2);
    assert_eq!(replicator.attach_stats(), AttachStats::default());
}

#[test]
fn failed_sends_and_acks_run_the_local_append_once() {
    with_replica(|replica, addr| {
        let backend = MemBackend::new();
        let mut wal = primary_wal(&backend);
        let plan = FaultPlan::new(1, FaultSpec::default());
        let replicator = replicator(&backend, Some(addr), Some(Arc::clone(&plan)));
        let position = || replica.applier.position(STREAM).map(|(_, next)| next);

        assert_eq!(ship(&replicator, &mut wal, 0), 1, "attach and ship");
        assert_eq!(position(), Some(1));

        plan.sever_for(1);
        assert_eq!(ship(&replicator, &mut wal, 1), 1, "failed send");
        assert_eq!(position(), Some(1), "the severed record never arrived");

        std::thread::sleep(PAST_BACKOFF);
        *replica.fault.lock().expect("fault lock") = Some((2, Fault::Reject));
        assert_eq!(ship(&replicator, &mut wal, 2), 1, "rejected ack");
        assert_eq!(position(), Some(2), "caught up to the rejected record");

        std::thread::sleep(PAST_BACKOFF);
        *replica.fault.lock().expect("fault lock") = Some((3, Fault::Stall(STALL)));
        assert_eq!(ship(&replicator, &mut wal, 3), 1, "timed-out ack");

        // The stalled record lands late; the next attach resumes after it.
        std::thread::sleep(PAST_BACKOFF.max(STALL));
        assert_eq!(ship(&replicator, &mut wal, 4), 1, "re-attach and ship");
        assert_eq!(position(), Some(5));
        assert_eq!(replicator.attach_stats(), AttachStats { full: 1, incremental: 3 });
        assert_eq!(wal_bytes(&replica.backend), wal_bytes(&backend), "replica log diverged");
    });
}

#[test]
fn a_panicking_local_append_poisons_nothing_and_rebases_the_replica() {
    with_replica(|replica, addr| {
        let backend = MemBackend::new();
        let mut wal = primary_wal(&backend);
        let replicator = replicator(&backend, Some(addr), None);
        assert_eq!(ship(&replicator, &mut wal, 0), 1);

        // The record goes out, then the append panics before writing it.
        // The panic is held until the replica, slow to apply, answers.
        *replica.fault.lock().expect("fault lock") = Some((1, Fault::Stall(SHORT_STALL)));
        let lost = record(100);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replicator.ship(STREAM, &series(), 1, 1, &lost, &mut || panic!("append panicked"))
        }));
        assert!(panicked.is_err(), "the panic reaches the caller");
        assert_eq!(replica.applier.position(STREAM).map(|(_, next)| next), Some(2));

        // A different record takes sequence 1 on the primary. The session
        // lock is intact, and the replica, holding the lost record, is
        // re-based on the primary's snapshot instead of keeping it.
        assert_eq!(ship(&replicator, &mut wal, 1), 1);
        assert_eq!(replica.applier.position(STREAM).map(|(_, next)| next), Some(2));
        assert_eq!(replicator.attach_stats(), AttachStats { full: 2, incremental: 0 });
        assert_eq!(wal_bytes(&replica.backend), wal_bytes(&backend), "replica log diverged");
    });
}
