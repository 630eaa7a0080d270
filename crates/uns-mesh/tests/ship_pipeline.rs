//! Pipelined shipments: a replicated op's reply waits for the replica's
//! ack on the worker's release thread, not on the worker. While one
//! stream's ack is outstanding, the same worker serves other streams; a
//! later worker-bound reply on that stream queues behind the held one,
//! while its floor estimate answers at once from the floor as of the last
//! acked write; a severed link
//! with records in flight costs no reply and re-attaches incrementally;
//! and a `Demote` answers only once its stream holds nothing.

mod common;

use common::batch_ids;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uns_mesh::{Membership, NodeInfo, ReplicaApplier, Replicator};
use uns_service::fault::{FaultPlan, FaultSpec};
use uns_service::metrics::stream_replication_handles;
use uns_service::protocol::{EstimatorKind, HashFamilyKind, Response, StreamConfig};
use uns_service::server::{
    DurabilityConfig, ReplicaHandler, ReplicationSink, Server, ServerConfig,
};
use uns_service::storage::{MemBackend, StorageBackend};
use uns_service::wal::FsyncPolicy;
use uns_service::{ReactorConfig, ServiceClient};

const BATCH_LEN: u64 = 64;
/// The replica apply stall while an ack is held.
const STALL: Duration = Duration::from_millis(200);
/// A read that needs no held ack (on another stream of the same worker,
/// or a floor estimate) must answer within this, a quarter of [`STALL`].
const UNBLOCKED: Duration = Duration::from_millis(50);
/// Longer than the replicator's 250 ms re-attach backoff.
const PAST_BACKOFF: Duration = Duration::from_millis(300);

fn config() -> StreamConfig {
    StreamConfig {
        kind: EstimatorKind::CountMin,
        capacity: 8,
        width: 16,
        depth: 4,
        seed: 3,
        family: HashFamilyKind::Mersenne,
    }
}

/// A real replica applier whose every shipment stalls for the armed
/// number of milliseconds, counting the stalls it has started.
struct SlowReplica {
    inner: ReplicaApplier,
    stall_ms: AtomicU64,
    stalls: AtomicU64,
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
        let stall = self.stall_ms.load(Ordering::Relaxed);
        if stall > 0 {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(stall));
        }
        self.inner.apply(stream, generation, first_seq, snapshot, records)
    }

    fn holds(&self, stream: &str) -> bool {
        self.inner.holds(stream)
    }
}

impl SlowReplica {
    fn arm(&self, stall: Duration) {
        self.stall_ms.store(stall.as_millis() as u64, Ordering::Relaxed);
    }

    /// Blocks until the replica starts stalling on a shipment after the
    /// `seen`-th.
    fn wait_for_stall_after(&self, seen: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.stalls.load(Ordering::Relaxed) <= seen {
            assert!(Instant::now() < deadline, "the replica never received the shipment");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn position(&self, stream: &str) -> Option<u64> {
        self.inner.position(stream).map(|(_, next)| next)
    }
}

/// A one-worker durable primary replicating to a durable replica server
/// whose applier stalls on demand.
struct Pair {
    primary: Server,
    primary_backend: MemBackend,
    replica: Server,
    replica_backend: MemBackend,
    handler: Arc<SlowReplica>,
    replicator: Arc<Replicator>,
    plan: Arc<FaultPlan>,
}

impl Pair {
    fn client(&self) -> ServiceClient<std::os::unix::net::UnixStream> {
        ServiceClient::new(self.primary.connect_in_process()).expect("client")
    }

    fn wal_bytes(backend: &MemBackend, stream: &str) -> Vec<u8> {
        let mut bytes = Vec::new();
        backend.with_wal_bytes(stream, |b| bytes = b.clone());
        bytes
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

/// Serves a [`Pair`] for the duration of `run`.
fn with_pair(run: impl FnOnce(&Pair)) {
    let replica_backend = MemBackend::new();
    let replica = Server::start_durable(
        ServerConfig { workers: 1, queue_depth: 8 },
        DurabilityConfig::new(Arc::new(replica_backend.clone())),
    )
    .expect("durable replica");
    let handler = Arc::new(SlowReplica {
        inner: ReplicaApplier::new(Arc::new(replica_backend.clone()), FsyncPolicy::PerOp),
        stall_ms: AtomicU64::new(0),
        stalls: AtomicU64::new(0),
    });
    replica.set_replica_handler(Arc::clone(&handler) as Arc<dyn ReplicaHandler>).expect("install");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let replica_addr = listener.local_addr().expect("addr");

    let primary_backend = MemBackend::new();
    let primary = Server::start_durable(
        ServerConfig { workers: 1, queue_depth: 16 },
        DurabilityConfig::new(Arc::new(primary_backend.clone())),
    )
    .expect("durable primary");
    // The primary is never dialled; only its replica is.
    let unused: SocketAddr = "127.0.0.1:9".parse().expect("addr");
    let membership = Arc::new(Membership::new(vec![
        NodeInfo { name: "primary".into(), addr: unused },
        NodeInfo { name: "replica".into(), addr: replica_addr },
    ]));
    let plan = FaultPlan::new(5, FaultSpec::default());
    let replicator = Arc::new(Replicator::new(
        "primary",
        membership,
        1,
        Arc::new(primary_backend.clone()) as Arc<dyn StorageBackend>,
        Arc::clone(primary.metrics()),
        Duration::from_secs(1),
        Some(Duration::from_secs(5)),
        Some(Arc::clone(&plan)),
    ));
    primary
        .set_replication_sink(Arc::clone(&replicator) as Arc<dyn ReplicationSink>)
        .expect("install");
    let pair =
        Pair { primary, primary_backend, replica, replica_backend, handler, replicator, plan };
    std::thread::scope(|scope| {
        let reactor =
            scope.spawn(|| pair.replica.serve_reactor(listener, ReactorConfig::default()));
        let stop = StopOnDrop(&pair.replica);
        run(&pair);
        drop(stop);
        reactor.join().expect("reactor thread").expect("reactor exit");
    });
}

/// The snapshot a durable server recovers from `backend`'s state alone.
fn replayed_snapshot(backend: &MemBackend, stream: &str) -> Vec<u8> {
    let durability = DurabilityConfig::new(Arc::new(backend.clone()));
    let server = Server::start_durable(ServerConfig::default(), durability).expect("recovery");
    let mut client = ServiceClient::new(server.connect_in_process()).expect("client");
    client.snapshot(stream).expect("replayed snapshot")
}

/// Runs `read` against one uninterrupted node whose `stream` was fed
/// `batches` in order.
fn read_reference<R>(
    stream: &str,
    batches: &[u64],
    read: impl FnOnce(&mut ServiceClient<std::os::unix::net::UnixStream>) -> R,
) -> R {
    let server = Server::start(ServerConfig::default());
    let mut client = ServiceClient::new(server.connect_in_process()).expect("client");
    client.create_stream(stream, &config()).expect("create");
    for &b in batches {
        client.feed_batch(stream, &batch_ids(b, BATCH_LEN)).expect("reference feed");
    }
    read(&mut client)
}

/// The snapshot of one uninterrupted node fed `batches` in order.
fn reference_snapshot(stream: &str, batches: &[u64]) -> Vec<u8> {
    read_reference(stream, batches, |client| client.snapshot(stream).expect("snapshot"))
}

/// The floor estimate of one uninterrupted node fed `batches` in order.
fn reference_floor(stream: &str, batches: &[u64]) -> u64 {
    read_reference(stream, batches, |client| client.floor_estimate(stream).expect("floor"))
}

#[test]
fn a_held_reply_leaves_the_worker_free_and_orders_its_stream() {
    with_pair(|pair| {
        let (x, y) = ("held", "other");
        let mut writer = pair.client();
        let mut reader = pair.client();
        writer.create_stream(x, &config()).expect("create x");
        // Same worker: the primary runs one.
        writer.create_stream(y, &config()).expect("create y");
        writer.feed_batch(x, &batch_ids(0, BATCH_LEN)).expect("attaching feed");
        assert_eq!(pair.handler.position(x), Some(1));
        // The held feed repeats batch 0: it doubles every counter batch 0
        // touched, so it doubles the floor (the least nonzero counter).
        let (floor_before, floor_after) = (reference_floor(x, &[0]), reference_floor(x, &[0, 0]));
        assert!(
            floor_before > 0 && floor_after == 2 * floor_before,
            "the held feed must move the floor: {floor_before} -> {floor_after}"
        );

        pair.handler.arm(STALL);
        let seen = pair.handler.stalls.load(Ordering::Relaxed);
        std::thread::scope(|scope| {
            let feed = scope.spawn(move || writer.feed_batch(x, &batch_ids(0, BATCH_LEN)));
            pair.handler.wait_for_stall_after(seen);

            // (a) The worker is free while x's ack is outstanding.
            let started = Instant::now();
            reader.stats(y).expect("stats on the other stream");
            let read = started.elapsed();
            assert!(
                read < UNBLOCKED,
                "a read on another stream took {read:?} behind a {STALL:?} replica ack"
            );

            // A floor estimate on x neither waits for the held feed nor
            // reports it: it answers with the floor from before the feed.
            let started = Instant::now();
            let floor = reader.floor_estimate(x).expect("floor on the held stream");
            let read = started.elapsed();
            assert!(read < UNBLOCKED, "a floor estimate took {read:?} behind a held write");
            assert_eq!(floor, floor_before, "the floor reported a write that is not yet acked");

            // (b) A read on x queues behind x's held feed reply.
            assert_eq!(pair.handler.position(x), Some(1), "the feed's ack is still outstanding");
            let stats = reader.stats(x).expect("stats on the held stream");
            assert_eq!(
                pair.handler.position(x),
                Some(2),
                "the read was answered before the earlier write was acked"
            );
            let fed = feed.join().expect("feed thread").expect("held feed");
            assert_eq!(fed.position, 2 * BATCH_LEN);
            assert_eq!(stats.pipeline.elements, fed.position, "stats missed the earlier feed");
            assert_eq!(stats.replication.lag_records, 0, "the feed's ack is in");
            let floor = reader.floor_estimate(x).expect("floor after the ack");
            assert_eq!(floor, floor_after, "the acked feed's floor was not published");
        });
        pair.handler.arm(Duration::ZERO);
        let text = pair.primary.metrics().render();
        let waits = text
            .lines()
            .find_map(|line| line.strip_prefix("uns_replication_ack_wait_nanos_count "))
            .and_then(|count| count.trim().parse::<u64>().ok())
            .expect("the ack-wait histogram is exported");
        assert_eq!(waits, 2, "one ack wait per shipped record");
    });
}

#[test]
fn a_severed_link_with_records_in_flight_loses_no_reply() {
    with_pair(|pair| {
        let stream = "severed";
        let mut setup = pair.client();
        setup.create_stream(stream, &config()).expect("create");
        setup.feed_batch(stream, &batch_ids(0, BATCH_LEN)).expect("attaching feed");
        let attached = pair.replicator.attach_stats();
        assert_eq!((attached.full, attached.incremental), (1, 0));

        // Two connections keep a record in flight most of the time.
        pair.handler.arm(Duration::from_millis(5));
        let lag = stream_replication_handles(pair.primary.metrics().registry(), stream).lag;
        let fed: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let feeders: Vec<_> = (1..=2u64)
                .map(|conn| {
                    let mut client = pair.client();
                    scope.spawn(move || {
                        (0..30)
                            .map(|i| {
                                let batch = conn * 1000 + i;
                                let ack = client
                                    .feed_batch(stream, &batch_ids(batch, BATCH_LEN))
                                    .expect("every feed gets its reply");
                                (ack.position, batch)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            while lag.get() == 0 {
                assert!(Instant::now() < deadline, "no record was ever in flight");
                std::thread::yield_now();
            }
            pair.plan.sever_for(1);
            feeders.into_iter().flat_map(|f| f.join().expect("feeder")).collect()
        });
        pair.handler.arm(Duration::ZERO);

        // Let the backoff run out; the next op re-attaches from the
        // replica's own position.
        std::thread::sleep(PAST_BACKOFF);
        let last = setup.feed_batch(stream, &batch_ids(9999, BATCH_LEN)).expect("final feed");
        let stats = pair.replicator.attach_stats();
        assert_eq!(stats.full, 1, "the re-attach shipped the snapshot again");
        assert!(stats.incremental >= 1, "the link never re-attached");

        // Every reply carries a distinct position; in position order the
        // batches are the stream order.
        let mut order: Vec<(u64, u64)> = vec![(BATCH_LEN, 0)];
        order.extend(fed);
        order.push((last.position, 9999));
        order.sort_unstable();
        for (i, (position, _)) in order.iter().enumerate() {
            assert_eq!(*position, (i as u64 + 1) * BATCH_LEN, "a reply is missing or doubled");
        }
        let batches: Vec<u64> = order.iter().map(|&(_, batch)| batch).collect();
        let live = setup.snapshot(stream).expect("live snapshot");
        assert_eq!(live, reference_snapshot(stream, &batches), "live state diverged");

        assert_eq!(pair.handler.position(stream), Some(batches.len() as u64));
        let primary_wal = Pair::wal_bytes(&pair.primary_backend, stream);
        assert_eq!(primary_wal, Pair::wal_bytes(&pair.replica_backend, stream), "logs diverged");
        for backend in [&pair.primary_backend, &pair.replica_backend] {
            assert_eq!(replayed_snapshot(backend, stream), live, "durable state does not replay");
        }
    });
}

#[test]
fn demote_answers_only_once_its_stream_holds_nothing() {
    with_pair(|pair| {
        let stream = "demoted";
        let mut writer = pair.client();
        writer.create_stream(stream, &config()).expect("create");
        writer.feed_batch(stream, &batch_ids(0, BATCH_LEN)).expect("attaching feed");

        pair.handler.arm(STALL);
        let seen = pair.handler.stalls.load(Ordering::Relaxed);
        std::thread::scope(|scope| {
            let feed = scope.spawn(move || writer.feed_batch(stream, &batch_ids(1, BATCH_LEN)));
            pair.handler.wait_for_stall_after(seen);
            assert_eq!(pair.handler.position(stream), Some(1), "the feed's ack is outstanding");
            pair.primary.demote_stream(stream).expect("demote");
            assert_eq!(
                pair.handler.position(stream),
                Some(2),
                "demote answered while a reply on its stream was held"
            );
            let fed = feed.join().expect("feed thread").expect("held feed");
            assert_eq!(fed.position, 2 * BATCH_LEN);
        });
        pair.handler.arm(Duration::ZERO);
        assert_eq!(
            Pair::wal_bytes(&pair.primary_backend, stream),
            Pair::wal_bytes(&pair.replica_backend, stream),
            "logs diverged"
        );

        // Promotion starts from the quiesced stream: bit-equal to one
        // uninterrupted node.
        assert!(pair.handler.inner.release(stream));
        pair.replica.adopt_stream(stream).expect("promotion");
        let mut promoted = ServiceClient::new(pair.replica.connect_in_process()).expect("client");
        assert_eq!(
            promoted.snapshot(stream).expect("promoted snapshot"),
            reference_snapshot(stream, &[0, 1]),
            "the promoted stream diverged"
        );
    });
}
