//! End-to-end exactness of the networked service. Driving a workload
//! through the service (any connection count, in-process socket pair or
//! reactor TCP — both run the same connection core) must leave sampler memory,
//! estimator cells and RNG state **bit-equal** to a sequential in-process
//! `feed` of the same stream order; and snapshot → restore → feed must be
//! bit-equal to never having stopped.
//!
//! Stream order under concurrency is whatever interleaving the owning
//! worker processed — each reply's `position` field exposes it, so the
//! tests reconstruct the exact global order afterwards and replay it
//! in-process. Debug builds run reduced streams so `cargo test` stays
//! fast; release builds run the full million elements (CI pins this).

use std::sync::Mutex;
use uns_core::NodeId;
use uns_service::protocol::{EstimatorKind, HashFamilyKind, StreamConfig};
use uns_service::server::{Server, ServerConfig};
use uns_service::{ServiceClient, ServiceSampler};
use uns_streams::adversary::peak_attack_distribution;
use uns_streams::IdStream;

fn scale(release: usize, debug: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

fn test_config(kind: EstimatorKind) -> StreamConfig {
    StreamConfig {
        kind,
        capacity: 10,
        width: 10,
        depth: 5,
        seed: 42,
        family: HashFamilyKind::Mersenne,
    }
}

/// One served batch as the test records it: where the worker placed it in
/// the stream, what it contained, what came back.
struct ServedBatch {
    position: u64,
    ids: Vec<NodeId>,
    outputs: Vec<NodeId>,
}

/// Drives `stream` through `connections` concurrent clients in batches of
/// `batch_len`, returning every served batch with its stream position.
fn drive_concurrently(
    server: &Server,
    stream_name: &str,
    stream: &[NodeId],
    connections: usize,
    batch_len: usize,
) -> Vec<ServedBatch> {
    let served = Mutex::new(Vec::new());
    let slice_len = stream.len().div_ceil(connections);
    std::thread::scope(|scope| {
        for slice in stream.chunks(slice_len) {
            scope.spawn(|| {
                let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
                for batch in slice.chunks(batch_len) {
                    let ack = loop {
                        match client.feed_batch(stream_name, batch) {
                            Ok(ack) => break ack,
                            Err(uns_service::ServiceError::Busy) => {
                                std::thread::sleep(std::time::Duration::from_micros(20));
                            }
                            Err(err) => panic!("feed failed: {err}"),
                        }
                    };
                    assert_eq!(ack.outputs.len(), batch.len());
                    served.lock().unwrap().push(ServedBatch {
                        position: ack.position,
                        ids: batch.to_vec(),
                        outputs: ack.outputs,
                    });
                }
            });
        }
    });
    let mut served = served.into_inner().unwrap();
    served.sort_by_key(|batch| batch.position);
    served
}

/// Replays the served interleaving in-process and checks bit-equality of
/// outputs, then of the full sampler state via snapshot bytes.
fn assert_bit_equal_to_sequential(
    server: &Server,
    stream_name: &str,
    config: &StreamConfig,
    served: &[ServedBatch],
) {
    let mut reference = ServiceSampler::create(config).unwrap();
    let mut expected = Vec::new();
    let mut position = 0u64;
    for batch in served {
        position += batch.ids.len() as u64;
        assert_eq!(batch.position, position, "positions define a gapless order");
        expected.clear();
        reference.feed_batch(&batch.ids, &mut expected);
        assert_eq!(batch.outputs, expected, "outputs diverged at position {position}");
    }
    // Full state: the service-side snapshot is byte-identical to the
    // reference sampler's — memory incl. slot order, estimator cells,
    // floor inputs, RNG state.
    let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
    let service_blob = client.snapshot(stream_name).unwrap();
    let mut reference_blob = Vec::new();
    reference.snapshot(&mut reference_blob);
    assert_eq!(service_blob, reference_blob, "snapshot bytes diverged");
}

/// The headline acceptance test: a million-element adversarial stream
/// over several concurrent in-process connections is bit-equal to
/// sequential in-process feeding of the served order.
#[test]
fn concurrent_service_feed_is_bit_equal_to_sequential_feed() {
    let len = scale(1_000_000, 60_000);
    let stream: Vec<NodeId> =
        IdStream::new(peak_attack_distribution(10_000).unwrap(), 7).take(len).collect();
    for (connections, kind) in [
        (1usize, EstimatorKind::CountMin),
        (3, EstimatorKind::CountMin),
        (2, EstimatorKind::CountSketch),
        (2, EstimatorKind::Exact),
    ] {
        let config = test_config(kind);
        let server = Server::start(ServerConfig { workers: 2, queue_depth: 32 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("acceptance", &config).unwrap();
        let served = drive_concurrently(&server, "acceptance", &stream, connections, 4096);
        assert_bit_equal_to_sequential(&server, "acceptance", &config, &served);
        let stats = client.stats("acceptance").unwrap();
        assert_eq!(stats.pipeline.elements, len as u64, "{connections} connections, {kind:?}");
        assert_eq!(stats.pipeline.outputs, len as u64);
    }
}

/// The headline exactness over TCP, where every connection is driven by
/// **one reactor thread**: adversarial streams over two and four
/// concurrent connections must be bit-equal to sequential in-process
/// feeding of the served order. The reactor is a different front door to
/// the same workers — if it changes a single bit, this fails.
#[test]
fn reactor_service_feed_is_bit_equal_to_sequential_feed() {
    if !epoll::supported() {
        eprintln!("skipping: the vendored epoll poller is unsupported on this platform");
        return;
    }
    let config = test_config(EstimatorKind::CountMin);
    let server = Server::start(ServerConfig { workers: 2, queue_depth: 32 });
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            server.serve_reactor(listener, uns_service::ReactorConfig::default()).unwrap()
        });
        let connect = || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
        };
        let mut client = ServiceClient::new(connect()).unwrap();
        // (connections, stream length, attack domain, stream seed)
        for (connections, len, domain, seed) in [
            (2usize, scale(200_000, 30_000), 5_000, 9u64),
            (4, scale(1_000_000, 60_000), 10_000, 13),
        ] {
            let name = format!("reactor-{connections}");
            let stream: Vec<NodeId> =
                IdStream::new(peak_attack_distribution(domain).unwrap(), seed).take(len).collect();
            client.create_stream(&name, &config).unwrap();
            let served = Mutex::new(Vec::new());
            std::thread::scope(|inner| {
                for slice in stream.chunks(stream.len().div_ceil(connections)) {
                    let (name, served) = (&name, &served);
                    inner.spawn(move || {
                        let mut client = ServiceClient::new(connect()).unwrap();
                        for batch in slice.chunks(2048) {
                            let ack = loop {
                                match client.feed_batch(name, batch) {
                                    Ok(ack) => break ack,
                                    Err(uns_service::ServiceError::Busy) => {}
                                    Err(err) => panic!("feed failed: {err}"),
                                }
                            };
                            assert_eq!(ack.outputs.len(), batch.len());
                            served.lock().unwrap().push(ServedBatch {
                                position: ack.position,
                                ids: batch.to_vec(),
                                outputs: ack.outputs,
                            });
                        }
                    });
                }
            });
            let mut served = served.into_inner().unwrap();
            served.sort_by_key(|batch| batch.position);
            assert_bit_equal_to_sequential(&server, &name, &config, &served);
        }
        server.stop();
    });
}

/// Snapshot mid-stream, restore on a **fresh server** (a restart), feed
/// the tail to both: the restored service is bit-equal to the one that
/// never stopped — outputs and full final state — at a million elements
/// in release.
#[test]
fn restore_then_feed_is_bit_equal_to_uninterrupted_feed() {
    let len = scale(1_000_000, 60_000);
    let head_len = len / 2;
    let stream: Vec<NodeId> =
        IdStream::new(peak_attack_distribution(10_000).unwrap(), 21).take(len).collect();
    for kind in [EstimatorKind::CountMin, EstimatorKind::CountSketch, EstimatorKind::Exact] {
        let config = test_config(kind);

        // The service that never stops.
        let uninterrupted = Server::start(ServerConfig { workers: 1, queue_depth: 32 });
        let mut live = ServiceClient::new(uninterrupted.connect_in_process()).unwrap();
        live.create_stream("s", &config).unwrap();
        for batch in stream[..head_len].chunks(4096) {
            live.feed_batch("s", batch).unwrap();
        }
        let blob = live.snapshot("s").unwrap();

        // A restarted service, resumed from the snapshot.
        let restarted = Server::start(ServerConfig { workers: 1, queue_depth: 32 });
        let mut resumed = ServiceClient::new(restarted.connect_in_process()).unwrap();
        resumed.restore("s", &blob).unwrap();

        // Both consume the identical tail.
        for batch in stream[head_len..].chunks(4096) {
            let out_live = live.feed_batch("s", batch).unwrap().outputs;
            let out_resumed = resumed.feed_batch("s", batch).unwrap().outputs;
            assert_eq!(out_live, out_resumed, "{kind:?} diverged after restore");
        }
        assert_eq!(
            live.snapshot("s").unwrap(),
            resumed.snapshot("s").unwrap(),
            "{kind:?}: final states not byte-identical"
        );
        assert_eq!(live.floor_estimate("s").unwrap(), resumed.floor_estimate("s").unwrap());
    }
}
