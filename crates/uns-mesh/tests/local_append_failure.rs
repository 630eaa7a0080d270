//! The primary's local append fails after the record already went out to
//! the replica: a torn write, or a failed fsync. The replica may then
//! hold a record the primary's recovered log does not (or holds at a
//! different log base), so the client must get the `Durability` error,
//! the next op must re-base the replica with a full snapshot ship, and at
//! the end both nodes' logs must be byte-identical and replay bit-equal to
//! the primary's live sampler and to an uninterrupted single-node run.

mod common;

use common::{batch_ids, stream_config, Mesh};
use std::net::TcpStream;
use std::sync::Arc;
use uns_mesh::{place, MeshConfig};
use uns_service::client::ServiceClient;
use uns_service::error::ServiceError;
use uns_service::fault::{FaultBackend, FaultPlan, FaultSpec};
use uns_service::protocol::EstimatorKind;
use uns_service::server::{DurabilityConfig, Server, ServerConfig};
use uns_service::storage::{MemBackend, StorageBackend};

const BATCH_LEN: u64 = 32;
/// Batches fed before the fault; the faulted op is batch `BEFORE`.
const BEFORE: u64 = 4;
/// Batches fed after the faulted one.
const AFTER: u64 = 5;

/// The snapshot a durable server recovers from `backend`'s state alone.
fn replayed_snapshot(backend: &Arc<MemBackend>, stream: &str) -> Vec<u8> {
    let durability = DurabilityConfig::new(Arc::clone(backend) as Arc<dyn StorageBackend>);
    let server = Server::start_durable(ServerConfig::default(), durability).expect("recovery");
    let mut client = ServiceClient::new(server.connect_in_process()).expect("client");
    client.snapshot(stream).expect("replayed snapshot")
}

/// Runs the scenario with the fault `arm` schedules; returns whether the
/// faulted batch ended up applied.
fn run(label: &str, arm: impl Fn(&FaultPlan)) -> bool {
    let stream = format!("local-{label}");
    let names = ["n0".to_string(), "n1".to_string()];
    let placement = place(&stream, &names, 1).expect("two live nodes");
    let plan = FaultPlan::new(7, FaultSpec::default());
    let mesh = Mesh::start_with(2, &MeshConfig::default(), |i, backend| {
        if names[i] == placement.primary {
            Arc::new(FaultBackend::new(backend.clone(), Arc::clone(&plan)))
        } else {
            backend.clone()
        }
    });
    let primary = mesh.index_of(&placement.primary);
    let replica = mesh.index_of(&placement.replicas[0]);
    let tcp = TcpStream::connect(mesh.membership.nodes()[primary].addr).expect("connect");
    tcp.set_nodelay(true).expect("nodelay");
    let mut client = ServiceClient::new(tcp).expect("client");
    client.create_stream(&stream, &stream_config(EstimatorKind::CountMin)).expect("create");
    for b in 0..BEFORE {
        client.feed_batch(&stream, &batch_ids(b, BATCH_LEN)).expect("feed before the fault");
    }
    let replicator = mesh.nodes[primary].replicator();
    assert_eq!(replicator.attach_stats().full, 1, "{label}: one attach so far");

    arm(&plan);
    match client.feed_batch(&stream, &batch_ids(BEFORE, BATCH_LEN)) {
        Err(ServiceError::Durability(_)) => {}
        other => panic!("{label}: the failed local append answered {other:?}"),
    }
    for b in BEFORE + 1..=BEFORE + AFTER {
        client.feed_batch(&stream, &batch_ids(b, BATCH_LEN)).expect("feed after the fault");
    }
    assert_eq!(
        replicator.attach_stats().full,
        2,
        "{label}: the next op must re-base the replica with a full snapshot ship"
    );

    // Recovery decides whether the faulted record survived: a torn write
    // never does; after a failed fsync the bytes may still be readable.
    let elements = client.stats(&stream).expect("stats").pipeline.elements;
    let faulted_applied = elements == (BEFORE + 1 + AFTER) * BATCH_LEN;
    assert!(
        faulted_applied || elements == (BEFORE + AFTER) * BATCH_LEN,
        "{label}: position {elements} is neither with nor without the faulted batch"
    );
    let live = client.snapshot(&stream).expect("live snapshot");
    mesh.stop_all();

    let wal = |node: usize| {
        let mut bytes = Vec::new();
        mesh.backends[node].with_wal_bytes(&stream, |b| bytes = b.clone());
        bytes
    };
    let primary_wal = wal(primary);
    assert!(!primary_wal.is_empty(), "{label}: primary log missing");
    assert_eq!(primary_wal, wal(replica), "{label}: replica log diverged from the primary");

    // Reference: the applied batches on one uninterrupted node.
    let reference = Server::start(ServerConfig::default());
    let mut plain = ServiceClient::new(reference.connect_in_process()).expect("client");
    plain.create_stream(&stream, &stream_config(EstimatorKind::CountMin)).expect("create");
    for b in (0..=BEFORE + AFTER).filter(|&b| b != BEFORE || faulted_applied) {
        plain.feed_batch(&stream, &batch_ids(b, BATCH_LEN)).expect("reference feed");
    }
    assert_eq!(plain.snapshot(&stream).expect("snapshot"), live, "{label}: live state diverged");
    for node in [primary, replica] {
        assert_eq!(
            replayed_snapshot(&mesh.backends[node], &stream),
            live,
            "{label}: node {node}'s durable state does not replay to the live sampler"
        );
    }
    faulted_applied
}

#[test]
fn a_torn_local_append_after_the_send_rebases_the_replica() {
    assert!(!run("torn", FaultPlan::tear_next_append), "a torn record is never applied");
}

#[test]
fn a_failed_local_fsync_after_the_send_rebases_the_replica() {
    run("fsync", FaultPlan::fail_next_sync);
}
