//! Two-way replication: on a 2-node mesh with R=1, each node is primary
//! for one stream and replica for the other's, so the two nodes ship to
//! each other at the same time. A primary's worker waits inside `ship()`
//! until its peer has applied the record; if the peer applied it on a
//! worker that was itself waiting inside `ship()`, the two nodes would
//! wait on each other. With no op timeout to break such a wait, both
//! streams must still make progress, and every acknowledged write must
//! reach its replica.

mod common;

use common::{batch_ids, stream_config, Mesh};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use uns_mesh::{place, MeshConfig};
use uns_service::client::ServiceClient;
use uns_service::protocol::EstimatorKind;
use uns_service::server::ServerConfig;

const BATCHES: u64 = 200;
const BATCH_LEN: u64 = 32;

#[test]
fn nodes_replicating_to_each_other_both_make_progress() {
    // One worker per node: a shipment queued behind that worker would
    // wait for it, and the worker may be waiting on the other node.
    let config = MeshConfig {
        op_timeout: None,
        server: ServerConfig { workers: 1, queue_depth: 4 },
        ..MeshConfig::default()
    };
    let mesh = Mesh::start(2, &config);
    let names: Vec<String> = mesh.membership.nodes().iter().map(|n| n.name.clone()).collect();
    // One stream led by each node, so each node replicates the other's.
    let mut streams = [None, None];
    for i in 0.. {
        let stream = format!("two-way-{i}");
        let primary = place(&stream, &names, 1).expect("two live nodes").primary;
        streams[mesh.index_of(&primary)].get_or_insert(stream);
        if streams.iter().all(Option::is_some) {
            break;
        }
    }
    let (done_tx, done_rx) = mpsc::channel();
    for (stream, node) in streams.into_iter().flatten().zip(mesh.membership.nodes()) {
        let (addr, done_tx) = (node.addr, done_tx.clone());
        std::thread::spawn(move || {
            let run = || {
                let tcp = TcpStream::connect(addr)?;
                tcp.set_nodelay(true)?;
                let mut client = ServiceClient::new(tcp)?;
                client.create_stream(&stream, &stream_config(EstimatorKind::CountMin))?;
                for b in 0..BATCHES {
                    client.feed_batch(&stream, &batch_ids(b, BATCH_LEN))?;
                }
                client.stats(&stream)
            };
            let _ = done_tx.send((run(), stream));
        });
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    for _ in 0..2 {
        let wait = deadline.saturating_duration_since(Instant::now());
        let Ok((stats, stream)) = done_rx.recv_timeout(wait) else {
            // Stopping the nodes would join workers that wait forever.
            std::mem::forget(mesh);
            panic!("the nodes stopped making progress shipping to each other");
        };
        let stats = stats.unwrap_or_else(|err| panic!("{stream}: {err}"));
        assert_eq!(stats.pipeline.elements, BATCHES * BATCH_LEN, "{stream}: every batch applied");
        assert_eq!(stats.replication.lag_records, 0, "{stream}: every record reached the replica");
        assert!(stats.replication.shipped_bytes > 0, "{stream}: records were shipped");
    }
    mesh.stop_all();
}
