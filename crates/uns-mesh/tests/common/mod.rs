//! Shared harness of the mesh integration tests: bring up an N-node TCP
//! mesh over in-memory backends and build resilient clients over the
//! placement-ordered endpoint list.

// Each integration-test binary compiles this module and uses a subset.
#![allow(dead_code)]

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use uns_core::NodeId;
use uns_mesh::{client_endpoints, Membership, MeshConfig, MeshNode, NodeInfo};
use uns_service::error::ServiceError;
use uns_service::protocol::{EstimatorKind, HashFamilyKind, StreamConfig};
use uns_service::resilient::{ResilientClient, RetryPolicy};
use uns_service::storage::{MemBackend, StorageBackend};

/// A running mesh: a client-side membership view (never marked dead), the
/// nodes, and each node's backend (kept concrete so tests can inspect raw
/// WAL bytes). Every node owns its *own* liveness view, as separate
/// processes would — a shared view would let one node's detector consume
/// another node's exactly-once promotion callback.
pub struct Mesh {
    pub membership: Arc<Membership>,
    pub nodes: Vec<Arc<MeshNode>>,
    pub backends: Vec<Arc<MemBackend>>,
}

impl Mesh {
    /// Starts `n` nodes named `n0..` on ephemeral localhost ports.
    pub fn start(n: usize, config: &MeshConfig) -> Mesh {
        Self::start_with(n, config, |_, backend| backend.clone())
    }

    /// As [`Mesh::start`], but node `i` stores through
    /// `storage(i, &backends[i])` — a wrapper such as a fault-injecting
    /// backend — while `backends` keeps the concrete inner store.
    pub fn start_with(
        n: usize,
        config: &MeshConfig,
        storage: impl Fn(usize, &Arc<MemBackend>) -> Arc<dyn StorageBackend>,
    ) -> Mesh {
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
        let infos: Vec<NodeInfo> = listeners
            .iter()
            .enumerate()
            .map(|(i, l)| NodeInfo {
                name: format!("n{i}"),
                addr: l.local_addr().expect("local addr"),
            })
            .collect();
        let membership = Arc::new(Membership::new(infos.clone()));
        let backends: Vec<Arc<MemBackend>> = (0..n).map(|_| Arc::new(MemBackend::new())).collect();
        let nodes = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                MeshNode::start(
                    &format!("n{i}"),
                    listener,
                    storage(i, &backends[i]),
                    Arc::new(Membership::new(infos.clone())),
                    config,
                )
                .expect("mesh node start")
            })
            .collect();
        Mesh { membership, nodes, backends }
    }

    /// Index of the node named `name`.
    pub fn index_of(&self, name: &str) -> usize {
        self.membership
            .nodes()
            .iter()
            .position(|n| n.name == name)
            .expect("placement names a mesh member")
    }

    /// Restarts node `index` on its original address over its original
    /// backend — what a process restart is — replacing it in `nodes`.
    /// The caller killed it earlier with `stop()`; the failure detector
    /// is not started (call `start_failover` when the test wants one).
    pub fn restart(&mut self, index: usize, config: &MeshConfig) -> Arc<MeshNode> {
        let infos: Vec<NodeInfo> = self.membership.nodes().to_vec();
        let listener = TcpListener::bind(infos[index].addr).expect("rebind the node's address");
        let node = MeshNode::start(
            &infos[index].name,
            listener,
            self.backends[index].clone(),
            Arc::new(Membership::new(infos.clone())),
            config,
        )
        .expect("mesh node restart");
        self.nodes[index] = Arc::clone(&node);
        node
    }

    /// Stops every node still running (stop is idempotent).
    pub fn stop_all(&self) {
        for node in &self.nodes {
            node.stop();
        }
    }
}

/// A resilient client failing over across `stream`'s placement-ordered
/// endpoints (primary first, then the replicas).
pub fn mesh_client(
    mesh: &Mesh,
    stream: &str,
    replication: usize,
    policy: RetryPolicy,
) -> ResilientClient<TcpStream, impl FnMut() -> Result<TcpStream, ServiceError>> {
    let endpoints: Vec<SocketAddr> = client_endpoints(&mesh.membership, stream, replication);
    assert!(!endpoints.is_empty());
    let connects = endpoints
        .into_iter()
        .map(|addr| {
            move || {
                let tcp = TcpStream::connect_timeout(&addr, Duration::from_millis(500))?;
                tcp.set_nodelay(true).ok();
                Ok(tcp)
            }
        })
        .collect();
    ResilientClient::with_endpoints(policy, connects)
}

/// A small deterministic stream config for `kind`.
pub fn stream_config(kind: EstimatorKind) -> StreamConfig {
    StreamConfig {
        kind,
        capacity: 16,
        width: 128,
        depth: 4,
        seed: 11,
        family: HashFamilyKind::Mersenne,
    }
}

/// Deterministic per-batch identifiers: batch `b` covers a disjoint,
/// well-spread id range.
pub fn batch_ids(batch: u64, len: u64) -> Vec<NodeId> {
    (0..len)
        .map(|i| {
            let mut x = (batch * len + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
            x ^= x >> 29;
            NodeId::new(x)
        })
        .collect()
}
