//! The four workloads and the deployments they run against.
//!
//! Each workload stresses one layer of the service, so a later change has
//! one workload that shows its effect and others that must not move:
//!
//! * `feed_bulk` — the paper's peak attack at full batch size: time goes to
//!   the estimator and the sampler's memory and coins on the worker that
//!   owns the stream; per-request overhead is small and nothing is durable.
//! * `feed_small_open` — tiny batches on an open-loop Poisson schedule:
//!   sampler work is negligible, so framing, the reactor, routing, the
//!   queue handoff and the reply write dominate.
//! * `durable_replicated` — a two-node mesh with fsync per op: every
//!   acknowledgement waits for the ship to the replica, the replica's
//!   durable append, and the local append plus fsync.
//! * `mixed_rw` — reads on an open-loop schedule queue behind bulk writes
//!   on the same worker, over the Count-sketch record path.

use std::error::Error;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use uns_core::NodeId;
use uns_mesh::{place, Membership, MeshConfig, MeshNode, NodeInfo};
use uns_service::client::ServiceClient;
use uns_service::protocol::{EstimatorKind, HashFamilyKind, StreamConfig};
use uns_service::server::{Server, ServerConfig};
use uns_service::storage::DirBackend;
use uns_service::ReactorConfig;
use uns_streams::adversary::{peak_attack_distribution, targeted_flooding_distribution};
use uns_streams::{IdDistribution, IdStream};

use crate::stats::sub_seed;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["feed_bulk", "feed_small_open", "durable_replicated", "mixed_rw"];

/// Identifier domain of every stream (`n` in the paper's figures).
const DOMAIN: usize = 100_000;

/// How a workload's server is deployed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deploy {
    /// One in-memory server behind the epoll reactor over TCP loopback.
    Reactor,
    /// A two-node `uns-mesh` (R = 1, `DirBackend`, fsync per op); clients
    /// talk to the placement primary.
    Mesh,
}

/// What one connection's load thread sends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// `FeedBatch` of `batch` ids, the next sent when the reply arrives.
    Closed { batch: usize },
    /// `FeedBatch` of `batch` ids on a Poisson schedule of `rate` per second.
    OpenWrites { rate: f64, batch: usize },
    /// Read-only requests on a Poisson schedule: `FloorEstimate` 60%,
    /// `Stats` 30%, `Snapshot` 10%. `Sample` is left out because it draws a
    /// coin and its reply carries no position to place it in the order.
    OpenReads { rate: f64 },
}

impl Load {
    pub fn batch(self) -> Option<usize> {
        match self {
            Load::Closed { batch } | Load::OpenWrites { batch, .. } => Some(batch),
            Load::OpenReads { .. } => None,
        }
    }
}

/// Input distribution of a stream's identifiers.
#[derive(Clone, Copy, Debug)]
pub enum Dist {
    /// Fig. 7a: one identifier holds half of the stream.
    PeakAttack,
    /// Honest traffic.
    Uniform,
    /// Fig. 7b: uniform traffic mixed with a truncated-Poisson burst.
    TargetedFlooding,
}

impl Dist {
    fn build(self) -> IdDistribution {
        match self {
            Dist::PeakAttack => peak_attack_distribution(DOMAIN),
            Dist::Uniform => IdDistribution::uniform(DOMAIN),
            Dist::TargetedFlooding => targeted_flooding_distribution(DOMAIN),
        }
        .expect("a non-empty identifier domain")
    }
}

pub struct StreamSpec {
    pub name: String,
    pub config: StreamConfig,
    pub dist: Dist,
}

pub struct ConnSpec {
    pub stream: usize,
    pub load: Load,
}

pub struct Spec {
    pub name: &'static str,
    pub deploy: Deploy,
    pub streams: Vec<StreamSpec>,
    pub conns: Vec<ConnSpec>,
}

impl Spec {
    /// The workload `name` with inputs derived from `seed`.
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        let sketch = |kind, width, depth, index: u64| StreamConfig {
            kind,
            capacity: 10,
            width,
            depth,
            seed: sub_seed(seed, &[0x5EED, index]),
            family: HashFamilyKind::Mersenne,
        };
        // The paper's Fig. 7 parameters: c = 10, k = 10, s = 5.
        let count_min = |index| sketch(EstimatorKind::CountMin, 10, 5, index);
        let stream =
            |index: u64, config, dist| StreamSpec { name: format!("perf-{index}"), config, dist };
        let spec = match name {
            // One connection: with two, each request either finds the worker
            // free or waits out the other connection's whole batch, and the
            // median jumps between the two with the host's speed.
            "feed_bulk" => Spec {
                name: "feed_bulk",
                deploy: Deploy::Reactor,
                streams: vec![stream(0, count_min(0), Dist::PeakAttack)],
                conns: vec![ConnSpec { stream: 0, load: Load::Closed { batch: 4096 } }],
            },
            "feed_small_open" => Spec {
                name: "feed_small_open",
                deploy: Deploy::Reactor,
                // One stream per connection, so both workers serve.
                streams: (0..2).map(|i| stream(i, count_min(i), Dist::Uniform)).collect(),
                conns: (0..2)
                    .map(|i| ConnSpec {
                        stream: i,
                        load: Load::OpenWrites { rate: 8000.0, batch: 16 },
                    })
                    .collect(),
            },
            "durable_replicated" => Spec {
                name: "durable_replicated",
                deploy: Deploy::Mesh,
                streams: vec![stream(0, count_min(0), Dist::Uniform)],
                conns: (0..2)
                    .map(|_| ConnSpec { stream: 0, load: Load::Closed { batch: 256 } })
                    .collect(),
            },
            "mixed_rw" => Spec {
                name: "mixed_rw",
                deploy: Deploy::Reactor,
                streams: vec![stream(
                    0,
                    sketch(EstimatorKind::CountSketch, 250, 10, 0),
                    Dist::TargetedFlooding,
                )],
                conns: vec![
                    ConnSpec { stream: 0, load: Load::Closed { batch: 4096 } },
                    ConnSpec { stream: 0, load: Load::OpenReads { rate: 200.0 } },
                ],
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Whether the latency metrics time reads (the open-loop reader) rather
    /// than `FeedBatch` writes.
    pub fn probes_reads(&self) -> bool {
        self.conns.iter().any(|c| matches!(c.load, Load::OpenReads { .. }))
    }

    /// Each writing connection's identifier pool: `len` ids drawn from its
    /// stream's distribution, seeded per connection. Load threads cycle
    /// through it, batch `k` taking `pool[(k·B) mod len ..][..B]`.
    pub fn pools(&self, seed: u64, len: usize) -> Vec<Vec<NodeId>> {
        self.conns
            .iter()
            .enumerate()
            .map(|(index, conn)| match conn.load.batch() {
                Some(batch) => {
                    assert_eq!(len % batch, 0, "the pool must hold whole batches");
                    let dist = self.streams[conn.stream].dist.build();
                    IdStream::new(dist, sub_seed(seed, &[0x9001, index as u64])).take_vec(len)
                }
                None => Vec::new(),
            })
            .collect()
    }
}

/// The ids of batch `k` of a connection with pool `pool` and batch size `batch`.
pub fn batch_ids(pool: &[NodeId], batch: usize, k: u64) -> &[NodeId] {
    let start = (k as usize * batch) % pool.len();
    &pool[start..start + batch]
}

/// A running deployment plus one open connection per load thread.
pub struct Setup {
    pub deployment: Deployment,
    pub conns: Vec<TcpStream>,
    /// From the first server start to the last `CreateStream` ack.
    pub seconds: f64,
}

pub enum Deployment {
    Reactor { server: Arc<Server>, thread: JoinHandle<io::Result<()>> },
    Mesh { nodes: Vec<Arc<MeshNode>>, primary: usize, dirs: Vec<PathBuf> },
}

fn connect(addr: SocketAddr, n: usize) -> io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let tcp = TcpStream::connect(addr)?;
            tcp.set_nodelay(true)?;
            Ok(tcp)
        })
        .collect()
}

/// Starts the workload's deployment through the public entry points,
/// connects, and creates every stream. Mesh state goes under `dir`.
pub fn set_up(spec: &Spec, dir: &Path) -> Result<Setup, Box<dyn Error>> {
    let started = Instant::now();
    let (deployment, conns) = match spec.deploy {
        Deploy::Reactor => {
            let server = Arc::new(Server::start(ServerConfig::default()));
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let serving = Arc::clone(&server);
            let thread = std::thread::Builder::new()
                .name("perf-reactor".into())
                .spawn(move || serving.serve_reactor(listener, ReactorConfig::default()))?;
            (Deployment::Reactor { server, thread }, connect(addr, spec.conns.len())?)
        }
        Deploy::Mesh => {
            let listeners: Vec<TcpListener> =
                (0..2).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
            let infos: Vec<NodeInfo> = listeners
                .iter()
                .enumerate()
                .map(|(i, l)| Ok(NodeInfo { name: format!("n{i}"), addr: l.local_addr()? }))
                .collect::<io::Result<_>>()?;
            let dirs: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("n{i}"))).collect();
            let mut nodes = Vec::new();
            for ((listener, info), node_dir) in listeners.into_iter().zip(&infos).zip(&dirs) {
                nodes.push(MeshNode::start(
                    &info.name,
                    listener,
                    Arc::new(DirBackend::create(node_dir)?),
                    Arc::new(Membership::new(infos.clone())),
                    &MeshConfig::default(),
                )?);
            }
            let names: Vec<String> = infos.iter().map(|i| i.name.clone()).collect();
            let primary = place(&spec.streams[0].name, &names, 1).expect("two live nodes").primary;
            let primary = names.iter().position(|n| *n == primary).expect("a member");
            let addr = infos[primary].addr;
            (Deployment::Mesh { nodes, primary, dirs }, connect(addr, spec.conns.len())?)
        }
    };
    for (index, stream) in spec.streams.iter().enumerate() {
        let conn =
            spec.conns.iter().position(|c| c.stream == index).expect("a stream's connection");
        ServiceClient::new(conns[conn].try_clone()?)?
            .create_stream(&stream.name, &stream.config)?;
    }
    Ok(Setup { deployment, conns, seconds: started.elapsed().as_secs_f64() })
}

impl Deployment {
    /// The server's Prometheus exposition (for mesh deployments, the
    /// primary's — the node serving the stream).
    pub fn metrics_text(&self) -> String {
        match self {
            Deployment::Reactor { server, .. } => server.metrics().render(),
            Deployment::Mesh { nodes, primary, .. } => nodes[*primary].server().metrics().render(),
        }
    }

    /// Stops every server thread and waits for it; durable state stays on
    /// disk for verification. Returns the mesh nodes' storage directories,
    /// the primary's first.
    pub fn stop(self) -> Result<Vec<PathBuf>, Box<dyn Error>> {
        match self {
            Deployment::Reactor { server, thread } => {
                server.stop();
                thread.join().map_err(|_| "the reactor thread panicked")??;
                Ok(Vec::new())
            }
            Deployment::Mesh { nodes, primary, mut dirs } => {
                for node in &nodes {
                    node.stop();
                }
                // Dropping the last handle joins the workers, which sync
                // their logs on the way out.
                drop(nodes);
                dirs.swap(0, primary);
                Ok(dirs)
            }
        }
    }
}
