#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Uniform node sampling robust against collusions of malicious nodes.
//!
//! A complete Rust implementation of E. Anceaume, Y. Busnel and
//! B. Sericola, *"Uniform Node Sampling Service Robust against Collusions
//! of Malicious Nodes"* (43rd IEEE/IFIP DSN, 2013): the omniscient and
//! knowledge-free sampling strategies, every substrate they depend on, the
//! paper's analytic machinery, adversarial workload generators, a gossip
//! overlay simulator, and a harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! This facade re-exports the most commonly used items; the member crates
//! are also usable directly:
//!
//! * [`core`] — the sampling strategies and baselines;
//! * [`sketch`] — Count-Min / Count sketches and 2-universal hashing;
//! * [`analysis`] — attack-effort bounds, Markov chain validation and KL
//!   metrics;
//! * [`streams`] — attack distributions and trace surrogates;
//! * [`sim`] — the gossip overlay simulator;
//! * [`service`] — the networked sampling service (framed wire protocol,
//!   multi-tenant server, snapshot/restore, write-ahead log);
//! * [`metrics`] — lock-free counters/gauges/histograms, the Prometheus
//!   text exposition renderer, and the structured trace ring behind the
//!   service's `/metrics` surface.
//!
//! # Quickstart
//!
//! ```
//! use uniform_node_sampling::{KnowledgeFreeSampler, NodeId, NodeSampler};
//!
//! # fn main() -> Result<(), uniform_node_sampling::CoreError> {
//! let mut sampler = KnowledgeFreeSampler::with_count_min(10, 10, 5, 42)?;
//! // Even if an adversary floods the stream with one identifier, the
//! // output stream keeps sampling the whole population.
//! for i in 0..50_000u64 {
//!     let id = if i % 2 == 0 { NodeId::new(0) } else { NodeId::new(i % 200) };
//!     let _sample = sampler.feed(id);
//! }
//! # Ok(())
//! # }
//! ```

pub use uns_analysis as analysis;
pub use uns_core as core;
pub use uns_metrics as metrics;
pub use uns_service as service;
pub use uns_sim as sim;
pub use uns_sketch as sketch;
pub use uns_streams as streams;

pub use uns_analysis::{
    flooding_attack_effort, kl_gain, kl_vs_uniform, targeted_attack_effort, Frequencies,
    SubsetChain, Summary,
};
pub use uns_core::{
    CoreError, KnowledgeFreeSampler, MinWiseSampler, MinWiseSamplerArray, NodeId, NodeSampler,
    OmniscientSampler, PassthroughSampler, ReservoirSampler, SamplingMemory, WeightedSampler,
};
pub use uns_service::{ServiceClient, ServiceError, ServiceSampler};
pub use uns_sim::{
    MaliciousStrategy, SamplerKind, ShardedIngestion, SimConfig, SimMetrics, Simulation,
};
pub use uns_sketch::{CountMinSketch, CountSketch, ExactFrequencyOracle, FrequencyEstimator};
pub use uns_streams::{IdDistribution, IdStream, StreamError, SybilInjector, TraceSpec};
