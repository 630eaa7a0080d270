//! Simulation metrics: uniformity, contamination, load balance and
//! connectivity — plus throughput accounting for the parallel sampling
//! pipeline.

use std::sync::Arc;
use uns_analysis::kl;
use uns_metrics::{Counter, Gauge, MetricsRegistry};

/// Exposition family name for [`PipelineStats::elements`].
pub const METRIC_STREAM_ELEMENTS: &str = "uns_stream_elements_total";
/// Exposition family name for [`PipelineStats::admitted`].
pub const METRIC_STREAM_ADMITTED: &str = "uns_stream_admitted_total";
/// Exposition family name for [`PipelineStats::outputs`].
pub const METRIC_STREAM_OUTPUTS: &str = "uns_stream_outputs_total";
/// Exposition family name for [`PipelineStats::chunks`].
pub const METRIC_STREAM_BATCHES: &str = "uns_stream_batches_total";
/// Exposition family name for [`PipelineStats::shards`].
pub const METRIC_STREAM_SHARDS: &str = "uns_stream_shards";

/// Accounting of one parallel sampling pipeline run
/// ([`crate::ShardedIngestion::pipeline_ingest`] /
/// [`pipeline_feed`](crate::ShardedIngestion::pipeline_feed)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Stream elements processed (one admission candidate each).
    pub elements: u64,
    /// Worker threads configured for the chunk and candidate passes.
    pub shards: usize,
    /// Chunks the stream was cut into (pipelining granularity).
    pub chunks: usize,
    /// Elements that entered the memory `Γ` — free-slot inserts plus won
    /// admission coins (Algorithm 3's insertions).
    pub admitted: u64,
    /// Output samples drawn (equals `elements` for `pipeline_feed`, 0 for
    /// the input-only `pipeline_ingest`).
    pub outputs: u64,
}

impl PipelineStats {
    /// Fraction of stream elements that entered `Γ` — on adversarial
    /// streams the interesting number: a flooding identifier contributes
    /// many elements but few admissions.
    pub fn admission_rate(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.admitted as f64 / self.elements as f64
        }
    }
}

/// Registry handles for one stream's pipeline-accounting series, labeled
/// `stream="…"`. The family names are this module's `METRIC_STREAM_*`
/// constants; these handles are the one way pipeline accounting reaches
/// an exposition.
#[derive(Debug)]
pub struct PipelineSeries {
    /// Stream elements processed ([`PipelineStats::elements`]).
    pub elements: Arc<Counter>,
    /// Elements admitted into `Γ` ([`PipelineStats::admitted`]).
    pub admitted: Arc<Counter>,
    /// Output samples drawn ([`PipelineStats::outputs`]).
    pub outputs: Arc<Counter>,
    /// Batches/chunks processed ([`PipelineStats::chunks`]).
    pub batches: Arc<Counter>,
    /// Configured shard workers ([`PipelineStats::shards`]).
    pub shards: Arc<Gauge>,
}

impl PipelineSeries {
    /// Registers (or re-acquires) the pipeline series for `stream`.
    pub fn register(registry: &MetricsRegistry, stream: &str) -> Self {
        let labels = [("stream", stream)];
        Self {
            elements: registry.counter(
                METRIC_STREAM_ELEMENTS,
                "Stream elements processed (one admission candidate each).",
                &labels,
            ),
            admitted: registry.counter(
                METRIC_STREAM_ADMITTED,
                "Elements admitted into the sampler memory (free-slot inserts plus won coins).",
                &labels,
            ),
            outputs: registry.counter(
                METRIC_STREAM_OUTPUTS,
                "Output samples drawn from the sampler.",
                &labels,
            ),
            batches: registry.counter(
                METRIC_STREAM_BATCHES,
                "Ingest/feed batches processed.",
                &labels,
            ),
            shards: registry.gauge(
                METRIC_STREAM_SHARDS,
                "Shard workers configured for the stream's pipeline.",
                &labels,
            ),
        }
    }

    /// Overwrites every series with the totals in `stats` — the install
    /// and recovery paths, where the counters resume persisted totals; live
    /// instrumentation bumps the handles incrementally instead.
    pub fn set_to(&self, stats: &PipelineStats) {
        self.elements.set(stats.elements);
        self.admitted.set(stats.admitted);
        self.outputs.set(stats.outputs);
        self.batches.set(stats.chunks as u64);
        self.shards.set_u64(stats.shards as u64);
    }
}

/// Aggregate metrics of a simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMetrics {
    /// Total rounds executed (churn + stable).
    pub rounds_executed: usize,
    /// Whether the correct-node view graph was weakly connected at the end
    /// of the run (the paper's §III-C assumption / §I attack payoff).
    pub correct_subgraph_connected: bool,
    /// Per-stable-round connectivity of the correct view graph.
    pub connectivity_history: Vec<bool>,
    /// Mean over correct nodes of `D_KL(output ‖ uniform)` restricted to
    /// correct identifiers (nats).
    pub mean_output_kl: f64,
    /// Mean share of sampler outputs that were sybil identifiers.
    pub mean_sybil_output_share: f64,
    /// Mean share of view slots pointing at sybil identifiers (eclipse
    /// progress).
    pub mean_sybil_view_share: f64,
    /// Mean share of *input* stream elements that were adversarial (attack
    /// pressure actually delivered).
    pub mean_sybil_input_share: f64,
    /// Mean in-degree of correct nodes in the final view graph.
    pub in_degree_mean: f64,
    /// Smallest in-degree (0 ⇒ some node is invisible to everyone).
    pub in_degree_min: usize,
    /// Largest in-degree (hub formation indicator).
    pub in_degree_max: usize,
    /// Number of point-to-point gossip messages sent.
    pub total_messages: u64,
}

impl SimMetrics {
    /// Computes the mean KL-vs-uniform over per-node output count vectors,
    /// skipping nodes that emitted nothing.
    pub(crate) fn mean_kl(outputs: &[&[u64]]) -> f64 {
        let mut total = 0.0;
        let mut counted = 0usize;
        for counts in outputs {
            if counts.iter().any(|&c| c > 0) {
                if let Ok(d) = kl::kl_vs_uniform(counts) {
                    total += d;
                    counted += 1;
                }
            }
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_kl_skips_empty_outputs() {
        let a = [10u64, 10, 10, 10];
        let empty = [0u64, 0, 0, 0];
        let outputs: Vec<&[u64]> = vec![&a, &empty];
        assert!(SimMetrics::mean_kl(&outputs) < 1e-12);
        let outputs: Vec<&[u64]> = vec![&empty];
        assert_eq!(SimMetrics::mean_kl(&outputs), 0.0);
    }

    #[test]
    fn mean_kl_detects_bias() {
        let biased = [100u64, 1, 1, 1];
        let outputs: Vec<&[u64]> = vec![&biased];
        assert!(SimMetrics::mean_kl(&outputs) > 0.5);
    }

    #[test]
    fn pipeline_stats_admission_rate() {
        let empty = PipelineStats::default();
        assert_eq!(empty.admission_rate(), 0.0);
        let stats = PipelineStats { elements: 200, admitted: 50, ..PipelineStats::default() };
        assert!((stats.admission_rate() - 0.25).abs() < 1e-12);
    }
}
