//! Load generator: replays adversarial workloads over N concurrent
//! connections and reports service-path throughput.
//!
//! Each connection thread generates its own deterministic slice of the
//! workload (per-connection seed), cuts it into batches, and drives the
//! service with `FeedBatch` (or input-only `Ingest`) requests, retrying
//! with backoff on [`crate::protocol::Response::Busy`]. The report carries
//! elements/s so `BENCH_*.json` can record service-path throughput next to
//! the library-path numbers.

use crate::client::ServiceClient;
use crate::error::ServiceError;
use crate::protocol::{StreamConfig, StreamStats};
use crate::transport::Transport;
use std::time::{Duration, Instant};
use uns_core::NodeId;
use uns_streams::adversary::{peak_attack_distribution, targeted_flooding_distribution};
use uns_streams::{IdDistribution, IdStream, SybilInjector};

/// The stream shape a load-generator connection replays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// Uniform honest traffic over `domain` identifiers.
    Uniform {
        /// Population size `n`.
        domain: usize,
    },
    /// Zipf(α) skew over `domain` identifiers.
    Zipf {
        /// Population size `n`.
        domain: usize,
        /// Skew exponent α (0 = uniform).
        alpha: f64,
    },
    /// The paper's Fig. 7a peak attack: one identifier holds half the
    /// stream.
    PeakAttack {
        /// Population size `n`.
        domain: usize,
    },
    /// The paper's Fig. 7b targeted + flooding attack.
    TargetedFlooding {
        /// Population size `n`.
        domain: usize,
    },
    /// Uniform honest traffic with explicit sybil injection
    /// ([`SybilInjector`], uniform schedule): `distinct` sybil identifiers
    /// are each repeated until they hold roughly half of every
    /// connection's slice.
    Sybil {
        /// Honest population size `n` (sybil ids start at `domain`).
        domain: usize,
        /// Number of distinct sybil identifiers (the §V effort).
        distinct: usize,
    },
}

impl Workload {
    /// Generates one connection's deterministic slice of `len` elements.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] on an empty domain or invalid skew.
    pub fn generate(&self, len: usize, seed: u64) -> Result<Vec<NodeId>, ServiceError> {
        let invalid = |err: &dyn std::fmt::Display| ServiceError::InvalidConfig(err.to_string());
        let from_dist = |dist: IdDistribution| IdStream::new(dist, seed).take_vec(len);
        Ok(match *self {
            Workload::Uniform { domain } => {
                from_dist(IdDistribution::uniform(domain).map_err(|e| invalid(&e))?)
            }
            Workload::Zipf { domain, alpha } => {
                from_dist(IdDistribution::zipf(domain, alpha).map_err(|e| invalid(&e))?)
            }
            Workload::PeakAttack { domain } => {
                from_dist(peak_attack_distribution(domain).map_err(|e| invalid(&e))?)
            }
            Workload::TargetedFlooding { domain } => {
                from_dist(targeted_flooding_distribution(domain).map_err(|e| invalid(&e))?)
            }
            Workload::Sybil { domain, distinct } => {
                if domain == 0 || distinct == 0 {
                    return Err(ServiceError::InvalidConfig(
                        "sybil workload needs a non-empty domain and at least one sybil".into(),
                    ));
                }
                // Honest half + sybil half, merged uniformly.
                let honest_len = len / 2;
                let honest =
                    IdStream::new(IdDistribution::uniform(domain).map_err(|e| invalid(&e))?, seed)
                        .take_vec(honest_len);
                let repetitions = (len - honest_len).div_ceil(distinct).max(1);
                let injector = SybilInjector::new(domain as u64, distinct, repetitions);
                let mut merged = injector.inject(&honest, seed ^ 0x5bd1_e995);
                merged.truncate(len);
                merged
            }
        })
    }
}

/// Bounds on the per-batch Busy-retry loop: capped exponential backoff
/// with seeded jitter, and a hard retry budget so a saturated server can
/// never pin a connection in an unbounded retry spin.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenRetry {
    /// Busy retries allowed per batch before the batch is abandoned
    /// (reported in [`LoadgenReport::abandoned_batches`]).
    pub budget: u32,
    /// First backoff pause; doubles per retry up to `max_backoff`.
    pub base_backoff: Duration,
    /// Cap on a single backoff pause (before jitter).
    pub max_backoff: Duration,
}

impl Default for LoadgenRetry {
    fn default() -> Self {
        Self {
            budget: 1_000,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(10),
        }
    }
}

impl LoadgenRetry {
    /// Jittered backoff for retry number `attempt` (1-based), advancing
    /// the per-connection jitter state (splitmix64).
    fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let exp = self.base_backoff.saturating_mul(1u32 << shift).min(self.max_backoff);
        *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        // [0.5, 1.0)·exp — de-synchronises competing connections without
        // collapsing the pause to zero.
        exp.mul_f64(0.5 + 0.5 * unit)
    }
}

/// Load-generator run parameters.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Concurrent connections.
    pub connections: usize,
    /// Elements each connection sends in total.
    pub elements_per_connection: usize,
    /// Elements per `FeedBatch`/`Ingest` request.
    pub batch_len: usize,
    /// Workload shape each connection replays.
    pub workload: Workload,
    /// Base seed; connection `i` generates from `seed + i`.
    pub seed: u64,
    /// `true` → `FeedBatch` (outputs drawn and shipped back);
    /// `false` → input-only `Ingest`.
    pub feed: bool,
    /// Busy-retry bounds (backoff shape and budget).
    pub retry: LoadgenRetry,
}

/// Outcome of a load-generator run.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Total elements the service absorbed.
    pub elements: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Requests that bounced with Busy and were retried.
    pub busy_retries: u64,
    /// Batches abandoned after exhausting the retry budget.
    pub abandoned_batches: u64,
    /// Elements those abandoned batches would have carried.
    pub abandoned_elements: u64,
    /// Final server-side stream counters.
    pub stats: StreamStats,
    /// XOR digest of all output samples (feed mode) — a cheap whole-run
    /// checksum two runs can be compared by.
    pub output_digest: u64,
}

impl LoadgenReport {
    /// Throughput in millions of elements per second.
    pub fn melem_per_s(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.elements as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Drives `stream_name` on a server through `connections` concurrent
/// clients. `connect` opens one transport per connection (TCP dial,
/// [`crate::server::Server::connect_in_process`], …). The stream must
/// already exist — create it with [`ServiceClient::create_stream`] first.
///
/// # Errors
///
/// Propagates workload-generation and transport errors; the first failed
/// connection aborts the run.
pub fn run_loadgen<T, F>(
    connect: F,
    stream_name: &str,
    config: &LoadgenConfig,
) -> Result<LoadgenReport, ServiceError>
where
    T: Transport,
    F: Fn() -> Result<T, ServiceError> + Sync,
{
    let connections = config.connections.max(1);
    let batch_len = config.batch_len.max(1);
    // Workload synthesis happens OUTSIDE the timed window: the report
    // measures the service path (framing, transport, sampler), not how
    // long Zipf/sybil stream generation takes.
    let slices: Vec<Vec<NodeId>> = (0..connections)
        .map(|index| {
            config.workload.generate(config.elements_per_connection, config.seed + index as u64)
        })
        .collect::<Result<_, _>>()?;
    let started = Instant::now();
    type ConnTally = (u64, u64, u64, u64, u64);
    let results: Vec<Result<ConnTally, ServiceError>> = std::thread::scope(|scope| {
        let connect = &connect;
        let handles: Vec<_> = slices
            .iter()
            .enumerate()
            .map(|(index, slice)| {
                scope.spawn(move || {
                    let mut client = ServiceClient::new(connect()?)?;
                    let mut sent = 0u64;
                    let mut busy = 0u64;
                    let mut abandoned = 0u64;
                    let mut abandoned_elems = 0u64;
                    let mut digest = 0u64;
                    // Per-connection jitter stream so competing
                    // connections never back off in lockstep.
                    let mut jitter =
                        config.seed ^ (index as u64).wrapping_mul(0xa076_1d64_78bd_642f);
                    for batch in slice.chunks(batch_len) {
                        let mut attempts = 0u32;
                        loop {
                            let result = if config.feed {
                                client.feed_batch(stream_name, batch).map(|ack| {
                                    for id in &ack.outputs {
                                        digest ^= id.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15);
                                    }
                                })
                            } else {
                                client.ingest(stream_name, batch).map(|_| ())
                            };
                            match result {
                                Ok(()) => {
                                    sent += batch.len() as u64;
                                    break;
                                }
                                Err(ServiceError::Busy) => {
                                    busy += 1;
                                    attempts += 1;
                                    if attempts > config.retry.budget {
                                        // Budget exhausted: skip the batch
                                        // rather than spin unboundedly.
                                        abandoned += 1;
                                        abandoned_elems += batch.len() as u64;
                                        break;
                                    }
                                    std::thread::sleep(config.retry.delay(attempts, &mut jitter));
                                }
                                Err(err) => return Err(err),
                            }
                        }
                    }
                    Ok((sent, busy, abandoned, abandoned_elems, digest))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen connection panicked")).collect()
    });
    let mut elements = 0u64;
    let mut busy_retries = 0u64;
    let mut abandoned_batches = 0u64;
    let mut abandoned_elements = 0u64;
    let mut output_digest = 0u64;
    for result in results {
        let (sent, busy, abandoned, abandoned_elems, digest) = result?;
        elements += sent;
        busy_retries += busy;
        abandoned_batches += abandoned;
        abandoned_elements += abandoned_elems;
        output_digest ^= digest;
    }
    let elapsed = started.elapsed();
    let mut client = ServiceClient::new(connect()?)?;
    let stats = client.stats(stream_name)?;
    Ok(LoadgenReport {
        elements,
        elapsed,
        busy_retries,
        abandoned_batches,
        abandoned_elements,
        stats,
        output_digest,
    })
}

/// Convenience: create the stream, run the load, return the report.
///
/// # Errors
///
/// As [`run_loadgen`], plus stream-creation failures.
pub fn create_and_run<T, F>(
    connect: F,
    stream_name: &str,
    stream_config: &StreamConfig,
    config: &LoadgenConfig,
) -> Result<LoadgenReport, ServiceError>
where
    T: Transport,
    F: Fn() -> Result<T, ServiceError> + Sync,
{
    let mut client = ServiceClient::new(connect()?)?;
    client.create_stream(stream_name, stream_config)?;
    run_loadgen(connect, stream_name, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::EstimatorKind;
    use crate::server::{Server, ServerConfig};
    use uns_sketch::HashFamilyKind;

    #[test]
    fn workloads_generate_deterministic_slices() {
        for workload in [
            Workload::Uniform { domain: 50 },
            Workload::Zipf { domain: 50, alpha: 1.2 },
            Workload::PeakAttack { domain: 50 },
            Workload::TargetedFlooding { domain: 50 },
            Workload::Sybil { domain: 50, distinct: 7 },
        ] {
            let a = workload.generate(1_000, 3).unwrap();
            let b = workload.generate(1_000, 3).unwrap();
            let c = workload.generate(1_000, 4).unwrap();
            assert_eq!(a.len(), 1_000);
            assert_eq!(a, b, "{workload:?} not deterministic");
            assert_ne!(a, c, "{workload:?} ignores the seed");
        }
        assert!(matches!(
            Workload::Uniform { domain: 0 }.generate(10, 1),
            Err(ServiceError::InvalidConfig(_))
        ));
        assert!(matches!(
            Workload::Sybil { domain: 0, distinct: 1 }.generate(10, 1),
            Err(ServiceError::InvalidConfig(_))
        ));
    }

    #[test]
    fn sybil_workload_actually_contains_sybils() {
        let slice = Workload::Sybil { domain: 100, distinct: 5 }.generate(2_000, 9).unwrap();
        let sybils = slice.iter().filter(|id| id.as_u64() >= 100).count();
        assert!(sybils > 500, "only {sybils} sybil occurrences in 2000 elements");
    }

    #[test]
    fn loadgen_drives_a_server_end_to_end() {
        let server = Server::start(ServerConfig { workers: 2, queue_depth: 16 });
        let stream_config = StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 10,
            width: 10,
            depth: 5,
            seed: 7,
            family: HashFamilyKind::Mersenne,
        };
        let loadgen_config = LoadgenConfig {
            connections: 3,
            elements_per_connection: 5_000,
            batch_len: 512,
            workload: Workload::PeakAttack { domain: 1_000 },
            seed: 11,
            feed: true,
            retry: LoadgenRetry::default(),
        };
        let report = create_and_run(
            || Ok(server.connect_in_process()),
            "bench",
            &stream_config,
            &loadgen_config,
        )
        .unwrap();
        assert_eq!(report.elements, 15_000);
        assert_eq!(report.stats.pipeline.elements, 15_000);
        assert_eq!(report.stats.pipeline.outputs, 15_000);
        assert!(report.stats.pipeline.admitted >= 10);
        assert!(report.melem_per_s() > 0.0);
        // Ingest mode: no outputs drawn.
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        client.create_stream("ingest-only", &stream_config).unwrap();
        let report = run_loadgen(
            || Ok(server.connect_in_process()),
            "ingest-only",
            &LoadgenConfig { feed: false, ..loadgen_config },
        )
        .unwrap();
        assert_eq!(report.stats.pipeline.outputs, 0);
        assert_eq!(report.output_digest, 0);
    }

    #[test]
    fn generous_budget_loses_nothing_and_backoff_is_capped() {
        // A single worker with the smallest queue plus many connections is
        // the heaviest Busy pressure the server can produce; the default
        // budget must still land every batch.
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 1 });
        let stream_config = StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 8,
            width: 16,
            depth: 3,
            seed: 5,
            family: HashFamilyKind::Mersenne,
        };
        let config = LoadgenConfig {
            connections: 4,
            elements_per_connection: 2_000,
            batch_len: 64,
            workload: Workload::Uniform { domain: 500 },
            seed: 3,
            feed: false,
            retry: LoadgenRetry::default(),
        };
        let report =
            create_and_run(|| Ok(server.connect_in_process()), "pressure", &stream_config, &config)
                .unwrap();
        assert_eq!(report.abandoned_batches, 0);
        assert_eq!(report.abandoned_elements, 0);
        assert_eq!(report.elements, 8_000);
        assert_eq!(report.stats.pipeline.elements, 8_000);
        server.stop();
    }

    #[test]
    fn exhausted_budget_abandons_batches_instead_of_spinning() {
        // Budget 0 abandons on the first Busy; elements + abandoned always
        // account for the whole offered load.
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 1 });
        let stream_config = StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 8,
            width: 16,
            depth: 3,
            seed: 5,
            family: HashFamilyKind::Mersenne,
        };
        let config = LoadgenConfig {
            connections: 4,
            elements_per_connection: 2_000,
            batch_len: 64,
            workload: Workload::Uniform { domain: 500 },
            seed: 3,
            feed: false,
            retry: LoadgenRetry { budget: 0, ..LoadgenRetry::default() },
        };
        let report =
            create_and_run(|| Ok(server.connect_in_process()), "pressure", &stream_config, &config)
                .unwrap();
        assert_eq!(report.elements + report.abandoned_elements, 8_000);
        assert_eq!(report.busy_retries, report.abandoned_batches);
        assert_eq!(report.stats.pipeline.elements, report.elements);
        server.stop();
    }

    #[test]
    fn retry_delays_are_deterministic_capped_and_jittered() {
        let retry = LoadgenRetry::default();
        let mut a = 7u64;
        let mut b = 7u64;
        let seq_a: Vec<Duration> = (1..20).map(|i| retry.delay(i, &mut a)).collect();
        let seq_b: Vec<Duration> = (1..20).map(|i| retry.delay(i, &mut b)).collect();
        assert_eq!(seq_a, seq_b, "same jitter state must give the same schedule");
        for d in &seq_a {
            assert!(*d <= retry.max_backoff, "{d:?} exceeds the cap");
            assert!(*d >= retry.base_backoff / 4, "{d:?} collapsed to nothing");
        }
        // Late attempts sit at the cap (modulo jitter): strictly above half.
        assert!(seq_a[18] >= retry.max_backoff / 2);
    }
}
