//! Randomized interleaved operation sequences, replayed against the
//! library sampler and a live service stream — bit-equality generalized.
//!
//! PR 3's cross-path exactness tests pin hand-picked interleavings
//! (concurrent million-element feeds, snapshot-at-500k). This suite
//! generates *arbitrary* interleavings of every stream operation —
//! `Ingest`, `FeedBatch`, `Sample`, `FloorEstimate`, `Snapshot` +
//! `Restore`-and-migrate, `Stats` — and asserts the service stream stays
//! bit-equal to an in-process [`ServiceSampler`] applying the same ops:
//! identical outputs, identical samples, identical floors, identical
//! snapshot bytes, identical admission accounting. Restores migrate the
//! live stream to a fresh name mid-sequence, so the equivalence also
//! covers "snapshot, restore elsewhere, keep going" at arbitrary points
//! in the coin stream (mid-block included — the blocked generator's
//! pending words ride in the blob).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use uns_core::NodeId;
use uns_service::protocol::{EstimatorKind, HashFamilyKind, StreamConfig};
use uns_service::{
    DurabilityConfig, MemBackend, Server, ServerConfig, ServiceClient, ServiceError, ServiceSampler,
};

/// One generated operation; batch contents derive from `seed` so cases
/// shrink well (a failing sequence shrinks over op tags and lengths, not
/// over thousands of raw identifiers).
#[derive(Clone, Copy, Debug)]
enum Op {
    Ingest { len: usize, seed: u64 },
    Feed { len: usize, seed: u64 },
    Sample,
    Floor,
    SnapshotAndMigrate,
    Stats,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..160, any::<u64>()).prop_map(|(len, seed)| Op::Ingest { len, seed }),
        (1usize..160, any::<u64>()).prop_map(|(len, seed)| Op::Feed { len, seed }),
        Just(Op::Sample),
        Just(Op::Floor),
        Just(Op::SnapshotAndMigrate),
        Just(Op::Stats),
    ]
}

/// Adversarially shaped batch: mixed uniform ids, a flooded id, and a
/// sybil band, so admissions exercise every branch of Algorithm 3.
fn batch(len: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let roll = rng.gen_range(0..10u32);
            let id = match roll {
                0..=5 => rng.gen_range(0..96u64),
                6..=8 => 7,
                _ => 1_000 + rng.gen_range(0..8u64),
            };
            NodeId::new(id)
        })
        .collect()
}

fn kind_from(index: u8) -> EstimatorKind {
    match index % 3 {
        0 => EstimatorKind::CountMin,
        1 => EstimatorKind::CountSketch,
        _ => EstimatorKind::Exact,
    }
}

fn retry_busy<T>(mut op: impl FnMut() -> Result<T, ServiceError>) -> T {
    loop {
        match op() {
            Err(ServiceError::Busy) => std::thread::yield_now(),
            other => return other.expect("service operation failed"),
        }
    }
}

/// Checks that every counter the wire `Stats` opcode reports for `name`
/// equals the sample the exposition renders for it.
fn stats_match_exposition(
    client: &mut ServiceClient<UnixStream>,
    name: &str,
) -> Result<(), String> {
    let stats = retry_busy(|| client.stats(name));
    let exposition = client.metrics().expect("metrics scrape");
    let samples = uns_metrics::parse_exposition(&exposition).expect("live exposition parses");
    let labels = [("stream", name)];
    for (family, want) in [
        (uns_sim::metrics::METRIC_STREAM_ELEMENTS, stats.pipeline.elements),
        (uns_sim::metrics::METRIC_STREAM_ADMITTED, stats.pipeline.admitted),
        (uns_sim::metrics::METRIC_STREAM_OUTPUTS, stats.pipeline.outputs),
        (uns_sim::metrics::METRIC_STREAM_BATCHES, stats.pipeline.chunks as u64),
        (uns_sim::metrics::METRIC_STREAM_SHARDS, stats.pipeline.shards as u64),
        (uns_service::metrics::METRIC_STREAM_BUSY, stats.busy_rejections),
        (uns_service::metrics::METRIC_STREAM_WAL_BYTES, stats.durability.wal_bytes),
        (uns_service::metrics::METRIC_STREAM_WAL_RECORDS, stats.durability.wal_records),
        (uns_service::metrics::METRIC_STREAM_COMPACTIONS, stats.durability.snapshot_compactions),
        (uns_service::metrics::METRIC_STREAM_RECOVERIES, stats.durability.recoveries),
        (uns_service::metrics::METRIC_STREAM_REPLICA_LAG, stats.replication.lag_records),
        (uns_service::metrics::METRIC_STREAM_REPLICATION_BYTES, stats.replication.shipped_bytes),
        (uns_service::metrics::METRIC_STREAM_FAILOVERS, stats.replication.failovers),
    ] {
        let sample = uns_metrics::parse::find(&samples, family, &labels)
            .unwrap_or_else(|| panic!("exposition lacks {family} for {name}"));
        prop_assert_eq!(sample.value_u64(), Some(want), "{} drifted from the Stats opcode", family);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_op_sequences_are_bit_equal_to_the_library_sampler(
        ops in prop_vec(op_strategy(), 1..24),
        kind_index in 0u8..3,
        stream_seed in any::<u64>(),
    ) {
        let config = StreamConfig {
            kind: kind_from(kind_index),
            capacity: 8,
            width: 12,
            depth: 4,
            seed: stream_seed,
            family: HashFamilyKind::Mersenne,
        };
        let server = Server::start(ServerConfig { workers: 2, queue_depth: 8 });
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();

        let mut reference = ServiceSampler::create(&config).unwrap();
        let mut generation = 0u32;
        let mut name = format!("seq-{stream_seed}-{generation}");
        retry_busy(|| client.create_stream(&name, &config));

        // Reference-side accounting mirrored against the service's Stats.
        let (mut elements, mut admitted, mut outputs_drawn) = (0u64, 0u64, 0u64);

        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Ingest { len, seed } => {
                    let ids = batch(len, seed);
                    let ack = retry_busy(|| client.ingest(&name, &ids));
                    let ref_admitted = reference.ingest_batch(&ids);
                    elements += ids.len() as u64;
                    admitted += ref_admitted;
                    prop_assert_eq!(ack.admitted, ref_admitted, "step {}: admissions", step);
                    prop_assert_eq!(ack.position, elements, "step {}: position", step);
                }
                Op::Feed { len, seed } => {
                    let ids = batch(len, seed);
                    let ack = retry_busy(|| client.feed_batch(&name, &ids));
                    let mut ref_out = Vec::new();
                    let ref_admitted = reference.feed_batch(&ids, &mut ref_out);
                    elements += ids.len() as u64;
                    admitted += ref_admitted;
                    outputs_drawn += ids.len() as u64;
                    prop_assert_eq!(&ack.outputs, &ref_out, "step {}: outputs", step);
                    prop_assert_eq!(ack.admitted, ref_admitted, "step {}: admissions", step);
                    prop_assert_eq!(ack.position, elements, "step {}: position", step);
                }
                Op::Sample => {
                    let served = retry_busy(|| client.sample(&name));
                    prop_assert_eq!(served, reference.sample(), "step {step}: sample");
                }
                Op::Floor => {
                    let served = retry_busy(|| client.floor_estimate(&name));
                    prop_assert_eq!(served, reference.floor_estimate(), "step {step}: floor");
                }
                Op::SnapshotAndMigrate => {
                    let blob = retry_busy(|| client.snapshot(&name));
                    let mut ref_blob = Vec::new();
                    reference.snapshot(&mut ref_blob);
                    prop_assert_eq!(&blob, &ref_blob, "step {step}: snapshot bytes");
                    // Migrate: restore under a fresh name and continue
                    // there; the reference restores from the same bytes, so
                    // both sides resume from the identical encoded state.
                    generation += 1;
                    name = format!("seq-{stream_seed}-{generation}");
                    retry_busy(|| client.restore(&name, &blob));
                    reference = ServiceSampler::restore(&blob).unwrap();
                    // A restored stream starts fresh traffic counters (and
                    // with them, reply positions) — mirror that.
                    elements = 0;
                    admitted = 0;
                    outputs_drawn = 0;
                }
                Op::Stats => {
                    let stats = retry_busy(|| client.stats(&name));
                    prop_assert_eq!(stats.pipeline.elements, elements, "step {step}: elements");
                    prop_assert_eq!(stats.pipeline.admitted, admitted, "step {step}: admitted");
                    prop_assert_eq!(stats.pipeline.outputs, outputs_drawn, "step {step}: outputs");
                }
            }
        }

        // Endgame: states are byte-identical and keep agreeing.
        let blob = retry_busy(|| client.snapshot(&name));
        let mut ref_blob = Vec::new();
        reference.snapshot(&mut ref_blob);
        prop_assert_eq!(blob, ref_blob, "final snapshot bytes");
        let tail = batch(64, 0xfeed);
        let ack = retry_busy(|| client.feed_batch(&name, &tail));
        let mut ref_out = Vec::new();
        reference.feed_batch(&tail, &mut ref_out);
        prop_assert_eq!(ack.outputs, ref_out, "post-sequence tail outputs");
    }

    /// The two observability surfaces never drift: after an arbitrary op
    /// sequence (including mid-sequence snapshot → restore migrations),
    /// every counter the wire `Stats` opcode reports equals — bit for bit
    /// — the sample the Prometheus exposition renders for the same stream,
    /// because both read the same atomics once the connection quiesces.
    /// On a durable server, a 512-byte compaction threshold makes the log
    /// compact mid-sequence, and a restart over the same backend then
    /// compares the recovered stream's series too.
    #[test]
    fn stats_opcode_and_metrics_exposition_agree_bit_for_bit(
        ops in prop_vec(op_strategy(), 1..24),
        kind_index in 0u8..3,
        stream_seed in any::<u64>(),
        durable in any::<bool>(),
    ) {
        let config = StreamConfig {
            kind: kind_from(kind_index),
            capacity: 8,
            width: 12,
            depth: 4,
            seed: stream_seed,
            family: HashFamilyKind::Mersenne,
        };
        let server_config = ServerConfig { workers: 2, queue_depth: 8 };
        let backend = MemBackend::new();
        let durability = DurabilityConfig {
            compact_bytes: 512,
            ..DurabilityConfig::new(Arc::new(backend.clone()))
        };
        let start = || {
            if durable {
                Server::start_durable(server_config, durability.clone()).unwrap()
            } else {
                Server::start(server_config)
            }
        };
        let server = start();
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        let mut name = format!("diff-{stream_seed}-0");
        retry_busy(|| client.create_stream(&name, &config));
        let mut generation = 0u32;
        for &op in &ops {
            match op {
                Op::Ingest { len, seed } => {
                    retry_busy(|| client.ingest(&name, &batch(len, seed)));
                }
                Op::Feed { len, seed } => {
                    retry_busy(|| client.feed_batch(&name, &batch(len, seed)));
                }
                Op::Sample => {
                    retry_busy(|| client.sample(&name));
                }
                Op::Floor => {
                    retry_busy(|| client.floor_estimate(&name));
                }
                Op::SnapshotAndMigrate => {
                    let blob = retry_busy(|| client.snapshot(&name));
                    generation += 1;
                    name = format!("diff-{stream_seed}-{generation}");
                    retry_busy(|| client.restore(&name, &blob));
                }
                Op::Stats => {
                    retry_busy(|| client.stats(&name));
                }
            }
        }
        stats_match_exposition(&mut client, &name)?;
        if durable {
            drop(client);
            drop(server);
            let server = start();
            let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
            stats_match_exposition(&mut client, &name)?;
        }
    }
}
