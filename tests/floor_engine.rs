//! Cross-crate property tests of the floor-estimate engine under
//! *adversarial* streams: the incremental floors reported through the
//! fused `record_and_estimate` path must equal a naive full scan for all
//! three estimators, element by element, when `SybilInjector` merges sybil
//! bursts into honest traffic — the workload whose brand-new-rare-id
//! churn is exactly what the engine optimizes (and what a subtly stale
//! tracker would get wrong first).

use proptest::prelude::*;
use uniform_node_sampling::{KnowledgeFreeSampler, NodeId, NodeSampler};
use uns_sketch::{CountMinSketch, CountSketch, ExactFrequencyOracle, FrequencyEstimator};
use uns_streams::adversary::{InjectionSchedule, SybilInjector};
use uns_streams::{IdDistribution, IdStream};

/// Builds an honest stream with `distinct` sybils injected `repetitions`
/// times each, under the given schedule.
fn attacked_stream(
    honest_len: usize,
    distinct: usize,
    repetitions: usize,
    schedule: InjectionSchedule,
    seed: u64,
) -> Vec<u64> {
    let honest: Vec<NodeId> =
        IdStream::new(IdDistribution::uniform(200).unwrap(), seed).take(honest_len).collect();
    SybilInjector::new(10_000, distinct, repetitions)
        .with_schedule(schedule)
        .inject(&honest, seed ^ 0xabcd)
        .into_iter()
        .map(NodeId::as_u64)
        .collect()
}

fn count_min_naive_floor(sketch: &CountMinSketch) -> u64 {
    (0..sketch.depth())
        .flat_map(|r| sketch.row(r).iter().copied())
        .filter(|&c| c > 0)
        .min()
        .unwrap_or(0)
}

/// The Count sketch's published floor: the cancellation-immune mean row
/// load (`max(1, ⌊total/k⌋)`, 0 while empty) — see the `CountSketch` docs.
fn count_sketch_naive_floor(sketch: &CountSketch) -> u64 {
    if sketch.total() == 0 {
        0
    } else {
        (sketch.total() / sketch.width() as u64).max(1)
    }
}

/// The raw magnitude minimum `min |cell|`, which the published floor bounds.
fn count_sketch_naive_min_abs_cell(sketch: &CountSketch) -> u64 {
    (0..sketch.depth())
        .flat_map(|r| sketch.row(r).iter().map(|c| c.unsigned_abs()))
        .min()
        .unwrap_or(0)
}

fn schedule_from(index: u8) -> InjectionSchedule {
    match index % 3 {
        0 => InjectionSchedule::Uniform,
        1 => InjectionSchedule::Front,
        _ => InjectionSchedule::Periodic(7),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Count-Min: engine floor ≡ naive touched-cell scan on every element
    /// of a sybil-injected stream.
    #[test]
    fn count_min_floor_survives_sybil_injection(
        distinct in 1usize..40,
        repetitions in 1usize..12,
        schedule in 0u8..3,
        seed in any::<u64>(),
    ) {
        let stream = attacked_stream(400, distinct, repetitions, schedule_from(schedule), seed);
        let mut sketch = CountMinSketch::with_dimensions(10, 5, seed).unwrap();
        for &id in &stream {
            let (_, floor) = sketch.record_and_estimate(id);
            prop_assert_eq!(floor, count_min_naive_floor(&sketch));
        }
    }

    /// Count sketch: the published floor ≡ the mean-row-load reference
    /// under sybil injection, and it bounds the raw magnitude minimum —
    /// sign cancellations included.
    #[test]
    fn count_sketch_floor_survives_sybil_injection(
        distinct in 1usize..40,
        repetitions in 1usize..12,
        schedule in 0u8..3,
        seed in any::<u64>(),
    ) {
        let stream = attacked_stream(400, distinct, repetitions, schedule_from(schedule), seed);
        let mut sketch = CountSketch::with_dimensions(10, 5, seed).unwrap();
        for &id in &stream {
            let (_, floor) = sketch.record_and_estimate(id);
            prop_assert_eq!(floor, count_sketch_naive_floor(&sketch));
            // The published floor dominates the raw minimum (per row,
            // min |cell| <= Σ|cell|/k <= total/k).
            prop_assert!(count_sketch_naive_min_abs_cell(&sketch) <= floor);
        }
    }

    /// Exact oracle: count-of-counts floor ≡ naive min over all counts.
    /// Sybil injection is its worst case — every new sybil resets the
    /// minimum to 1.
    #[test]
    fn exact_oracle_floor_survives_sybil_injection(
        distinct in 1usize..40,
        repetitions in 1usize..12,
        schedule in 0u8..3,
        seed in any::<u64>(),
    ) {
        let stream = attacked_stream(400, distinct, repetitions, schedule_from(schedule), seed);
        let mut oracle = ExactFrequencyOracle::new();
        for &id in &stream {
            let (_, floor) = oracle.record_and_estimate(id);
            let naive = oracle.iter().map(|(_, count)| count).min().unwrap_or(0);
            prop_assert_eq!(floor, naive);
        }
    }

    /// End-to-end: a knowledge-free sampler fed a sybil-injected stream
    /// evolves identically whether its estimator reports floors through
    /// the engine (fused path) or through post-record queries (split
    /// path) — i.e. the engine changes performance, never sampling
    /// behaviour.
    #[test]
    fn sampler_behaviour_is_engine_independent(
        distinct in 1usize..30,
        repetitions in 1usize..10,
        seed in any::<u64>(),
    ) {
        let stream = attacked_stream(300, distinct, repetitions, InjectionSchedule::Uniform, seed);
        let mut fused = KnowledgeFreeSampler::with_count_min(6, 10, 4, seed).unwrap();
        let mut split = KnowledgeFreeSampler::with_count_min(6, 10, 4, seed).unwrap();
        let mut shadow = split.estimator().clone();
        for &id in &stream {
            let out_fused = fused.feed(NodeId::new(id));
            // Drive the split sampler through the precomputed path with
            // floors obtained by explicit post-record queries.
            shadow.record(id);
            let (f_hat, min_sigma) = (shadow.estimate(id), shadow.floor_estimate());
            let out_split = split.feed_precomputed(NodeId::new(id), f_hat, min_sigma);
            prop_assert_eq!(out_fused, out_split);
        }
        prop_assert_eq!(fused.memory_contents(), split.memory_contents());
    }
}
