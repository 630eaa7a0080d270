//! Property-based tests for the sketch substrates.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;
use uns_sketch::{
    CountMinSketch, CountSketch, ExactFrequencyOracle, FrequencyEstimator, UniversalHash,
};

fn exact_counts(stream: &[u64]) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for &id in stream {
        *counts.entry(id).or_insert(0u64) += 1;
    }
    counts
}

proptest! {
    /// Count-Min is one-sided: it never under-estimates any recorded id.
    #[test]
    fn count_min_never_underestimates(
        stream in vec(0u64..512, 1..2000),
        width in 1usize..64,
        depth in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut sketch = CountMinSketch::with_dimensions(width, depth, seed).unwrap();
        for &id in &stream {
            sketch.record(id);
        }
        for (&id, &f) in &exact_counts(&stream) {
            prop_assert!(sketch.estimate(id) >= f);
        }
    }

    /// The tracked floor equals a naive scan over the touched cells, and
    /// the literal all-cells minimum equals a naive full scan.
    #[test]
    fn count_min_floor_matches_naive(
        stream in vec(0u64..128, 0..1500),
        width in 1usize..32,
        depth in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut sketch = CountMinSketch::with_dimensions(width, depth, seed).unwrap();
        for &id in &stream {
            sketch.record(id);
        }
        let cells: Vec<u64> = (0..depth).flat_map(|r| sketch.row(r).to_vec()).collect();
        let naive_nonzero = cells.iter().copied().filter(|&c| c > 0).min().unwrap_or(0);
        prop_assert_eq!(sketch.floor_estimate(), naive_nonzero);
        let naive_all = cells.iter().copied().min().unwrap();
        prop_assert_eq!(sketch.min_cell_including_zeros(), naive_all);
    }

    /// The estimate for any id is bounded by the total stream length, and
    /// the floor never exceeds the estimate of any *recorded* id.
    #[test]
    fn count_min_floor_is_a_lower_bound(
        stream in vec(0u64..64, 1..800),
        probe_index in 0usize..800,
        seed in any::<u64>(),
    ) {
        let mut sketch = CountMinSketch::with_dimensions(8, 3, seed).unwrap();
        for &id in &stream {
            sketch.record(id);
        }
        let probe = stream[probe_index % stream.len()];
        prop_assert!(sketch.floor_estimate() <= sketch.estimate(probe));
        prop_assert!(sketch.estimate(probe) <= sketch.total());
    }

    /// Merging sketches of two sub-streams matches the concatenated stream.
    #[test]
    fn count_min_merge_is_concatenation(
        left in vec(0u64..100, 0..500),
        right in vec(0u64..100, 0..500),
        seed in any::<u64>(),
    ) {
        let mut a = CountMinSketch::with_dimensions(16, 4, seed).unwrap();
        let mut b = CountMinSketch::with_dimensions(16, 4, seed).unwrap();
        let mut whole = CountMinSketch::with_dimensions(16, 4, seed).unwrap();
        for &id in &left {
            a.record(id);
            whole.record(id);
        }
        for &id in &right {
            b.record(id);
            whole.record(id);
        }
        a.merge(&b).unwrap();
        for id in 0..100u64 {
            prop_assert_eq!(a.estimate(id), whole.estimate(id));
        }
        prop_assert_eq!(a.total(), whole.total());
        prop_assert_eq!(a.floor_estimate(), whole.floor_estimate());
    }

    /// Recording in any order yields the same sketch (commutativity).
    #[test]
    fn count_min_is_order_insensitive(
        mut stream in vec(0u64..64, 0..600),
        seed in any::<u64>(),
    ) {
        let mut forward = CountMinSketch::with_dimensions(8, 3, seed).unwrap();
        for &id in &stream {
            forward.record(id);
        }
        stream.reverse();
        let mut backward = CountMinSketch::with_dimensions(8, 3, seed).unwrap();
        for &id in &stream {
            backward.record(id);
        }
        for id in 0..64u64 {
            prop_assert_eq!(forward.estimate(id), backward.estimate(id));
        }
        prop_assert_eq!(forward.floor_estimate(), backward.floor_estimate());
    }

    /// The exact oracle is, in fact, exact.
    #[test]
    fn exact_oracle_matches_truth(stream in vec(0u64..256, 0..1500)) {
        let oracle: ExactFrequencyOracle = stream.iter().copied().collect();
        let truth = exact_counts(&stream);
        for (&id, &f) in &truth {
            prop_assert_eq!(oracle.frequency(id), f);
        }
        prop_assert_eq!(oracle.total() as usize, stream.len());
        prop_assert_eq!(oracle.distinct_count(), truth.len());
        if !stream.is_empty() {
            prop_assert_eq!(oracle.min_frequency(), *truth.values().min().unwrap());
        }
    }

    /// Universal hash output always lands in range, deterministically.
    #[test]
    fn universal_hash_in_range(
        a in 1u64..uns_sketch::MERSENNE_PRIME_61,
        b in 0u64..uns_sketch::MERSENNE_PRIME_61,
        range in 1u64..10_000,
        x in any::<u64>(),
    ) {
        let h = UniversalHash::from_coefficients(a, b, range).unwrap();
        let y = h.hash(x);
        prop_assert!(y < range);
        prop_assert_eq!(y, h.hash(x));
    }

    /// Count sketch total and clamping invariants.
    #[test]
    fn count_sketch_total_and_clamp(stream in vec(0u64..64, 0..600), seed in any::<u64>()) {
        let mut sketch = CountSketch::with_dimensions(16, 5, seed).unwrap();
        for &id in &stream {
            sketch.record(id);
        }
        prop_assert_eq!(sketch.total() as usize, stream.len());
        for id in 0..64u64 {
            // Estimates are clamped to non-negative and can never exceed m.
            prop_assert!(sketch.estimate(id) <= stream.len() as u64);
        }
    }

    /// The floor-estimate engine ≡ a naive full scan for Count-Min, under
    /// interleaved record / record_many / record_and_estimate /
    /// floor_estimate sequences (`op` selects the entry point per element).
    #[test]
    fn count_min_engine_floor_equals_naive_interleaved(
        stream in vec((0u64..96, 0u8..4), 1..800),
        width in 1usize..24,
        depth in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut sketch = CountMinSketch::with_dimensions(width, depth, seed).unwrap();
        for &(id, op) in &stream {
            let reported = match op {
                0 => {
                    sketch.record(id);
                    None
                }
                1 => Some(sketch.record_and_estimate(id).1),
                2 => {
                    sketch.record_many(id, 3);
                    None
                }
                _ => {
                    sketch.record(id);
                    Some(sketch.floor_estimate())
                }
            };
            let naive = (0..sketch.depth())
                .flat_map(|r| sketch.row(r).iter().copied())
                .filter(|&c| c > 0)
                .min()
                .unwrap_or(0);
            prop_assert_eq!(sketch.floor_estimate(), naive);
            if let Some(floor) = reported {
                prop_assert_eq!(floor, naive);
            }
        }
    }

    /// The Count sketch's published floor ≡ the naive mean row load under
    /// interleaved record / record_and_estimate / record_many sequences,
    /// and it bounds the raw magnitude minimum (signed counters:
    /// magnitudes shrink under sign cancellation).
    #[test]
    fn count_sketch_engine_floor_equals_naive_interleaved(
        stream in vec((0u64..96, 0u8..3), 1..800),
        width in 1usize..24,
        depth in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut sketch = CountSketch::with_dimensions(width, depth, seed).unwrap();
        for &(id, op) in &stream {
            let reported = match op {
                0 => {
                    sketch.record(id);
                    None
                }
                1 => Some(sketch.record_and_estimate(id).1),
                _ => {
                    sketch.record_many(id, 2);
                    None
                }
            };
            let raw_naive = (0..sketch.depth())
                .flat_map(|r| sketch.row(r).iter().map(|c| c.unsigned_abs()))
                .min()
                .unwrap_or(0);
            // The published floor is the cancellation-immune mean row load
            // (see the CountSketch docs).
            let naive = if sketch.total() == 0 {
                0
            } else {
                (sketch.total() / sketch.width() as u64).max(1)
            };
            prop_assert_eq!(sketch.floor_estimate(), naive);
            // min |cell| ≤ Σ|cell|/k ≤ total/k: the published floor always
            // dominates the raw minimum.
            prop_assert!(raw_naive <= naive);
            if let Some(floor) = reported {
                prop_assert_eq!(floor, naive);
            }
        }
    }

    /// The count-of-counts engine ≡ a naive scan over all per-id counts
    /// for the exact oracle, including batched jumps off the minimum.
    #[test]
    fn exact_oracle_engine_floor_equals_naive_interleaved(
        stream in vec((0u64..96, 0u8..4, 1u64..20), 1..800),
    ) {
        let mut oracle = ExactFrequencyOracle::new();
        for &(id, op, batch) in &stream {
            let reported = match op {
                0 => {
                    oracle.record(id);
                    None
                }
                1 => Some(oracle.record_and_estimate(id).1),
                2 => {
                    oracle.record_many(id, batch);
                    None
                }
                _ => {
                    oracle.record(id);
                    Some(oracle.floor_estimate())
                }
            };
            let naive = oracle.iter().map(|(_, count)| count).min().unwrap_or(0);
            prop_assert_eq!(oracle.floor_estimate(), naive);
            prop_assert_eq!(oracle.min_frequency(), naive);
            if let Some(floor) = reported {
                prop_assert_eq!(floor, naive);
            }
        }
    }
}
