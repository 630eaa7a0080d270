//! Incremental vs naive floor maintenance across the three estimators.
//!
//! The knowledge-free sampler queries the floor `min_σ` on *every* stream
//! element (Algorithm 3, line 6), so the cost of maintaining the minimum —
//! not just computing it once — is a first-order term of the per-element
//! budget. This group pits the incremental floor-estimate engine (the
//! `record_and_estimate` path, which keeps the floor up to date as counters
//! move) against a naive baseline that recomputes the floor with a full
//! scan after every record, for Count-Min and the exact oracle. The Count
//! sketch's floor is an O(1) arithmetic read with no scan to compare
//! against, so its ids time its record entry points. All run on three
//! stream shapes:
//!
//! * `uniform` — 10 000 ids drawn uniformly: rare-id-heavy, every element
//!   is a potential new minimum (the exact oracle's worst case);
//! * `zipf` — Zipf(1.2) skew: a few heavy hitters, a long rare tail;
//! * `targeted_flooding` — the paper's Fig. 7b attack: ≈ 50 identifiers
//!   over-represented over uniform honest traffic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uns_sketch::{CountMinSketch, CountSketch, ExactFrequencyOracle, FrequencyEstimator};
use uns_streams::adversary::targeted_flooding_distribution;
use uns_streams::{IdDistribution, IdStream};

const STREAM_LEN: usize = 10_000;

fn streams() -> Vec<(&'static str, Vec<u64>)> {
    let take = |dist: IdDistribution, seed: u64| {
        IdStream::new(dist, seed).take(STREAM_LEN).map(|id| id.as_u64()).collect::<Vec<u64>>()
    };
    vec![
        ("uniform", take(IdDistribution::uniform(10_000).unwrap(), 5)),
        ("zipf", take(IdDistribution::zipf(10_000, 1.2).unwrap(), 6)),
        ("targeted_flooding", take(targeted_flooding_distribution(1_000).unwrap(), 7)),
    ]
}

/// Naive floor for Count-Min: full scan over the touched (non-zero) cells.
fn count_min_naive_floor(sketch: &CountMinSketch) -> u64 {
    (0..sketch.depth())
        .flat_map(|r| sketch.row(r).iter().copied())
        .filter(|&c| c > 0)
        .min()
        .unwrap_or(0)
}

fn bench_floor_estimate(c: &mut Criterion) {
    let streams = streams();
    let mut group = c.benchmark_group("floor_estimate");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));

    for (name, ids) in &streams {
        group.bench_with_input(BenchmarkId::new("count_min_incremental", name), ids, |b, ids| {
            b.iter(|| {
                let mut sketch = CountMinSketch::with_dimensions(50, 10, 1).unwrap();
                let mut acc = 0u64;
                for &id in ids {
                    let (_, floor) = sketch.record_and_estimate(id);
                    acc = acc.wrapping_add(floor);
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("count_min_naive", name), ids, |b, ids| {
            b.iter(|| {
                let mut sketch = CountMinSketch::with_dimensions(50, 10, 1).unwrap();
                let mut acc = 0u64;
                for &id in ids {
                    sketch.record(id);
                    acc = acc.wrapping_add(count_min_naive_floor(&sketch));
                }
                black_box(acc)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("count_sketch_incremental", name),
            ids,
            |b, ids| {
                b.iter(|| {
                    let mut sketch = CountSketch::with_dimensions(50, 10, 1).unwrap();
                    let mut acc = 0u64;
                    for &id in ids {
                        let (_, floor) = sketch.record_and_estimate(id);
                        acc = acc.wrapping_add(floor);
                    }
                    black_box(acc)
                })
            },
        );
        // Plain per-element records, against the batched record_unfloored
        // below.
        group.bench_with_input(BenchmarkId::new("count_sketch_record", name), ids, |b, ids| {
            b.iter(|| {
                let mut sketch = CountSketch::with_dimensions(50, 10, 1).unwrap();
                for &id in ids {
                    sketch.record(id);
                }
                black_box(sketch.floor_estimate())
            })
        });
        // The accuracy-comparable width from the equal-memory ablations.
        group.bench_with_input(
            BenchmarkId::new("count_sketch_record_k250_s10", name),
            ids,
            |b, ids| {
                b.iter(|| {
                    let mut sketch = CountSketch::with_dimensions(250, 10, 1).unwrap();
                    for &id in ids {
                        sketch.record(id);
                    }
                    black_box(sketch.floor_estimate())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("count_sketch_unfloored", name), ids, |b, ids| {
            b.iter(|| {
                let mut sketch = CountSketch::with_dimensions(50, 10, 1).unwrap();
                // One hash-family dispatch per 4096-element batch.
                for batch in ids.chunks(4096) {
                    sketch.record_unfloored(batch);
                }
                black_box(sketch.floor_estimate())
            })
        });
        group.bench_with_input(
            BenchmarkId::new("exact_oracle_incremental", name),
            ids,
            |b, ids| {
                b.iter(|| {
                    let mut oracle = ExactFrequencyOracle::new();
                    let mut acc = 0u64;
                    for &id in ids {
                        let (_, floor) = oracle.record_and_estimate(id);
                        acc = acc.wrapping_add(floor);
                    }
                    black_box(acc)
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("exact_oracle_naive", name), ids, |b, ids| {
            b.iter(|| {
                let mut oracle = ExactFrequencyOracle::new();
                let mut acc = 0u64;
                for &id in ids {
                    oracle.record(id);
                    let naive = oracle.iter().map(|(_, count)| count).min().unwrap_or(0);
                    acc = acc.wrapping_add(naive);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_floor_estimate);
criterion_main!(benches);
