//! Micro-benchmarks of the frequency-estimation substrates (the paper's
//! Algorithm 2 and its alternatives), plus the two primitives underneath
//! every per-element step: the 2-universal hash and the sampling memory's
//! uniform replacement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use uns_core::{NodeId, SamplingMemory};
use uns_sketch::{
    CountMinSketch, CountSketch, ExactFrequencyOracle, FrequencyEstimator, HashFamily,
    HashFamilyKind, UniversalHash,
};
use uns_streams::adversary::{peak_attack_distribution, targeted_flooding_distribution};
use uns_streams::IdStream;

const STREAM_LEN: usize = 10_000;

fn ids() -> Vec<u64> {
    IdStream::new(peak_attack_distribution(10_000).unwrap(), 3)
        .take(STREAM_LEN)
        .map(NodeId::as_u64)
        .collect()
}

/// The Fig. 7b stream (targeted + flooding attack) over the service
/// benchmark's 100k-id domain, which its Count-sketch workload feeds.
fn flooding_ids() -> Vec<u64> {
    IdStream::new(targeted_flooding_distribution(100_000).unwrap(), 4)
        .take(STREAM_LEN)
        .map(NodeId::as_u64)
        .collect()
}

fn bench_record(c: &mut Criterion) {
    let ids = ids();
    let mut group = c.benchmark_group("estimator_record");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    for (k, s) in [(10usize, 5usize), (50, 10), (250, 10)] {
        group.bench_with_input(
            BenchmarkId::new("count_min", format!("k{k}_s{s}")),
            &(k, s),
            |b, &(k, s)| {
                b.iter(|| {
                    let mut sketch = CountMinSketch::with_dimensions(k, s, 1).unwrap();
                    for &id in &ids {
                        sketch.record(id);
                    }
                    black_box(sketch.total())
                })
            },
        );
    }
    group.bench_function("count_sketch_k50_s10", |b| {
        b.iter(|| {
            let mut sketch = CountSketch::with_dimensions(50, 10, 1).unwrap();
            for &id in &ids {
                sketch.record(id);
            }
            black_box(sketch.total())
        })
    });
    group.bench_function("exact_oracle", |b| {
        b.iter(|| {
            let mut oracle = ExactFrequencyOracle::new();
            for &id in &ids {
                oracle.record(id);
            }
            black_box(oracle.total())
        })
    });
    group.finish();
}

fn bench_hash(c: &mut Criterion) {
    // The innermost primitive: one Carter–Wegman evaluation. The fast-range
    // rewrite targets exactly this number.
    let functions = HashFamily::new(3).functions(5, 10).unwrap();
    let ids = ids();
    let mut group = c.benchmark_group("universal_hash");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    group.bench_function("hash", |b| {
        let h = functions[0];
        b.iter(|| {
            let mut acc = 0u64;
            for &id in &ids {
                acc = acc.wrapping_add(h.hash(id));
            }
            black_box(acc)
        })
    });
    group.bench_function("hash_rows_s5", |b| {
        let mut out = Vec::with_capacity(functions.len());
        b.iter(|| {
            let mut acc = 0u64;
            for &id in &ids {
                out.clear();
                UniversalHash::hash_rows(&functions, id, &mut out);
                acc = acc.wrapping_add(out.iter().sum::<u64>());
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_hash_family(c: &mut Criterion) {
    // Mersenne Carter-Wegman vs multiply-shift, head to head, at the two
    // granularities the sketches use: one row evaluation over a prepared
    // input ("folded" - Mersenne pays fold61 once per element, multiply-
    // shift's preparation is the identity) and the full s=10 row sweep a
    // k=250,s=10 sketch runs per record.
    let ids = ids();
    let mut group = c.benchmark_group("hash_family");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    for family in [HashFamilyKind::Mersenne, HashFamilyKind::MultiplyShift] {
        let name = match family {
            HashFamilyKind::Mersenne => "mersenne",
            HashFamilyKind::MultiplyShift => "multiply_shift",
        };
        let rows = HashFamily::with_kind(3, family).row_hashes(10, 500).unwrap();
        group.bench_with_input(BenchmarkId::new("folded", name), &rows, |b, rows| {
            let row = rows[0];
            b.iter(|| {
                let mut acc = 0u64;
                for &id in &ids {
                    acc = acc.wrapping_add(row.eval_prepared(family.prepare(id)));
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("rows_s10", name), &rows, |b, rows| {
            b.iter(|| {
                let mut acc = 0u64;
                for &id in &ids {
                    let prepared = family.prepare(id);
                    for row in rows {
                        acc = acc.wrapping_add(row.eval_prepared(prepared));
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_memory(c: &mut Criterion) {
    // Γ's hot operations: membership + uniform replacement, and the output
    // draw. Dominated by the position-map probe the FxHashMap swap targets.
    let ids = ids();
    let mut group = c.benchmark_group("sampling_memory");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    for capacity in [10usize, 100] {
        group.bench_with_input(
            BenchmarkId::new("replace_uniform", capacity),
            &capacity,
            |b, &capacity| {
                b.iter(|| {
                    let mut rng = SmallRng::seed_from_u64(1);
                    let mut gamma = SamplingMemory::new(capacity).unwrap();
                    for &id in &ids {
                        if gamma.is_full() {
                            gamma.replace_uniform(&mut rng, NodeId::new(id));
                        } else {
                            gamma.insert(NodeId::new(id));
                        }
                    }
                    black_box(gamma.len())
                })
            },
        );
    }
    group.bench_function("contains_plus_sample", |b| {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut gamma = SamplingMemory::new(10).unwrap();
        for id in 0..10u64 {
            gamma.insert(NodeId::new(id));
        }
        b.iter(|| {
            let mut acc = 0u64;
            for &id in &ids {
                if gamma.contains(NodeId::new(id)) {
                    acc = acc.wrapping_add(1);
                }
                acc = acc.wrapping_add(gamma.sample_uniform(&mut rng).unwrap().as_u64());
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_fused(c: &mut Criterion) {
    // The lock-step cobegin pattern: fused record+estimate vs the split
    // record → estimate → floor sequence it replaces.
    let ids = ids();
    let mut group = c.benchmark_group("estimator_fused");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    group.bench_function("count_min_record_and_estimate", |b| {
        b.iter(|| {
            let mut sketch = CountMinSketch::with_dimensions(10, 5, 1).unwrap();
            let mut acc = 0u64;
            for &id in &ids {
                let (estimate, floor) = sketch.record_and_estimate(id);
                acc = acc.wrapping_add(estimate).wrapping_add(floor);
            }
            black_box(acc)
        })
    });
    group.bench_function("count_min_split_record_then_estimate", |b| {
        b.iter(|| {
            let mut sketch = CountMinSketch::with_dimensions(10, 5, 1).unwrap();
            let mut acc = 0u64;
            for &id in &ids {
                sketch.record(id);
                acc = acc.wrapping_add(sketch.estimate(id)).wrapping_add(sketch.floor_estimate());
            }
            black_box(acc)
        })
    });
    // The service benchmark's `estimator.record_ns_per_elem` stage as a
    // kernel: the Count sketch at the mixed_rw workload's k = 250, s = 10
    // (hash, update, read, median per id), next to Count-Min at the Fig. 7
    // k = 10, s = 5 on the same stream. Beside each Count-sketch record runs
    // the query the sampler's feed asks instead, which skips the median
    // when more than half of the rows read at or below the floor;
    // `_k50_s20` runs both past the 16-row switch. The Count sketches start
    // from 400k earlier elements of the stream, as in the service's
    // long-lived streams: on a fresh sketch the floor `total/k` is still
    // too small to decide admission.
    let flooding = flooding_ids();
    for (k, s) in [(250usize, 10usize), (50, 20)] {
        let mut warm = CountSketch::with_dimensions(k, s, 1).unwrap();
        let history = IdStream::new(targeted_flooding_distribution(100_000).unwrap(), 5);
        for id in history.take(400_000) {
            warm.record(id.as_u64());
        }
        group.bench_function(format!("count_sketch_record_and_estimate_k{k}_s{s}"), |b| {
            b.iter(|| {
                let mut sketch = warm.clone();
                for &id in &flooding {
                    black_box(sketch.record_and_estimate(id));
                }
            })
        });
        group.bench_function(format!("count_sketch_record_for_admission_k{k}_s{s}"), |b| {
            b.iter(|| {
                let mut sketch = warm.clone();
                for &id in &flooding {
                    black_box(sketch.record_for_admission(id));
                }
            })
        });
    }
    group.bench_function("count_min_record_and_estimate_k10_s5", |b| {
        b.iter(|| {
            let mut sketch = CountMinSketch::with_dimensions(10, 5, 1).unwrap();
            for &id in &flooding {
                black_box(sketch.record_and_estimate(id));
            }
        })
    });
    group.finish();
}

fn bench_row_updates(c: &mut Criterion) {
    // The fused record paths' row kernels on both sides of the 16-row
    // switch: depths up to 16 run a kernel compiled for that depth, deeper
    // sketches the one compiled for any depth.
    let ids = ids();
    let mut group = c.benchmark_group("sketch_row_updates");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    for (k, s) in [(10usize, 5usize), (10, 20)] {
        group.bench_function(format!("count_min_k{k}_s{s}"), |b| {
            b.iter(|| {
                let mut sketch = CountMinSketch::with_dimensions(k, s, 1).unwrap();
                let mut acc = 0u64;
                for &id in &ids {
                    let (estimate, floor) = sketch.record_and_estimate(id);
                    acc = acc.wrapping_add(estimate).wrapping_add(floor);
                }
                black_box(acc)
            })
        });
    }
    for (k, s) in [(50usize, 10usize), (50, 20)] {
        group.bench_function(format!("count_sketch_k{k}_s{s}"), |b| {
            b.iter(|| {
                let mut sketch = CountSketch::with_dimensions(k, s, 1).unwrap();
                let mut acc = 0u64;
                for &id in &ids {
                    let (estimate, floor) = sketch.record_and_estimate(id);
                    acc = acc.wrapping_add(estimate).wrapping_add(floor);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let ids = ids();
    let mut sketch = CountMinSketch::with_dimensions(50, 10, 1).unwrap();
    for &id in &ids {
        sketch.record(id);
    }
    let mut group = c.benchmark_group("estimator_query");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    group.bench_function("count_min_estimate", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &id in &ids {
                acc = acc.wrapping_add(sketch.estimate(id));
            }
            black_box(acc)
        })
    });
    group.bench_function("count_min_floor", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..STREAM_LEN {
                acc = acc.wrapping_add(sketch.floor_estimate());
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hash,
    bench_hash_family,
    bench_memory,
    bench_fused,
    bench_row_updates,
    bench_record,
    bench_query
);
criterion_main!(benches);
