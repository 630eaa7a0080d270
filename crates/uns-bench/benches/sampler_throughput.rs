//! Per-element throughput of every sampling strategy.
//!
//! The paper requires "the amount of computation per data element of the
//! stream must be low to keep pace with the data stream" (§III-A); this
//! bench quantifies it for each strategy at the paper's Fig. 7 parameters
//! and across sketch sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uns_core::{
    KnowledgeFreeSampler, MinWiseSamplerArray, NodeId, NodeSampler, OmniscientSampler,
    ReservoirSampler,
};
use uns_sketch::{CountSketch, FrequencyEstimator, HashFamilyKind};
use uns_streams::adversary::peak_attack_distribution;
use uns_streams::IdStream;

const STREAM_LEN: usize = 10_000;

fn stream(n: usize) -> Vec<NodeId> {
    IdStream::new(peak_attack_distribution(n).unwrap(), 7).take(STREAM_LEN).collect()
}

fn feed_all(sampler: &mut dyn NodeSampler, stream: &[NodeId]) -> u64 {
    let mut acc = 0u64;
    for &id in stream {
        acc = acc.wrapping_add(sampler.feed(id).as_u64());
    }
    acc
}

fn bench_strategies(c: &mut Criterion) {
    let n = 1_000;
    let ids = stream(n);
    let probs = peak_attack_distribution(n).unwrap().probabilities().to_vec();
    let mut group = c.benchmark_group("sampler_feed");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));

    group.bench_function("omniscient(c=10)", |b| {
        b.iter(|| {
            let mut sampler = OmniscientSampler::new(10, &probs, 1).unwrap();
            black_box(feed_all(&mut sampler, &ids))
        })
    });
    group.bench_function("knowledge_free(c=10,k=10,s=5)", |b| {
        b.iter(|| {
            let mut sampler = KnowledgeFreeSampler::with_count_min(10, 10, 5, 1).unwrap();
            black_box(feed_all(&mut sampler, &ids))
        })
    });
    // The same feed with multiply-shift rows: what the weaker (factor-2
    // approximate) collision bound buys back in per-element hashing cost.
    for (k, s) in [(10usize, 5usize), (50, 10)] {
        group.bench_with_input(
            BenchmarkId::new("knowledge_free_multiply_shift", format!("c10_k{k}_s{s}")),
            &(k, s),
            |b, &(k, s)| {
                b.iter(|| {
                    let mut sampler = KnowledgeFreeSampler::with_count_min_family(
                        10,
                        k,
                        s,
                        1,
                        HashFamilyKind::MultiplyShift,
                    )
                    .unwrap();
                    black_box(feed_all(&mut sampler, &ids))
                })
            },
        );
    }
    // The Count-sketch ablation at two sizes: the paper-adjacent k=50 and
    // the accuracy-comparable k=250 (ε ≈ 0.011), where the old O(k·s)
    // per-element floor scan dominated the whole feed.
    for k in [50usize, 250] {
        group.bench_with_input(
            BenchmarkId::new("knowledge_free_count_sketch", format!("c10_k{k}_s10")),
            &k,
            |b, &k| {
                b.iter(|| {
                    let estimator = CountSketch::with_dimensions(k, 10, 1).unwrap();
                    let mut sampler = KnowledgeFreeSampler::new(10, estimator, 1).unwrap();
                    black_box(feed_all(&mut sampler, &ids))
                })
            },
        );
    }
    group.bench_function("adaptive_omniscient(c=10)", |b| {
        b.iter(|| {
            let mut sampler = KnowledgeFreeSampler::adaptive_omniscient(10, 1).unwrap();
            black_box(feed_all(&mut sampler, &ids))
        })
    });
    group.bench_function("reservoir(c=10)", |b| {
        b.iter(|| {
            let mut sampler = ReservoirSampler::new(10, 1).unwrap();
            black_box(feed_all(&mut sampler, &ids))
        })
    });
    group.bench_function("minwise_array(c=10)", |b| {
        b.iter(|| {
            let mut sampler = MinWiseSamplerArray::new(10, 1).unwrap();
            black_box(feed_all(&mut sampler, &ids))
        })
    });
    group.finish();
}

fn bench_sketch_scaling(c: &mut Criterion) {
    // The knowledge-free per-element cost scales with the sketch depth s;
    // this ablation backs the paper's "small number of operations" claim.
    let ids = stream(1_000);
    let mut group = c.benchmark_group("knowledge_free_sketch_scaling");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    for (k, s) in [(10usize, 5usize), (50, 10), (250, 10), (50, 40)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_s{s}")),
            &(k, s),
            |b, &(k, s)| {
                b.iter(|| {
                    let mut sampler = KnowledgeFreeSampler::with_count_min(10, k, s, 1).unwrap();
                    black_box(feed_all(&mut sampler, &ids))
                })
            },
        );
    }
    group.finish();
}

fn bench_batch_and_ingest(c: &mut Criterion) {
    // The input-only and batched entry points added for backlog ingestion:
    // same per-element state evolution as feed, minus wasted output draws
    // and per-call dispatch. The `*_plain_coins` ids drive the identical
    // coin stream through an unblocked SmallRng (the pre-PR-4 default), so
    // the blocked-vs-per-element coin cost is measured head to head.
    use rand::rngs::SmallRng;
    use uns_sketch::CountMinSketch;
    let ids = stream(1_000);
    let mut group = c.benchmark_group("knowledge_free_entry_points");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    group.bench_function("feed", |b| {
        b.iter(|| {
            let mut sampler = KnowledgeFreeSampler::with_count_min(10, 10, 5, 1).unwrap();
            black_box(feed_all(&mut sampler, &ids))
        })
    });
    group.bench_function("feed_plain_coins", |b| {
        b.iter(|| {
            let mut sampler =
                KnowledgeFreeSampler::<CountMinSketch, SmallRng>::with_count_min_rng(10, 10, 5, 1)
                    .unwrap();
            black_box(feed_all(&mut sampler, &ids))
        })
    });
    group.bench_function("feed_batch", |b| {
        let mut out = Vec::with_capacity(STREAM_LEN);
        b.iter(|| {
            let mut sampler = KnowledgeFreeSampler::with_count_min(10, 10, 5, 1).unwrap();
            out.clear();
            sampler.feed_batch(&ids, &mut out);
            black_box(out.last().copied())
        })
    });
    group.bench_function("feed_batch_plain_coins", |b| {
        let mut out = Vec::with_capacity(STREAM_LEN);
        b.iter(|| {
            let mut sampler =
                KnowledgeFreeSampler::<CountMinSketch, SmallRng>::with_count_min_rng(10, 10, 5, 1)
                    .unwrap();
            out.clear();
            sampler.feed_batch(&ids, &mut out);
            black_box(out.last().copied())
        })
    });
    group.bench_function("ingest", |b| {
        b.iter(|| {
            let mut sampler = KnowledgeFreeSampler::with_count_min(10, 10, 5, 1).unwrap();
            for &id in &ids {
                sampler.ingest(id);
            }
            black_box(sampler.sample())
        })
    });
    group.finish();
}

fn bench_sharded_ingestion(c: &mut Criterion) {
    // The multi-million-element scenario: sketching a 4M-element backlog
    // across worker threads (exact counter-wise merge).
    use uns_sim::ShardedIngestion;
    let ids: Vec<NodeId> =
        IdStream::new(peak_attack_distribution(100_000).unwrap(), 9).take(4_000_000).collect();
    let mut group = c.benchmark_group("sharded_ingestion_4m");
    group.throughput(Throughput::Elements(ids.len() as u64));
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &shards| {
            let ingestion = ShardedIngestion::new(10, 5, 42, shards).unwrap();
            b.iter(|| black_box(ingestion.sketch_stream(&ids).unwrap().total()))
        });
    }
    group.finish();
}

fn bench_parallel_pipeline(c: &mut Criterion) {
    // The end-to-end parallel sampling pipeline vs sequential ingestion
    // over a 4M-element backlog: identical (bit-equal) results, the sketch
    // work spread over shard workers. On a single-vCPU host the pipeline
    // pays its ~2× sketch-pass overhead with no cores to amortize it; the
    // shard sweep shows the scaling shape wherever cores exist.
    use uns_sim::ShardedIngestion;
    use uns_sketch::CountMinSketch;
    let ids: Vec<NodeId> =
        IdStream::new(peak_attack_distribution(100_000).unwrap(), 9).take(4_000_000).collect();
    let mut group = c.benchmark_group("parallel_pipeline_4m");
    group.throughput(Throughput::Elements(ids.len() as u64));
    group.bench_function("sequential_ingest", |b| {
        b.iter(|| {
            let estimator = CountMinSketch::with_dimensions(10, 5, 42).unwrap();
            let mut sampler = KnowledgeFreeSampler::new(10, estimator, 7).unwrap();
            for &id in &ids {
                sampler.ingest(id);
            }
            black_box(sampler.sample())
        })
    });
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("pipeline_ingest", shards),
            &shards,
            |b, &shards| {
                let ingestion = ShardedIngestion::new(10, 5, 42, shards).unwrap();
                b.iter(|| {
                    let (mut sampler, stats) = ingestion.pipeline_ingest(&ids, 10, 7).unwrap();
                    black_box((sampler.sample(), stats.admitted))
                })
            },
        );
    }
    group.finish();
}

fn bench_memory_scaling(c: &mut Criterion) {
    // Fig. 10 sweeps c up to 1000: confirm feeding stays O(1) in c.
    let ids = stream(1_000);
    let mut group = c.benchmark_group("knowledge_free_memory_scaling");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    for capacity in [10usize, 100, 300, 700] {
        group.bench_with_input(BenchmarkId::from_parameter(capacity), &capacity, |b, &cap| {
            b.iter(|| {
                let mut sampler = KnowledgeFreeSampler::with_count_min(cap, 10, 5, 1).unwrap();
                black_box(feed_all(&mut sampler, &ids))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_strategies,
    bench_batch_and_ingest,
    bench_sharded_ingestion,
    bench_parallel_pipeline,
    bench_sketch_scaling,
    bench_memory_scaling
);
criterion_main!(benches);
