//! Sharded parallel stream ingestion.
//!
//! The paper's sampling service is sequential: one stream, one sketch, one
//! memory. At production scale a node may face input streams of tens of
//! millions of identifiers (replayed backlogs, aggregated gossip from many
//! sockets) that a single core cannot absorb quickly enough. This module
//! exploits the one algebraic property that makes the Count-Min sketch
//! scale sideways: **sketches built with the same seed and dimensions are
//! mergeable by counter-wise addition**, and the merge is *exact* — the
//! merged sketch is bit-identical to the sketch of the concatenated stream
//! (`uns_sketch::CountMinSketch::merge`).
//!
//! [`ShardedIngestion`] splits a stream across worker threads, builds one
//! same-seed sketch per shard, merges them, and (optionally) seats a
//! knowledge-free sampler on top of the merged frequency state. The
//! division of labour mirrors how the paper separates Algorithm 2 (the
//! sketch, pure input processing — parallelizable) from Algorithm 3's
//! sampling loop (sequential coin flips — cheap):
//!
//! * sketch construction over the backlog: parallel, exact;
//! * the sampling pass that needs `Γ`'s coin history: sequential, but it
//!   starts from fully warmed frequency estimates, so a flooding
//!   identifier in the backlog is rejected from the very first element.
//!
//! # The full parallel sampling pipeline (single pass, delta logs)
//!
//! [`ShardedIngestion::pipeline_ingest`] / [`pipeline_feed`] go further:
//! they parallelize the *entire* Algorithm 3 run, not just the sketch, and
//! still produce output **bit-equal** to the sequential sampler. The key
//! observation is that the fused per-element query `(f̂_j, min_σ)` at
//! stream position `t` depends only on the sketch of the prefix `σ[..t]`
//! — and, under the standard update policy, on *which cells* an element
//! touches, which is a pure function of the hash family. The pipeline
//! therefore hashes every element exactly **once**:
//!
//! 1. **chunk pass (parallel)**: the stream is cut into chunks; for its
//!    current chunk, a worker computes each element's **delta log** — the
//!    per-row touched-cell indices
//!    ([`uns_sketch::CountMinSketch::touched_cells`]) — and accumulates
//!    the chunk's raw counter-delta matrix. This is the only hashing pass;
//! 2. **prefix merge (pipelined, cheap)**: a merger thread consumes the
//!    delta matrices in chunk order, hands each worker the exact prefix
//!    sketch at its chunk's start (a clone of the running merge,
//!    [`uns_sketch::CountMinSketch::merge_delta`]), and ends holding the
//!    full-stream sketch;
//! 3. **candidate pass (parallel, hash-free)**: the worker replays its
//!    chunk's delta log against the prefix clone via
//!    [`uns_sketch::CountMinSketch::record_at_cells`], annotating every
//!    element with the exact `(f̂_j, min_σ)` the sequential sampler would
//!    have seen — no re-hashing, just logged indices — and immediately
//!    drops the log (memory stays O(chunk) per worker);
//! 4. **replay (sequential, cheap)**: a single thread consumes the
//!    candidate queue in stream order and runs only the memory/coin half
//!    (`KnowledgeFreeSampler::absorb_precomputed_batch`), drawing coins
//!    exactly as the sequential sampler would.
//!
//! The hashing — the single most expensive part of the per-element sketch
//! work — is done once and spread over all shards; the counter updates run
//! twice (once into the delta matrix, once replaying onto the prefix), and
//! the sequential residue is a membership probe and the coin flips. The
//! previous two-pass pipeline re-hashed every element in its candidate
//! pass (a test-only copy keeps it as the differential reference). Either
//! way the result is exactness-preserving: memory `Γ`, RNG state and the
//! installed estimator all end bit-equal to a sequential run (pinned by
//! tests at 10 M elements / 4 threads in release).
//!
//! [`pipeline_feed`]: ShardedIngestion::pipeline_feed
//!
//! # Example
//!
//! ```
//! use uns_core::{NodeId, NodeSampler};
//! use uns_sim::ShardedIngestion;
//! use uns_sketch::FrequencyEstimator;
//!
//! # fn main() -> Result<(), uns_sim::SimError> {
//! let stream: Vec<NodeId> = (0..100_000u64).map(|i| NodeId::new(i % 1000)).collect();
//! let ingestion = ShardedIngestion::new(10, 5, 42, 4)?;
//! // Exactly the sketch a single thread would have built:
//! let sketch = ingestion.sketch_stream(&stream)?;
//! assert_eq!(sketch.total(), 100_000);
//! // A sampler pre-warmed with the merged frequency state:
//! let mut sampler = ingestion.warm_sampler(&stream, 10, 7)?;
//! assert!(sampler.sample().is_none()); // Γ starts empty; estimates don't
//! # Ok(())
//! # }
//! ```

use crate::error::SimError;
use crate::metrics::PipelineStats;
use std::sync::mpsc;
use uns_core::{KnowledgeFreeSampler, NodeId, NodeSampler};
use uns_sketch::{CountMinSketch, FrequencyEstimator, HashFamilyKind, SketchError};

/// One annotated admission candidate: the identifier plus the exact fused
/// `(f̂_j, min_σ)` the sequential sampler would compute at its position.
type Candidate = (NodeId, u64, u64);

/// Splits identifier streams across threads into same-seed Count-Min
/// sketches and merges the shards exactly.
#[derive(Clone, Debug)]
pub struct ShardedIngestion {
    width: usize,
    depth: usize,
    seed: u64,
    family: HashFamilyKind,
    shards: usize,
}

impl From<SketchError> for SimError {
    fn from(err: SketchError) -> Self {
        SimError::Sampler(err.to_string())
    }
}

impl ShardedIngestion {
    /// Configures sharded ingestion into sketches of `width × depth`
    /// counters derived from `seed`, using `shards` worker threads.
    ///
    /// # Errors
    ///
    /// Rejects zero `shards` as [`SimError::InvalidConfig`] and invalid
    /// sketch dimensions as [`SimError::Sampler`].
    pub fn new(width: usize, depth: usize, seed: u64, shards: usize) -> Result<Self, SimError> {
        Self::with_family(width, depth, seed, HashFamilyKind::Mersenne, shards)
    }

    /// [`ShardedIngestion::new`] with an explicit sketch hash family. The
    /// pipeline's bit-equality argument is family-agnostic — every
    /// same-`(seed, family)` sketch shares identical hash functions, and
    /// that is all the merge/replay machinery relies on — so the whole
    /// parallel path works unchanged over multiply-shift rows.
    ///
    /// # Errors
    ///
    /// As [`ShardedIngestion::new`].
    pub fn with_family(
        width: usize,
        depth: usize,
        seed: u64,
        family: HashFamilyKind,
        shards: usize,
    ) -> Result<Self, SimError> {
        if shards == 0 {
            return Err(SimError::InvalidConfig {
                reason: "sharded ingestion needs at least one shard".into(),
            });
        }
        // Validate the dimensions once, up front, so the per-shard
        // constructors inside worker threads cannot fail.
        CountMinSketch::with_dimensions_family(width, depth, seed, family)?;
        Ok(Self { width, depth, seed, family, shards })
    }

    /// Number of worker threads used per ingestion call.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Builds the Count-Min sketch of `stream` by sharding it across the
    /// configured worker threads and merging the per-shard sketches.
    ///
    /// The result is exactly — counter for counter — the sketch a single
    /// thread would build by recording `stream` in order: recording is
    /// commutative addition, and same-seed sketches share identical hash
    /// functions.
    ///
    /// # Errors
    ///
    /// Propagates sketch construction/merge failures as
    /// [`SimError::Sampler`] (not expected after the validation in
    /// [`ShardedIngestion::new`]).
    pub fn sketch_stream(&self, stream: &[NodeId]) -> Result<CountMinSketch, SimError> {
        let mut merged =
            CountMinSketch::with_dimensions_family(self.width, self.depth, self.seed, self.family)?;
        if stream.is_empty() {
            return Ok(merged);
        }
        let chunk_len = stream.len().div_ceil(self.shards);
        let shard_sketches: Vec<Result<CountMinSketch, SketchError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = stream
                    .chunks(chunk_len)
                    .map(|chunk| {
                        scope.spawn(move || {
                            let mut sketch = CountMinSketch::with_dimensions_family(
                                self.width,
                                self.depth,
                                self.seed,
                                self.family,
                            )?;
                            for id in chunk {
                                sketch.record(id.as_u64());
                            }
                            Ok(sketch)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("shard worker panicked"))
                    .collect()
            });
        for shard in shard_sketches {
            merged.merge(&shard?)?;
        }
        Ok(merged)
    }

    /// Ingests `stream` in parallel and seats a knowledge-free sampler
    /// (memory size `capacity`, coins from `sampler_seed`) on the merged
    /// estimator.
    ///
    /// The returned sampler's memory `Γ` is empty — it has *frequency*
    /// knowledge, not residency history — so its first `feed`s behave like
    /// a fresh sampler that magically already knows which identifiers are
    /// flooding. Note the estimator state counts the backlog: identifiers
    /// re-fed to the sampler afterwards are recorded again, exactly as if
    /// one long stream had been split at that point.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Sampler`] from sketch construction or a zero
    /// `capacity`.
    pub fn warm_sampler(
        &self,
        stream: &[NodeId],
        capacity: usize,
        sampler_seed: u64,
    ) -> Result<KnowledgeFreeSampler, SimError> {
        let sketch = self.sketch_stream(stream)?;
        Ok(KnowledgeFreeSampler::new(capacity, sketch, sampler_seed)?)
    }

    /// Chunks per shard in the pipeline passes. Finer than one chunk per
    /// shard so the candidate pass and the replay thread overlap (a worker
    /// can annotate chunk `c + shards` while the replay consumes chunk
    /// `c`), at the price of `chunks` extra sketch clones.
    const CHUNKS_PER_SHARD: usize = 4;

    /// Runs the full parallel sampling pipeline over `stream` (see the
    /// module docs) and returns the warmed sampler plus throughput
    /// accounting. Input-only: no output samples are drawn.
    ///
    /// The result is **bit-equal** — memory `Γ` (including slot order),
    /// coin-generator state and estimator — to
    ///
    /// ```
    /// # use uns_core::{KnowledgeFreeSampler, NodeId, NodeSampler};
    /// # use uns_sketch::CountMinSketch;
    /// # let (width, depth, seed, capacity, sampler_seed) = (10, 5, 1, 4, 2);
    /// # let stream: Vec<NodeId> = (0..100u64).map(NodeId::new).collect();
    /// let estimator = CountMinSketch::with_dimensions(width, depth, seed).unwrap();
    /// let mut sampler = KnowledgeFreeSampler::new(capacity, estimator, sampler_seed).unwrap();
    /// for &id in &stream {
    ///     sampler.ingest(id);
    /// }
    /// ```
    ///
    /// run on one thread. Only the default [`uns_sketch::UpdatePolicy`]
    /// (Standard) is produced — conservative update makes per-row targets
    /// depend on the point query, which merges only approximately.
    ///
    /// # Errors
    ///
    /// Propagates sketch construction failures as [`SimError::Sampler`]
    /// and a zero `capacity` as [`SimError::Sampler`] (via
    /// `uns_core::CoreError`).
    pub fn pipeline_ingest(
        &self,
        stream: &[NodeId],
        capacity: usize,
        sampler_seed: u64,
    ) -> Result<(KnowledgeFreeSampler, PipelineStats), SimError> {
        self.pipeline_run(stream, capacity, sampler_seed, None)
    }

    /// [`ShardedIngestion::pipeline_ingest`] plus the per-element uniform
    /// output draws of [`uns_core::NodeSampler::feed`]: appends one output
    /// identifier per stream element to `out`, bit-equal to feeding the
    /// stream sequentially.
    ///
    /// # Errors
    ///
    /// As [`ShardedIngestion::pipeline_ingest`].
    pub fn pipeline_feed(
        &self,
        stream: &[NodeId],
        capacity: usize,
        sampler_seed: u64,
        out: &mut Vec<NodeId>,
    ) -> Result<(KnowledgeFreeSampler, PipelineStats), SimError> {
        self.pipeline_run(stream, capacity, sampler_seed, Some(out))
    }

    /// The single-pass delta-log pipeline behind
    /// [`ShardedIngestion::pipeline_ingest`]/[`ShardedIngestion::pipeline_feed`]
    /// (see the module docs for the four stages).
    fn pipeline_run(
        &self,
        stream: &[NodeId],
        capacity: usize,
        sampler_seed: u64,
        mut out: Option<&mut Vec<NodeId>>,
    ) -> Result<(KnowledgeFreeSampler, PipelineStats), SimError> {
        let estimator =
            CountMinSketch::with_dimensions_family(self.width, self.depth, self.seed, self.family)?;
        let mut sampler = KnowledgeFreeSampler::new(capacity, estimator, sampler_seed)?;
        let mut stats = PipelineStats {
            elements: stream.len() as u64,
            shards: self.shards,
            ..PipelineStats::default()
        };
        if stream.is_empty() {
            return Ok((sampler, stats));
        }
        if let Some(out) = out.as_deref_mut() {
            out.reserve(stream.len());
        }

        let chunk_len = stream.len().div_ceil(self.shards * Self::CHUNKS_PER_SHARD).max(1);
        let chunks: Vec<&[NodeId]> = stream.chunks(chunk_len).collect();
        stats.chunks = chunks.len();
        let workers = self.shards.min(chunks.len());
        let depth = self.depth;
        let cell_count = self.width * self.depth;
        // Shared hash reference for the delta logs (hash functions are the
        // same in every same-seed sketch) and the merger's running sketch.
        let reference =
            CountMinSketch::with_dimensions_family(self.width, self.depth, self.seed, self.family)?;
        let running = reference.clone();

        let full_sketch = std::thread::scope(|scope| {
            // One bounded channel set *per worker*: worker w owns chunks
            // w, w+W, … and exchanges messages in that order, so the
            // merger (chunk order) and the replay thread (stream order)
            // simply round-robin the channels — no reorder buffers, and a
            // stalled stage backpressures everyone to ~1 chunk in flight
            // per worker instead of letting anything pile up.
            let mut delta_txs = Vec::with_capacity(workers);
            let mut prefix_rxs = Vec::with_capacity(workers);
            let mut cand_rxs = Vec::with_capacity(workers);
            let mut prefix_txs = Vec::with_capacity(workers);
            let mut delta_rxs = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (delta_tx, delta_rx) = mpsc::sync_channel::<(Vec<u64>, u64)>(1);
                let (prefix_tx, prefix_rx) = mpsc::sync_channel::<CountMinSketch>(1);
                let (cand_tx, cand_rx) = mpsc::sync_channel::<Vec<Candidate>>(1);
                delta_txs.push(Some((delta_tx, cand_tx)));
                prefix_rxs.push(Some(prefix_rx));
                prefix_txs.push(prefix_tx);
                delta_rxs.push(delta_rx);
                cand_rxs.push(cand_rx);
            }

            // Merger: consumes delta matrices in chunk order, hands each
            // worker its exact prefix sketch, ends as the full merge.
            let chunk_count = chunks.len();
            let merger = scope.spawn(move || {
                let mut running = running;
                for c in 0..chunk_count {
                    let Ok((delta, elements)) = delta_rxs[c % workers].recv() else {
                        break; // worker gone: scope will re-raise its panic
                    };
                    if prefix_txs[c % workers].send(running.clone()).is_err() {
                        break;
                    }
                    running
                        .merge_delta(&delta, elements)
                        .expect("chunk delta matches the sketch shape");
                }
                running
            });

            for w in 0..workers {
                let (delta_tx, cand_tx) = delta_txs[w].take().expect("channel set unclaimed");
                let prefix_rx = prefix_rxs[w].take().expect("channel set unclaimed");
                let chunks = &chunks;
                let reference = &reference;
                scope.spawn(move || {
                    let mut log: Vec<u32> = Vec::new();
                    for c in (w..chunks.len()).step_by(workers) {
                        let chunk = chunks[c];
                        // Chunk pass: delta log + raw delta matrix — the
                        // only pass that hashes.
                        log.clear();
                        log.reserve(chunk.len() * depth);
                        let mut delta = vec![0u64; cell_count];
                        for &id in chunk {
                            let start = log.len();
                            reference.touched_cells(id.as_u64(), &mut log);
                            for &idx in &log[start..] {
                                delta[idx as usize] += 1;
                            }
                        }
                        if delta_tx.send((delta, chunk.len() as u64)).is_err() {
                            return; // merger gone: abandon quietly
                        }
                        // Candidate pass: replay the log against the exact
                        // prefix state — annotated fused values, no hashing.
                        let Ok(mut prefix) = prefix_rx.recv() else {
                            return;
                        };
                        let mut candidates = Vec::with_capacity(chunk.len());
                        for (i, &id) in chunk.iter().enumerate() {
                            let (f_hat, min_sigma) =
                                prefix.record_at_cells(&log[i * depth..(i + 1) * depth]);
                            candidates.push((id, f_hat, min_sigma));
                        }
                        if cand_tx.send(candidates).is_err() {
                            return; // replay side gone
                        }
                    }
                });
            }

            // Replay (this thread): stream order, exact coin order.
            for next in 0..chunks.len() {
                let Ok(candidates) = cand_rxs[next % workers].recv() else {
                    break; // a worker panicked; the scope re-raises it
                };
                match out.as_deref_mut() {
                    None => stats.admitted += sampler.absorb_precomputed_batch(&candidates),
                    Some(out) => {
                        for (id, f_hat, min_sigma) in candidates {
                            stats.admitted +=
                                u64::from(sampler.absorb_precomputed(id, f_hat, min_sigma));
                            let sample =
                                sampler.sample().expect("memory is non-empty after an absorb");
                            out.push(sample);
                            stats.outputs += 1;
                        }
                    }
                }
            }

            merger.join().expect("merger panicked")
        });

        // The replayed sampler never touched its own estimator; install the
        // full-stream sketch (exactly what sequential ingestion builds).
        sampler.install_estimator(full_sketch);
        Ok((sampler, stats))
    }

    /// The previous **two-pass** pipeline, retained as the test-only
    /// re-hashing reference the delta-log pipeline is differential-tested
    /// against: its candidate pass re-hashes every element from a cloned
    /// prefix sketch instead of replaying the chunk pass's delta log.
    /// Results are bit-equal to [`ShardedIngestion::pipeline_ingest`] (and
    /// therefore to sequential ingestion); only the cost profile differs.
    #[cfg(test)]
    fn pipeline_ingest_two_pass(
        &self,
        stream: &[NodeId],
        capacity: usize,
        sampler_seed: u64,
    ) -> Result<(KnowledgeFreeSampler, PipelineStats), SimError> {
        let estimator =
            CountMinSketch::with_dimensions_family(self.width, self.depth, self.seed, self.family)?;
        let mut sampler = KnowledgeFreeSampler::new(capacity, estimator, sampler_seed)?;
        let mut stats = PipelineStats {
            elements: stream.len() as u64,
            shards: self.shards,
            ..PipelineStats::default()
        };
        if stream.is_empty() {
            return Ok((sampler, stats));
        }

        // Chunk pass: per-chunk sketches in parallel (same-seed, mergeable).
        let chunk_len = stream.len().div_ceil(self.shards * Self::CHUNKS_PER_SHARD).max(1);
        let chunks: Vec<&[NodeId]> = stream.chunks(chunk_len).collect();
        stats.chunks = chunks.len();
        let workers = self.shards.min(chunks.len());
        let chunk_sketches = self.build_chunk_sketches(&chunks, workers)?;

        // Prefix merge: prefixes[c] is the exact sketch of stream[..start
        // of chunk c]; `running` ends as the full-stream sketch.
        let mut running =
            CountMinSketch::with_dimensions_family(self.width, self.depth, self.seed, self.family)?;
        let mut prefixes = Vec::with_capacity(chunks.len());
        for chunk_sketch in &chunk_sketches {
            prefixes.push(running.clone());
            running.merge(chunk_sketch)?;
        }

        // Candidate pass + replay: workers annotate their chunks with the
        // exact fused (f̂_j, min_σ) per element; this thread consumes the
        // candidate queue in stream order, drawing coins exactly as the
        // sequential sampler would. One bounded channel *per worker*:
        // worker w owns chunks w, w+W, … and sends them in that order, so
        // chunk `next` is simply the next message on channel `next % W` —
        // no reorder buffer, and a stalled worker backpressures everyone
        // to at most ~2 chunks in flight each instead of letting the
        // whole annotated stream pile up on the replay side.
        std::thread::scope(|scope| {
            let mut receivers = Vec::with_capacity(workers);
            for w in 0..workers {
                let (tx, rx) = mpsc::sync_channel::<Vec<Candidate>>(1);
                receivers.push(rx);
                let chunks = &chunks;
                let prefixes = &prefixes;
                scope.spawn(move || {
                    for c in (w..chunks.len()).step_by(workers) {
                        let mut sketch = prefixes[c].clone();
                        let mut candidates = Vec::with_capacity(chunks[c].len());
                        for &id in chunks[c] {
                            let (f_hat, min_sigma) = sketch.record_and_estimate(id.as_u64());
                            candidates.push((id, f_hat, min_sigma));
                        }
                        if tx.send(candidates).is_err() {
                            return; // replay side gone: abandon quietly
                        }
                    }
                });
            }

            for next in 0..chunks.len() {
                // Workers cannot fail; a closed channel means one panicked,
                // and the scope will re-raise its panic when joining.
                let Ok(candidates) = receivers[next % workers].recv() else {
                    break;
                };
                for (id, f_hat, min_sigma) in candidates {
                    stats.admitted += u64::from(sampler.absorb_precomputed(id, f_hat, min_sigma));
                }
            }
        });

        // The replayed sampler never touched its own estimator; install the
        // full-stream sketch (exactly what sequential ingestion builds).
        sampler.install_estimator(running);
        Ok((sampler, stats))
    }

    /// Builds the per-chunk sketches of the two-pass reference's chunk
    /// pass, `workers` threads striding over the chunk list.
    #[cfg(test)]
    fn build_chunk_sketches(
        &self,
        chunks: &[&[NodeId]],
        workers: usize,
    ) -> Result<Vec<CountMinSketch>, SimError> {
        let built: Vec<Result<Vec<(usize, CountMinSketch)>, SketchError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut built = Vec::new();
                            for c in (w..chunks.len()).step_by(workers) {
                                let mut sketch = CountMinSketch::with_dimensions_family(
                                    self.width,
                                    self.depth,
                                    self.seed,
                                    self.family,
                                )?;
                                for id in chunks[c] {
                                    sketch.record(id.as_u64());
                                }
                                built.push((c, sketch));
                            }
                            Ok(built)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("chunk worker panicked"))
                    .collect()
            });
        let mut ordered: Vec<Option<CountMinSketch>> = vec![None; chunks.len()];
        for worker_built in built {
            for (c, sketch) in worker_built? {
                ordered[c] = Some(sketch);
            }
        }
        Ok(ordered.into_iter().map(|s| s.expect("every chunk was sketched")).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uns_core::NodeSampler;
    use uns_sketch::FrequencyEstimator;

    fn skewed_stream(len: usize, domain: u64, seed: u64) -> Vec<NodeId> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                // Half the stream floods id 0, the rest is uniform.
                if rng.gen::<bool>() {
                    NodeId::new(0)
                } else {
                    NodeId::new(rng.gen_range(0..domain))
                }
            })
            .collect()
    }

    #[test]
    fn rejects_bad_configuration() {
        assert!(matches!(ShardedIngestion::new(10, 5, 0, 0), Err(SimError::InvalidConfig { .. })));
        assert!(matches!(ShardedIngestion::new(0, 5, 0, 2), Err(SimError::Sampler(_))));
    }

    #[test]
    fn empty_stream_yields_empty_sketch() {
        let sketch = ShardedIngestion::new(8, 3, 1, 4).unwrap().sketch_stream(&[]).unwrap();
        assert_eq!(sketch.total(), 0);
        assert_eq!(sketch.floor_estimate(), 0);
    }

    /// The acceptance-criterion property: sharding a multi-million-element
    /// stream across 4 threads yields a merged sketch whose estimates
    /// (every point query, the floor, and the total) exactly equal
    /// single-threaded ingestion. Debug builds use a smaller stream so
    /// `cargo test` stays fast; release runs the full 10M.
    #[test]
    fn sharded_ingestion_equals_single_threaded_exactly() {
        let len = if cfg!(debug_assertions) { 300_000 } else { 10_000_000 };
        let domain = 10_000u64;
        let stream = skewed_stream(len, domain, 99);

        let ingestion = ShardedIngestion::new(10, 5, 42, 4).unwrap();
        assert_eq!(ingestion.shards(), 4);
        let sharded = ingestion.sketch_stream(&stream).unwrap();

        let mut single = CountMinSketch::with_dimensions(10, 5, 42).unwrap();
        for id in &stream {
            single.record(id.as_u64());
        }

        assert_eq!(sharded.total(), single.total());
        assert_eq!(sharded.floor_estimate(), single.floor_estimate());
        for row in 0..single.depth() {
            assert_eq!(sharded.row(row), single.row(row), "row {row} differs");
        }
        for id in 0..domain {
            assert_eq!(sharded.estimate(id), single.estimate(id), "estimate of id {id}");
        }
    }

    #[test]
    fn shard_count_does_not_change_the_sketch() {
        let stream = skewed_stream(50_000, 500, 3);
        let reference = ShardedIngestion::new(12, 4, 7, 1).unwrap().sketch_stream(&stream).unwrap();
        for shards in [2usize, 3, 8, 13] {
            let sketch =
                ShardedIngestion::new(12, 4, 7, shards).unwrap().sketch_stream(&stream).unwrap();
            for row in 0..reference.depth() {
                assert_eq!(sketch.row(row), reference.row(row), "{shards} shards, row {row}");
            }
        }
    }

    #[test]
    fn multiply_shift_pipeline_is_bit_equal_to_sequential() {
        // The bit-equality contract holds per family: a multiply-shift
        // pipeline must reproduce the multiply-shift sequential sampler
        // exactly, and the sharded sketch must match single-threaded
        // ingestion counter for counter.
        let stream = skewed_stream(120_000, 2_000, 17);
        let ingestion =
            ShardedIngestion::with_family(10, 5, 42, HashFamilyKind::MultiplyShift, 4).unwrap();

        let sharded = ingestion.sketch_stream(&stream).unwrap();
        let mut single =
            CountMinSketch::with_dimensions_family(10, 5, 42, HashFamilyKind::MultiplyShift)
                .unwrap();
        for id in &stream {
            single.record(id.as_u64());
        }
        for row in 0..single.depth() {
            assert_eq!(sharded.row(row), single.row(row), "row {row} differs");
        }

        let (pipelined, _stats) = ingestion.pipeline_ingest(&stream, 10, 7).unwrap();
        let estimator =
            CountMinSketch::with_dimensions_family(10, 5, 42, HashFamilyKind::MultiplyShift)
                .unwrap();
        let mut sequential = KnowledgeFreeSampler::new(10, estimator, 7).unwrap();
        for &id in &stream {
            sequential.ingest(id);
        }
        let mut pipelined = pipelined;
        assert_eq!(pipelined.memory_contents(), sequential.memory_contents());
        for _ in 0..64 {
            assert_eq!(pipelined.sample(), sequential.sample());
        }
    }

    #[test]
    fn more_shards_than_elements_is_fine() {
        let stream: Vec<NodeId> = (0..5u64).map(NodeId::new).collect();
        let sketch = ShardedIngestion::new(4, 2, 1, 16).unwrap().sketch_stream(&stream).unwrap();
        assert_eq!(sketch.total(), 5);
    }

    /// Sequential reference for the pipeline contract: the exact sampler
    /// `pipeline_run` promises to reproduce bit for bit.
    fn sequential_sampler(
        (width, depth, sketch_seed): (usize, usize, u64),
        capacity: usize,
        sampler_seed: u64,
    ) -> KnowledgeFreeSampler {
        let estimator = CountMinSketch::with_dimensions(width, depth, sketch_seed).unwrap();
        KnowledgeFreeSampler::new(capacity, estimator, sampler_seed).unwrap()
    }

    /// The acceptance-criterion property: the full parallel pipeline at
    /// 10 M elements / 4 threads leaves the sampler — memory `Γ` including
    /// slot order, coin-generator state, and estimator — bit-equal to
    /// sequential ingestion. Debug builds use a smaller stream so
    /// `cargo test` stays fast; release runs the full 10 M.
    #[test]
    fn pipeline_ingest_is_bit_equal_to_sequential_at_scale() {
        let len = if cfg!(debug_assertions) { 300_000 } else { 10_000_000 };
        let domain = 10_000u64;
        let stream = skewed_stream(len, domain, 99);

        let ingestion = ShardedIngestion::new(10, 5, 42, 4).unwrap();
        let (pipelined, stats) = ingestion.pipeline_ingest(&stream, 10, 7).unwrap();
        assert_eq!(stats.elements, len as u64);
        assert_eq!(stats.shards, 4);
        assert!(stats.chunks >= 4);
        assert!(stats.admitted >= 10); // at least the free-slot fills
        assert_eq!(stats.outputs, 0);

        let mut sequential = sequential_sampler((10, 5, 42), 10, 7);
        for &id in &stream {
            sequential.ingest(id);
        }

        // Γ bit-equal, including slot order.
        let mut pipelined = pipelined;
        assert_eq!(pipelined.memory_contents(), sequential.memory_contents());
        // RNG state bit-equal: subsequent draws coincide.
        for _ in 0..64 {
            assert_eq!(pipelined.sample(), sequential.sample());
        }
        // Estimator bit-equal: every counter row and the floor.
        let (pe, se) = (pipelined.estimator(), sequential.estimator());
        assert_eq!(pe.total(), se.total());
        assert_eq!(pe.floor_estimate(), se.floor_estimate());
        for row in 0..se.depth() {
            assert_eq!(pe.row(row), se.row(row), "row {row} differs");
        }
        // And the two keep evolving identically when fed further.
        for id in 0..1_000u64 {
            assert_eq!(pipelined.feed(NodeId::new(id)), sequential.feed(NodeId::new(id)));
        }
    }

    #[test]
    fn pipeline_feed_outputs_match_sequential_feed() {
        let stream = skewed_stream(120_000, 2_000, 5);
        let ingestion = ShardedIngestion::new(10, 5, 42, 4).unwrap();
        let mut outputs = Vec::new();
        let (_, stats) = ingestion.pipeline_feed(&stream, 8, 3, &mut outputs).unwrap();
        assert_eq!(stats.outputs, stream.len() as u64);
        assert!(stats.admission_rate() > 0.0 && stats.admission_rate() <= 1.0);

        let mut sequential = sequential_sampler((10, 5, 42), 8, 3);
        let expected: Vec<NodeId> = stream.iter().map(|&id| sequential.feed(id)).collect();
        assert_eq!(outputs, expected);
    }

    #[test]
    fn delta_log_pipeline_matches_two_pass_reference_and_sequential() {
        // Three implementations of the same contract must agree bit for
        // bit: the delta-log single-pass pipeline, the retained two-pass
        // (re-hashing) reference, and plain sequential ingestion.
        let stream = skewed_stream(150_000, 3_000, 77);
        for shards in [1usize, 3, 4] {
            let ingestion = ShardedIngestion::new(10, 5, 42, shards).unwrap();
            let (mut delta_log, delta_stats) = ingestion.pipeline_ingest(&stream, 9, 13).unwrap();
            let (mut two_pass, two_stats) =
                ingestion.pipeline_ingest_two_pass(&stream, 9, 13).unwrap();
            assert_eq!(delta_stats, two_stats, "{shards} shards: stats diverged");

            let mut sequential = sequential_sampler((10, 5, 42), 9, 13);
            for &id in &stream {
                sequential.ingest(id);
            }
            assert_eq!(delta_log.memory_contents(), sequential.memory_contents());
            assert_eq!(two_pass.memory_contents(), sequential.memory_contents());
            for row in 0..sequential.estimator().depth() {
                assert_eq!(delta_log.estimator().row(row), sequential.estimator().row(row));
                assert_eq!(two_pass.estimator().row(row), sequential.estimator().row(row));
            }
            assert_eq!(
                delta_log.estimator().floor_estimate(),
                sequential.estimator().floor_estimate()
            );
            // Coin streams aligned: the next draws coincide across all three.
            for _ in 0..64 {
                let expected = sequential.sample();
                assert_eq!(delta_log.sample(), expected);
                assert_eq!(two_pass.sample(), expected);
            }
        }
    }

    #[test]
    fn pipeline_shard_count_does_not_change_the_result() {
        let stream = skewed_stream(40_000, 500, 21);
        let reference_outputs = {
            let ingestion = ShardedIngestion::new(12, 4, 7, 1).unwrap();
            let mut out = Vec::new();
            ingestion.pipeline_feed(&stream, 6, 9, &mut out).unwrap();
            out
        };
        for shards in [2usize, 3, 8] {
            let ingestion = ShardedIngestion::new(12, 4, 7, shards).unwrap();
            let mut out = Vec::new();
            ingestion.pipeline_feed(&stream, 6, 9, &mut out).unwrap();
            assert_eq!(out, reference_outputs, "{shards} shards diverged");
        }
    }

    #[test]
    fn pipeline_handles_empty_and_tiny_streams() {
        let ingestion = ShardedIngestion::new(8, 3, 1, 4).unwrap();
        let (mut sampler, stats) = ingestion.pipeline_ingest(&[], 5, 1).unwrap();
        assert_eq!(stats.elements, 0);
        assert_eq!(stats.admission_rate(), 0.0);
        assert_eq!(sampler.sample(), None);

        let tiny: Vec<NodeId> = (0..3u64).map(NodeId::new).collect();
        let (mut sampler, stats) = ingestion.pipeline_ingest(&tiny, 5, 1).unwrap();
        assert_eq!(stats.elements, 3);
        assert_eq!(stats.admitted, 3); // free slots
        assert!(sampler.sample().is_some());
    }

    #[test]
    fn warm_sampler_rejects_flooders_from_the_first_element() {
        // After ingesting a backlog where id 0 floods, the warmed sampler's
        // very first insertion decisions already discriminate against id 0.
        let stream = skewed_stream(200_000, 1_000, 11);
        let sampler =
            ShardedIngestion::new(10, 5, 21, 4).unwrap().warm_sampler(&stream, 10, 5).unwrap();
        let a_flood = sampler.insertion_probability_estimate(NodeId::new(0));
        let a_rare = sampler.insertion_probability_estimate(NodeId::new(777));
        // With k = 10 columns over 1000 distinct ids every counter carries
        // collision mass, so the absolute probabilities are sketch-bounded;
        // what must hold is the discrimination between flooder and rare id.
        assert!(a_flood < 0.15, "flooded id got a_j = {a_flood}");
        assert!(a_rare > 0.5, "rare id got a_j = {a_rare}");
        assert!(a_flood * 4.0 < a_rare, "no discrimination: {a_flood} vs {a_rare}");
        assert_eq!(sampler.capacity(), 10);
        // The estimator carries the whole backlog.
        assert_eq!(sampler.estimator().total(), 200_000);
    }
}
