//! The knowledge-free one-pass strategy — the paper's Algorithm 3.
//!
//! The knowledge-free strategy makes *no assumption* about the input
//! stream: neither its length, nor the number of distinct identifiers, nor
//! their frequency distribution. It runs the paper's Algorithm 2 (a
//! Count-Min sketch, `uns_sketch::CountMinSketch`) in lock-step with the
//! sampling loop (the paper's `cobegin`): every identifier `j` is first
//! recorded in the sketch, then the insertion probability is computed from
//! sketch state only:
//!
//! ```text
//! a_j = min_σ / f̂_j
//! ```
//!
//! where `f̂_j` is the sketch estimate for `j` and `min_σ` the sampling
//! floor — the minimum over the *touched* counters, maintained
//! incrementally by the estimator's floor-estimate engine
//! (`uns_sketch::min_tracker`; see
//! [`FrequencyEstimator::floor_estimate`] for the exact per-estimator
//! semantics, including the Count-sketch signed-counter caveat). Eviction
//! is uniform over `Γ` (`r_k = 1/c`, line 11) and the output is a uniform
//! resident (line 13).
//!
//! # Hot-path layout
//!
//! The per-element cost is dominated by three things, all addressed here:
//!
//! * the sketch is driven through the **fused**
//!   [`FrequencyEstimator::record_for_admission`] operation, so each row of
//!   the sketch is hashed once per element (the lock-step `cobegin` needs
//!   both `f̂_j` and `min_σ` anyway — recording and estimating separately
//!   would hash everything twice), and `min_σ` is an O(1) read off the
//!   estimator's floor engine rather than a counter scan. The operation
//!   answers `max(f̂_j, min_σ)`, which admits exactly like `f̂_j`
//!   (`a_j = 1` at or below the floor either way), so the estimator need
//!   not finish an estimate the rule will not read: the Count sketch skips
//!   the median of its rows when more than half of them read at or below
//!   `min_σ`, which on a flooded stream is almost every element. Both
//!   sketches compile their record once per depth up to 16 rows: the depth
//!   is matched once per element, and the row loop of each instantiation
//!   runs straight-line with no length checks (Count-Min hashes every row
//!   before it writes the first cell, so the hash arithmetic never waits
//!   behind the floor engine's branches);
//! * the sampler's per-element coins (one insertion coin, one output draw)
//!   come from a pluggable RNG `R`, defaulting to **blocked** xoshiro256++
//!   ([`rand::rngs::BlockRng`]`<`[`rand::rngs::SmallRng`]`>`): the
//!   generator pre-draws words in blocks of [`rand::rngs::BLOCK_LEN`] and
//!   every entry point — element-wise `feed`/`ingest` and the batch paths
//!   alike — serves its admission coins, eviction draws and output draws
//!   from that buffer, turning the per-coin generator step into an
//!   amortized block fill. The emitted coin stream is word-for-word the
//!   plain `SmallRng` stream for the same seed (pinned by tests and
//!   proptests), so the block boundary is observable *nowhere*: outputs,
//!   admissions and evictions are identical to a plain-generator run. The
//!   coins only decide admission/eviction among *already-sketch-filtered*
//!   candidates, so a fast non-cryptographic generator is statistically
//!   sufficient; pass [`rand::rngs::StdRng`] (ChaCha12) via
//!   [`KnowledgeFreeSampler::with_count_min_rng`] to reproduce runs made
//!   with the hardened generator;
//! * input-only consumers use [`NodeSampler::ingest`] /
//!   [`NodeSampler::feed_batch`] (see the trait docs for the contract), so
//!   no uniform output sample is computed when nobody reads it; batch
//!   consumers that also want admission accounting use
//!   [`KnowledgeFreeSampler::feed_batch_admitted`] /
//!   [`KnowledgeFreeSampler::ingest_batch_admitted`] (the service layer's
//!   entry points).
//!
//! The strategy is generic over the [`FrequencyEstimator`]: plugging in the
//! exact oracle instead of the sketch yields the *adaptive omniscient*
//! sampler (the paper's Algorithm 1 with `p_j` learned exactly on the fly),
//! and plugging in a Count sketch gives the estimator ablation measured by
//! the benchmark harness.

use crate::error::CoreError;
use crate::memory::SamplingMemory;
use crate::node_id::NodeId;
use crate::sampler::NodeSampler;
use rand::rngs::{BlockRng, SmallRng};
use rand::{Rng, SeedableRng};
use uns_sketch::{
    CountMinSketch, CountSketch, ExactFrequencyOracle, FrequencyEstimator, HashFamilyKind,
};

/// The default coin generator: xoshiro256++ behind a block buffer. Emits
/// exactly the [`SmallRng`] stream for the same seed (the blocking is a
/// cost-profile change, not a behavioural one); its snapshot state is the
/// inner generator plus the pending pre-drawn words — see
/// [`BlockRng::state_parts`].
pub type CoinRng = BlockRng<SmallRng>;

/// The paper's Algorithm 3: knowledge-free Byzantine-tolerant node
/// sampling, generic over the frequency estimator `E` and the coin
/// generator `R`.
///
/// # Example
///
/// ```
/// use uns_core::{KnowledgeFreeSampler, NodeId, NodeSampler};
///
/// # fn main() -> Result<(), uns_core::CoreError> {
/// // The paper's Figure 7 settings: c = 10, k = 10, s = 5.
/// let mut sampler = KnowledgeFreeSampler::with_count_min(10, 10, 5, 1)?;
/// let out = sampler.feed(NodeId::new(42));
/// assert_eq!(out, NodeId::new(42)); // sole resident so far
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct KnowledgeFreeSampler<E = CountMinSketch, R = CoinRng> {
    memory: SamplingMemory,
    estimator: E,
    rng: R,
}

/// Derives the estimator's hash-family seed from the sampler's stream
/// seed — the single definition shared by every sketch-backed constructor
/// (and relied on by `uns-service` stream reproducibility).
///
/// Public because external parties that rebuild the estimator half of a
/// sampler out-of-band — the parallel pipeline (`uns_sim::ShardedIngestion`
/// builds its shard sketches from an explicit sketch seed) and conformance
/// harnesses comparing those paths against service streams created from a
/// [`StreamConfig`-style](KnowledgeFreeSampler::with_count_min) single seed
/// — must apply the *same* derivation, or their sketches hash differently
/// and bit-equality is unobtainable.
pub fn derive_estimator_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1)
}

impl KnowledgeFreeSampler<CountMinSketch> {
    /// Creates the sampler with memory size `c = capacity` and a Count-Min
    /// sketch of `k = width` columns and `s = depth` rows — the exact
    /// configuration of the paper's experiments.
    ///
    /// The single `seed` deterministically derives both the sketch's hash
    /// functions and the sampler's random coins (drawn from the default
    /// blocked generator [`CoinRng`], whose coin stream is exactly the
    /// plain [`SmallRng`] stream for that seed; use
    /// [`KnowledgeFreeSampler::with_count_min_rng`] to pick the generator).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroCapacity`] if `capacity == 0` and wraps
    /// sketch dimension errors as [`CoreError::Sketch`].
    pub fn with_count_min(
        capacity: usize,
        width: usize,
        depth: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Self::with_count_min_rng(capacity, width, depth, seed)
    }

    /// [`KnowledgeFreeSampler::with_count_min`] with an explicit sketch
    /// hash family. `HashFamilyKind::Mersenne` reproduces it bit for bit;
    /// `HashFamilyKind::MultiplyShift` swaps the sketch's row hashes for
    /// Dietzfelbinger multiply-shift functions (2-approximately universal,
    /// cheaper per element). The seed derivation and the sampler's coin
    /// stream are family-independent.
    ///
    /// # Errors
    ///
    /// As [`KnowledgeFreeSampler::with_count_min`].
    pub fn with_count_min_family(
        capacity: usize,
        width: usize,
        depth: usize,
        seed: u64,
        family: HashFamilyKind,
    ) -> Result<Self, CoreError> {
        let sketch = CountMinSketch::with_dimensions_family(
            width,
            depth,
            derive_estimator_seed(seed),
            family,
        )?;
        Self::new(capacity, sketch, seed)
    }

    /// Creates the sampler sizing the sketch from accuracy targets
    /// (`k = ⌈e/ε⌉`, `s = ⌈ln(1/δ)⌉`), the parametrization of the paper's
    /// Algorithm 2.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroCapacity`] if `capacity == 0` and wraps
    /// invalid `ε`/`δ` as [`CoreError::Sketch`].
    pub fn with_error_bounds(
        capacity: usize,
        epsilon: f64,
        delta: f64,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let sketch =
            CountMinSketch::with_error_bounds(epsilon, delta, derive_estimator_seed(seed))?;
        Self::new(capacity, sketch, seed)
    }
}

impl<R: Rng + SeedableRng> KnowledgeFreeSampler<CountMinSketch, R> {
    /// [`KnowledgeFreeSampler::with_count_min`] with an explicit coin
    /// generator, e.g. `StdRng` (ChaCha12) to reproduce traces recorded
    /// with the hardened generator:
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use uns_core::{KnowledgeFreeSampler, NodeSampler, NodeId};
    /// use uns_sketch::CountMinSketch;
    ///
    /// let mut sampler =
    ///     KnowledgeFreeSampler::<CountMinSketch, StdRng>::with_count_min_rng(10, 10, 5, 1)
    ///         .unwrap();
    /// sampler.feed(NodeId::new(3));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroCapacity`] if `capacity == 0` and wraps
    /// sketch dimension errors as [`CoreError::Sketch`].
    pub fn with_count_min_rng(
        capacity: usize,
        width: usize,
        depth: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let sketch = CountMinSketch::with_dimensions(width, depth, derive_estimator_seed(seed))?;
        Self::with_estimator_and_rng(capacity, sketch, seed)
    }
}

impl KnowledgeFreeSampler<CountSketch> {
    /// Creates the sampler over a Count sketch of `k = width` buckets and
    /// `s = depth` rows — the estimator-ablation counterpart of
    /// [`KnowledgeFreeSampler::with_count_min`], with the identical
    /// seed-derivation plumbing (one stream seed derives both the packed
    /// bucket/sign hash functions and the sampler coins).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroCapacity`] if `capacity == 0` and wraps
    /// sketch dimension errors as [`CoreError::Sketch`].
    pub fn with_count_sketch(
        capacity: usize,
        width: usize,
        depth: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Self::with_count_sketch_family(capacity, width, depth, seed, HashFamilyKind::Mersenne)
    }

    /// [`KnowledgeFreeSampler::with_count_sketch`] with an explicit sketch
    /// hash family — the Count-sketch counterpart of
    /// [`KnowledgeFreeSampler::with_count_min_family`].
    ///
    /// # Errors
    ///
    /// As [`KnowledgeFreeSampler::with_count_sketch`].
    pub fn with_count_sketch_family(
        capacity: usize,
        width: usize,
        depth: usize,
        seed: u64,
        family: HashFamilyKind,
    ) -> Result<Self, CoreError> {
        let sketch =
            CountSketch::with_dimensions_family(width, depth, derive_estimator_seed(seed), family)?;
        Self::new(capacity, sketch, seed)
    }
}

impl KnowledgeFreeSampler<ExactFrequencyOracle> {
    /// Creates the *adaptive omniscient* sampler: Algorithm 3 driven by
    /// exact frequencies instead of sketched ones, i.e. Algorithm 1 with
    /// `p_j` learned on the fly at full-space cost.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroCapacity`] if `capacity == 0`.
    pub fn adaptive_omniscient(capacity: usize, seed: u64) -> Result<Self, CoreError> {
        Self::new(capacity, ExactFrequencyOracle::new(), seed)
    }
}

impl<E: FrequencyEstimator> KnowledgeFreeSampler<E> {
    /// Creates the sampler from an explicit estimator instance, using the
    /// default fast coin generator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroCapacity`] if `capacity == 0`.
    pub fn new(capacity: usize, estimator: E, seed: u64) -> Result<Self, CoreError> {
        Self::with_estimator_and_rng(capacity, estimator, seed)
    }
}

impl<E: FrequencyEstimator, R: Rng + SeedableRng> KnowledgeFreeSampler<E, R> {
    /// Creates the sampler from an explicit estimator and coin generator
    /// type — the fully general constructor behind every other one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroCapacity`] if `capacity == 0`.
    pub fn with_estimator_and_rng(
        capacity: usize,
        estimator: E,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Ok(Self { memory: SamplingMemory::new(capacity)?, estimator, rng: R::seed_from_u64(seed) })
    }
}

impl<E, R> KnowledgeFreeSampler<E, R> {
    /// Reassembles a sampler from its three state components — the
    /// snapshot/restore seam (`uns-service`). The caller is responsible for
    /// the components belonging together (a memory, estimator and coin
    /// generator captured from the *same* sampler at the *same* point):
    /// given that, the reassembled sampler is bit-equal going forward to
    /// the one the components were captured from.
    pub fn from_parts(memory: SamplingMemory, estimator: E, rng: R) -> Self {
        Self { memory, estimator, rng }
    }

    /// Read access to the sampling memory `Γ` (slot order included) — the
    /// counterpart of [`KnowledgeFreeSampler::estimator`] for snapshots.
    pub fn memory(&self) -> &SamplingMemory {
        &self.memory
    }

    /// Read access to the coin generator, e.g. to capture its state for a
    /// snapshot. For the default blocked generator the observable state is
    /// the inner xoshiro256++ state **plus** the pending pre-drawn words
    /// ([`BlockRng::state_parts`]) — both halves must be captured, or
    /// restored coins would skip ahead.
    pub fn rng(&self) -> &R {
        &self.rng
    }
}

impl<E: FrequencyEstimator, R: Rng> KnowledgeFreeSampler<E, R> {
    /// Read access to the underlying frequency estimator.
    pub fn estimator(&self) -> &E {
        &self.estimator
    }

    /// The insertion probability `a_j = min_σ/f̂_j` the sampler would use
    /// for `id` *right now* (without recording anything).
    ///
    /// Returns 1 when the estimator has no information yet (`f̂_j = 0`).
    pub fn insertion_probability_estimate(&self, id: NodeId) -> f64 {
        Self::admission_probability(
            self.estimator.estimate(id.as_u64()),
            self.estimator.floor_estimate(),
        )
    }

    /// The admission rule `a_j = min(min_σ/f̂_j, 1)`, with `f̂_j = 0`
    /// treated as "no information ⇒ admit" — the single definition used by
    /// both the public probe above and the feed path.
    fn admission_probability(f_hat: u64, min_sigma: u64) -> f64 {
        if f_hat == 0 {
            return 1.0;
        }
        (min_sigma as f64 / f_hat as f64).min(1.0)
    }

    /// The input half of [`NodeSampler::feed`]: record in the sketch, then
    /// apply the admission/eviction rule. No output draw.
    #[inline]
    fn absorb(&mut self, id: NodeId) {
        self.ingest_admitted(id);
    }

    /// [`NodeSampler::ingest`] plus an admission report: reads one
    /// identifier (estimator recorded, admission/eviction rule applied, no
    /// output draw) and returns `true` if `id` entered `Γ` at this step —
    /// the seam the service layer (`uns-service`) uses to maintain its
    /// admission counters without a second pass over the memory.
    ///
    /// State evolution (memory, estimator, coin order) is identical to
    /// [`NodeSampler::ingest`]; only the admission outcome is surfaced.
    #[inline]
    pub fn ingest_admitted(&mut self, id: NodeId) -> bool {
        // cobegin (Algorithm 3, lines 1–3): the estimator reads the element
        // first, so f̂_j accounts for this occurrence. The fused operation
        // also hands back min_σ, saving the second hashing pass. It reports
        // max(f̂_j, min_σ), which admits exactly like f̂_j itself.
        let (f_hat, min_sigma) = self.estimator.record_for_admission(id.as_u64());
        self.absorb_precomputed(id, f_hat, min_sigma)
    }

    /// The memory-and-coins half of [`NodeSampler::ingest`], taking the
    /// fused `(f̂_j, min_σ)` pair from the caller instead of recording `id`
    /// in this sampler's own estimator. Returns `true` if `id` entered `Γ`.
    ///
    /// This is the replay half of a **parallel sampling pipeline**
    /// (`uns_sim::ShardedIngestion`): shard workers compute, for every
    /// stream element, exactly the `(f̂_j, min_σ)` the sequential sampler
    /// would have seen at that position (Count-Min prefix states are
    /// reconstructible by merging earlier chunks; the sequential sampler
    /// reads `max(f̂_j, min_σ)`, which decides alike), and a single replay
    /// thread calls this method in stream order. Because the method
    /// consumes random coins in exactly the order `ingest` does — one
    /// admission coin per full-memory non-resident element, one eviction
    /// draw per admission — the resulting memory **and** RNG state are
    /// bit-equal to sequential ingestion.
    ///
    /// The estimator is deliberately *not* touched: a caller that replays
    /// precomputed admissions must install the matching final estimator
    /// state afterwards via [`KnowledgeFreeSampler::install_estimator`],
    /// or subsequent feeds will estimate from a stale (typically empty)
    /// sketch.
    #[inline]
    pub fn absorb_precomputed(&mut self, id: NodeId, f_hat: u64, min_sigma: u64) -> bool {
        if !self.memory.is_full() {
            self.memory.insert(id) // no-op when already resident
        } else if !self.memory.contains(id) {
            // Branchless admission. The decision "coin < min(min_σ/f̂, 1)
            // (admit on f̂ = 0)" is evaluated as a non-short-circuiting OR
            // of two comparisons so the a_j = 1 fast path — every element
            // whose estimate has not outgrown the floor, i.e. the bulk of
            // honest traffic — costs no data-dependent branch. The OR is
            // decision-identical to the clamped form: f̂ ≤ min_σ covers
            // exactly the cases where the (f64-rounded) quotient is ≥ 1 and
            // the clamp fired (including f̂ = 0, where the quotient is NaN
            // or +∞), and otherwise the same rounded quotient is compared.
            // Exactly one admission coin is drawn either way — the coin
            // order replay paths depend on (see the NodeSampler docs).
            let coin = self.rng.gen::<f64>();
            let admitted = (f_hat <= min_sigma) | (coin < min_sigma as f64 / f_hat as f64);
            if admitted {
                // r_k = 1/c: uniform eviction (Algorithm 3, line 11). The
                // membership probe above already established `id` is
                // absent, so the duplicate-checking public entry point is
                // skipped (identical coin usage, one probe saved).
                self.memory.replace_uniform_absent(&mut self.rng, id);
                true
            } else {
                false
            }
        } else {
            false
        }
    }

    /// [`KnowledgeFreeSampler::absorb_precomputed`] plus the uniform output
    /// draw — the precomputed counterpart of [`NodeSampler::feed`], with
    /// the identical coin order.
    ///
    /// # Panics
    ///
    /// Panics if called before anything was absorbed (empty `Γ`), exactly
    /// like `feed` never can be observed empty after its own absorb.
    pub fn feed_precomputed(&mut self, id: NodeId, f_hat: u64, min_sigma: u64) -> NodeId {
        self.absorb_precomputed(id, f_hat, min_sigma);
        self.memory
            .sample_uniform(&mut self.rng)
            .expect("memory is non-empty after absorbing at least one identifier")
    }

    /// Replaces the sampler's estimator, e.g. with the merged sketch of a
    /// sharded ingestion after a precomputed replay. The memory `Γ` and the
    /// coin generator are left untouched.
    pub fn install_estimator(&mut self, estimator: E) {
        self.estimator = estimator;
    }

    /// [`NodeSampler::feed_batch`] plus an admission count: one monomorphic
    /// pass over `ids` doing the full per-element feed step (estimator
    /// record, admission/eviction, one output draw appended to `out`),
    /// returning how many elements entered `Γ`.
    ///
    /// Coin-for-coin identical to element-wise [`NodeSampler::feed`]; under
    /// the default [`CoinRng`] the admission and output coins of the whole
    /// batch are served from pre-drawn blocks, which is where the service
    /// path's per-element generator overhead goes. This is `uns-service`'s
    /// FeedBatch entry point.
    pub fn feed_batch_admitted(&mut self, ids: &[NodeId], out: &mut Vec<NodeId>) -> u64 {
        out.reserve(ids.len());
        let mut admitted = 0u64;
        for &id in ids {
            admitted += u64::from(self.ingest_admitted(id));
            out.push(
                self.memory
                    .sample_uniform(&mut self.rng)
                    .expect("memory is non-empty after feeding at least one identifier"),
            );
        }
        admitted
    }

    /// [`NodeSampler::ingest`] over a batch, returning how many elements
    /// entered `Γ` — the input-only counterpart of
    /// [`KnowledgeFreeSampler::feed_batch_admitted`] (no output draws).
    pub fn ingest_batch_admitted(&mut self, ids: &[NodeId]) -> u64 {
        let mut admitted = 0u64;
        for &id in ids {
            admitted += u64::from(self.ingest_admitted(id));
        }
        admitted
    }

    /// [`KnowledgeFreeSampler::absorb_precomputed`] over a whole batch of
    /// `(id, f̂_j, min_σ)` candidates, returning how many entered `Γ` — the
    /// monomorphic replay loop of the parallel pipeline's candidate queue
    /// (`uns_sim::ShardedIngestion`). Identical coin order to calling
    /// `absorb_precomputed` per element.
    pub fn absorb_precomputed_batch(&mut self, candidates: &[(NodeId, u64, u64)]) -> u64 {
        let mut admitted = 0u64;
        for &(id, f_hat, min_sigma) in candidates {
            admitted += u64::from(self.absorb_precomputed(id, f_hat, min_sigma));
        }
        admitted
    }
}

impl<E: FrequencyEstimator, R: Rng> NodeSampler for KnowledgeFreeSampler<E, R> {
    fn feed(&mut self, id: NodeId) -> NodeId {
        self.absorb(id);
        self.memory
            .sample_uniform(&mut self.rng)
            .expect("memory is non-empty after feeding at least one identifier")
    }

    /// Input-only path: identical state evolution to [`NodeSampler::feed`],
    /// minus the output draw (see the trait-level contract).
    fn ingest(&mut self, id: NodeId) {
        self.absorb(id);
    }

    fn feed_batch(&mut self, ids: &[NodeId], out: &mut Vec<NodeId>) {
        let _ = self.feed_batch_admitted(ids, out);
    }

    fn sample(&mut self) -> Option<NodeId> {
        self.memory.sample_uniform(&mut self.rng)
    }

    fn memory_contents(&self) -> Vec<NodeId> {
        self.memory.iter().copied().collect()
    }

    fn capacity(&self) -> usize {
        self.memory.capacity()
    }

    fn strategy_name(&self) -> &'static str {
        "knowledge-free"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use std::collections::HashSet;
    use uns_sketch::CountSketch;

    #[test]
    fn constructor_validates_capacity_and_sketch() {
        assert_eq!(
            KnowledgeFreeSampler::with_count_min(0, 10, 5, 0).unwrap_err(),
            CoreError::ZeroCapacity
        );
        assert!(matches!(
            KnowledgeFreeSampler::with_count_min(5, 0, 5, 0),
            Err(CoreError::Sketch(_))
        ));
        assert!(matches!(
            KnowledgeFreeSampler::with_error_bounds(5, 0.0, 0.1, 0),
            Err(CoreError::Sketch(_))
        ));
        assert!(KnowledgeFreeSampler::with_error_bounds(5, 0.3, 0.01, 0).is_ok());
        assert!(KnowledgeFreeSampler::adaptive_omniscient(5, 0).is_ok());
    }

    #[test]
    fn insertion_probability_reflects_sketch_state() {
        let mut sampler = KnowledgeFreeSampler::with_count_min(2, 32, 4, 3).unwrap();
        // No information yet.
        assert_eq!(sampler.insertion_probability_estimate(NodeId::new(5)), 1.0);
        // Flood one id among occasional rare ids: the flooded id's a_j must
        // collapse while rare ids keep a_j = 1.
        for i in 0..2_000u64 {
            sampler.feed(NodeId::new(5));
            if i % 50 == 0 {
                sampler.feed(NodeId::new(100 + i));
            }
        }
        let a_flooded = sampler.insertion_probability_estimate(NodeId::new(5));
        assert!(a_flooded < 0.05, "flooded id keeps a_j = {a_flooded}");
        let a_rare = sampler.insertion_probability_estimate(NodeId::new(2_100));
        assert!(a_rare > 0.5, "rare id got a_j = {a_rare}");
    }

    #[test]
    fn output_is_always_a_memory_resident() {
        let mut sampler = KnowledgeFreeSampler::with_count_min(4, 8, 3, 9).unwrap();
        for i in 0..2_000u64 {
            let out = sampler.feed(NodeId::new(i % 32));
            let residents: HashSet<NodeId> = sampler.memory_contents().into_iter().collect();
            assert!(residents.contains(&out));
            assert!(residents.len() <= 4);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let stream: Vec<NodeId> = (0..800u64).map(|i| NodeId::new(i * 13 % 64)).collect();
        let mut a = KnowledgeFreeSampler::with_count_min(6, 12, 4, 77).unwrap();
        let mut b = KnowledgeFreeSampler::with_count_min(6, 12, 4, 77).unwrap();
        assert_eq!(a.run(stream.clone()), b.run(stream.clone()));
        let mut c = KnowledgeFreeSampler::with_count_min(6, 12, 4, 78).unwrap();
        // Different seed: overwhelmingly likely to diverge somewhere.
        assert_ne!(a.run(stream.clone()), c.run(stream));
    }

    #[test]
    fn explicit_rng_choice_is_deterministic_per_generator() {
        let stream: Vec<NodeId> = (0..500u64).map(|i| NodeId::new(i * 7 % 40)).collect();
        let mut fast_a =
            KnowledgeFreeSampler::<CountMinSketch, SmallRng>::with_count_min_rng(6, 10, 4, 3)
                .unwrap();
        let mut fast_b = KnowledgeFreeSampler::with_count_min(6, 10, 4, 3).unwrap();
        // The default blocked generator emits the SmallRng coin stream:
        // identical outputs, block boundary observable nowhere.
        assert_eq!(fast_a.run(stream.clone()), fast_b.run(stream.clone()));
        // The hardened generator is a distinct, equally deterministic track.
        let mut hard_a =
            KnowledgeFreeSampler::<CountMinSketch, StdRng>::with_count_min_rng(6, 10, 4, 3)
                .unwrap();
        let mut hard_b =
            KnowledgeFreeSampler::<CountMinSketch, StdRng>::with_count_min_rng(6, 10, 4, 3)
                .unwrap();
        assert_eq!(hard_a.run(stream.clone()), hard_b.run(stream));
    }

    #[test]
    fn ingest_skips_the_output_draw_but_matches_feed_with_sample() {
        // ingest(id); sample() must replay feed(id) exactly: same coins in
        // the same order, so memory, RNG state and output all agree.
        let stream: Vec<NodeId> = (0..1_200u64).map(|i| NodeId::new(i * 31 % 48)).collect();
        let mut fed = KnowledgeFreeSampler::with_count_min(5, 10, 4, 11).unwrap();
        let mut ingested = KnowledgeFreeSampler::with_count_min(5, 10, 4, 11).unwrap();
        for &id in &stream {
            let out = fed.feed(id);
            ingested.ingest(id);
            assert_eq!(ingested.sample(), Some(out));
            assert_eq!(ingested.memory_contents(), fed.memory_contents());
        }
    }

    #[test]
    fn branchless_admission_matches_clamped_reference() {
        // The non-short-circuit OR in absorb_precomputed must decide
        // exactly like the clamped textbook form coin < min(min_σ/f̂, 1)
        // with f̂ = 0 treated as admit — for every (f̂, min_σ, coin),
        // including the rounding edge where min_σ/f̂ rounds up to 1.0.
        let reference = |f_hat: u64, min_sigma: u64, coin: f64| {
            if f_hat == 0 {
                true
            } else {
                coin < (min_sigma as f64 / f_hat as f64).min(1.0)
            }
        };
        let branchless = |f_hat: u64, min_sigma: u64, coin: f64| {
            (f_hat <= min_sigma) | (coin < min_sigma as f64 / f_hat as f64)
        };
        let mut rng = SmallRng::seed_from_u64(19);
        let edge = [0u64, 1, 2, 3, u64::MAX - 1, u64::MAX];
        let mut cases: Vec<(u64, u64)> = edge
            .iter()
            .flat_map(|&f| edge.iter().map(move |&m| (f, m)))
            .chain([(u64::MAX, u64::MAX - 1), ((1 << 60) + 1, 1 << 60)])
            .collect();
        for _ in 0..5_000 {
            let f = rng.gen_range(0..1_000u64);
            let m = rng.gen_range(0..1_000u64);
            cases.push((f, m));
            // Near-1 quotients: f and m within one of each other, huge.
            let big = rng.gen_range(u64::MAX / 2..u64::MAX - 1);
            cases.push((big + 1, big));
        }
        for (f, m) in cases {
            for coin in [0.0, 0.5, 1.0 - f64::EPSILON / 2.0, f64::from_bits((1.0f64).to_bits() - 1)]
            {
                assert_eq!(
                    branchless(f, m, coin),
                    reference(f, m, coin),
                    "divergence at f̂={f}, min_σ={m}, coin={coin}"
                );
            }
        }
    }

    #[test]
    fn ingest_admitted_matches_ingest_and_reports_truthfully() {
        let stream: Vec<NodeId> = (0..2_500u64).map(|i| NodeId::new(i * 37 % 96)).collect();
        let mut plain = KnowledgeFreeSampler::with_count_min(5, 10, 4, 23).unwrap();
        let mut reporting = KnowledgeFreeSampler::with_count_min(5, 10, 4, 23).unwrap();
        let mut admissions = 0u64;
        for &id in &stream {
            plain.ingest(id);
            let before = reporting.memory_contents();
            let admitted = reporting.ingest_admitted(id);
            let after = reporting.memory_contents();
            assert_eq!(admitted, before != after, "report disagrees with Γ change");
            admissions += u64::from(admitted);
            assert_eq!(after, plain.memory_contents());
        }
        assert!(admissions >= 5, "at least the free-slot fills are admissions");
        // Coin streams stayed aligned: the next draws coincide.
        for _ in 0..32 {
            assert_eq!(plain.sample(), reporting.sample());
        }
    }

    #[test]
    fn from_parts_reassembles_a_bit_equal_sampler() {
        let mut original = KnowledgeFreeSampler::with_count_min(6, 10, 4, 51).unwrap();
        for i in 0..5_000u64 {
            original.feed(NodeId::new(i * 29 % 80));
        }
        // Capture the three components the way a snapshot would.
        let memory = {
            let mut rebuilt = crate::SamplingMemory::new(original.memory().capacity()).unwrap();
            for &id in original.memory().iter() {
                rebuilt.insert(id);
            }
            rebuilt
        };
        let estimator = original.estimator().clone();
        // The blocked generator's state is BOTH halves: inner + pending.
        let (inner, pending) = original.rng().state_parts();
        let rng = CoinRng::from_parts(SmallRng::from_state(inner.state()), pending);
        let mut restored = KnowledgeFreeSampler::from_parts(memory, estimator, rng);
        assert_eq!(restored.memory_contents(), original.memory_contents());
        // Bit-equal going forward under further traffic.
        for i in 0..3_000u64 {
            let id = NodeId::new(i * 13 % 200);
            assert_eq!(restored.feed(id), original.feed(id), "diverged at step {i}");
        }
    }

    #[test]
    fn blocked_coin_batches_match_plain_generator_elementwise_feeds() {
        // The blocked-vs-sequential pin at sampler level: the default
        // (BlockRng-backed) sampler driven through feed_batch_admitted must
        // match an explicit plain-SmallRng sampler driven element-wise —
        // outputs, admissions, memory, estimator cells, and the coin stream
        // position (checked by further draws agreeing).
        let stream: Vec<NodeId> = (0..5_000u64).map(|i| NodeId::new(i * 29 % 160)).collect();
        let mut blocked = KnowledgeFreeSampler::with_count_min(7, 10, 5, 61).unwrap();
        let mut plain =
            KnowledgeFreeSampler::<CountMinSketch, SmallRng>::with_count_min_rng(7, 10, 5, 61)
                .unwrap();
        let mut blocked_out = Vec::new();
        let mut blocked_admitted = 0u64;
        // Ragged batch sizes so batch ends land at arbitrary positions
        // relative to the 64-word coin blocks.
        for batch in stream.chunks(113) {
            blocked_admitted += blocked.feed_batch_admitted(batch, &mut blocked_out);
        }
        let mut plain_out = Vec::new();
        let mut plain_admitted = 0u64;
        for &id in &stream {
            let before = plain.memory_contents();
            plain_out.push(plain.feed(id));
            plain_admitted += u64::from(before != plain.memory_contents());
        }
        assert_eq!(blocked_out, plain_out);
        assert_eq!(blocked_admitted, plain_admitted);
        assert_eq!(blocked.memory_contents(), plain.memory_contents());
        for id in 0..160u64 {
            assert_eq!(blocked.estimator().estimate(id), plain.estimator().estimate(id));
        }
        // Coin streams aligned across the boundary: further draws coincide.
        for _ in 0..256 {
            assert_eq!(blocked.sample(), plain.sample());
        }
    }

    #[test]
    fn ingest_batch_admitted_matches_elementwise_ingest() {
        let stream: Vec<NodeId> = (0..3_000u64).map(|i| NodeId::new(i * 41 % 120)).collect();
        let mut batched = KnowledgeFreeSampler::with_count_min(5, 10, 4, 83).unwrap();
        let mut elementwise = KnowledgeFreeSampler::with_count_min(5, 10, 4, 83).unwrap();
        let mut batched_admitted = 0u64;
        for batch in stream.chunks(97) {
            batched_admitted += batched.ingest_batch_admitted(batch);
        }
        let mut elementwise_admitted = 0u64;
        for &id in &stream {
            elementwise_admitted += u64::from(elementwise.ingest_admitted(id));
        }
        assert_eq!(batched_admitted, elementwise_admitted);
        assert_eq!(batched.memory_contents(), elementwise.memory_contents());
        for _ in 0..64 {
            assert_eq!(batched.sample(), elementwise.sample());
        }
    }

    #[test]
    fn absorb_precomputed_batch_matches_elementwise_absorb() {
        let stream: Vec<NodeId> = (0..2_000u64).map(|i| NodeId::new(i * 23 % 128)).collect();
        let mut shadow = CountMinSketch::with_dimensions(10, 4, 5).unwrap();
        let candidates: Vec<(NodeId, u64, u64)> = stream
            .iter()
            .map(|&id| {
                let (f_hat, min_sigma) = shadow.record_and_estimate(id.as_u64());
                (id, f_hat, min_sigma)
            })
            .collect();
        let mut batched = KnowledgeFreeSampler::with_count_min(6, 10, 4, 37).unwrap();
        let mut elementwise = KnowledgeFreeSampler::with_count_min(6, 10, 4, 37).unwrap();
        let mut batched_admitted = 0u64;
        for chunk in candidates.chunks(127) {
            batched_admitted += batched.absorb_precomputed_batch(chunk);
        }
        let mut elementwise_admitted = 0u64;
        for &(id, f_hat, min_sigma) in &candidates {
            elementwise_admitted += u64::from(elementwise.absorb_precomputed(id, f_hat, min_sigma));
        }
        assert_eq!(batched_admitted, elementwise_admitted);
        assert_eq!(batched.memory_contents(), elementwise.memory_contents());
        for _ in 0..64 {
            assert_eq!(batched.sample(), elementwise.sample());
        }
    }

    #[test]
    fn feed_batch_matches_elementwise_feed() {
        let stream: Vec<NodeId> = (0..900u64).map(|i| NodeId::new(i * 17 % 96)).collect();
        let mut single = KnowledgeFreeSampler::with_count_min(8, 12, 5, 21).unwrap();
        let expected: Vec<NodeId> = stream.iter().map(|&id| single.feed(id)).collect();
        let mut batched = KnowledgeFreeSampler::with_count_min(8, 12, 5, 21).unwrap();
        let mut out = Vec::new();
        batched.feed_batch(&stream, &mut out);
        assert_eq!(out, expected);
        assert_eq!(batched.memory_contents(), single.memory_contents());
    }

    /// A stream that puts a 16-wide sketch's estimates on both sides of
    /// its floor `total/16`: one id is a tenth of all traffic, six share
    /// half of it (each near `total/16`), and 64 more share the rest.
    fn flooded_stream(len: u64) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(len);
        (0..len)
            .map(|i| {
                let key = if i % 10 == 0 {
                    0
                } else if rng.gen_range(0..9u32) < 5 {
                    rng.gen_range(1..7u64)
                } else {
                    rng.gen_range(100..164u64)
                };
                NodeId::new(key.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            })
            .collect()
    }

    /// How many elements of `stream` a fresh `estimator` estimates above
    /// its floor (on recording them), and how many at or below it.
    fn floor_crossings<E: FrequencyEstimator>(mut estimator: E, stream: &[NodeId]) -> (u64, u64) {
        let above = stream
            .iter()
            .filter(|id| {
                let (f_hat, min_sigma) = estimator.record_and_estimate(id.as_u64());
                f_hat > min_sigma
            })
            .count() as u64;
        (above, stream.len() as u64 - above)
    }

    /// Replaying externally computed (f̂, min_σ) pairs must leave memory
    /// and RNG in exactly the state ingest() produces — the property the
    /// parallel pipeline in uns-sim is built on. The pairs come from the
    /// exact `record_and_estimate`, so this also pins that the sampler's
    /// own `record_for_admission` changed no admission decision.
    fn assert_precomputed_replay_is_bit_equal_to_ingest<E: FrequencyEstimator + Clone>(
        make: impl Fn() -> KnowledgeFreeSampler<E>,
        stream: &[NodeId],
    ) {
        let mut sequential = make();
        let mut replayed = make();
        // A shadow estimator computes the fused pairs the shards would.
        let mut shadow = sequential.estimator().clone();
        for &id in stream {
            sequential.ingest(id);
            let (f_hat, min_sigma) = shadow.record_and_estimate(id.as_u64());
            replayed.absorb_precomputed(id, f_hat, min_sigma);
        }
        replayed.install_estimator(shadow);
        assert_eq!(replayed.memory_contents(), sequential.memory_contents());
        // Same RNG state: the next draws coincide.
        for _ in 0..32 {
            assert_eq!(replayed.sample(), sequential.sample());
        }
        // Same estimator state: identical reads afterwards.
        for id in stream.iter().map(|id| id.as_u64()) {
            assert_eq!(replayed.estimator().estimate(id), sequential.estimator().estimate(id));
        }
    }

    /// The precomputed counterpart of `feed` returns what `feed` returns at
    /// every step, fed by the exact `record_and_estimate`.
    fn assert_feed_precomputed_matches_feed<E: FrequencyEstimator + Clone>(
        make: impl Fn() -> KnowledgeFreeSampler<E>,
        stream: &[NodeId],
    ) {
        let mut fed = make();
        let mut replayed = make();
        let mut shadow = fed.estimator().clone();
        for (step, &id) in stream.iter().enumerate() {
            let expected = fed.feed(id);
            let (f_hat, min_sigma) = shadow.record_and_estimate(id.as_u64());
            assert_eq!(replayed.feed_precomputed(id, f_hat, min_sigma), expected, "step {step}");
        }
    }

    #[test]
    fn precomputed_replay_is_bit_equal_to_ingest() {
        let cycling: Vec<NodeId> = (0..2_000u64).map(|i| NodeId::new(i * 23 % 128)).collect();
        let flooded = flooded_stream(3_000);
        for stream in [&cycling, &flooded] {
            assert_precomputed_replay_is_bit_equal_to_ingest(
                || KnowledgeFreeSampler::with_count_min(6, 10, 4, 31).unwrap(),
                stream,
            );
            assert_precomputed_replay_is_bit_equal_to_ingest(
                || KnowledgeFreeSampler::with_count_sketch(6, 16, 5, 31).unwrap(),
                stream,
            );
            assert_precomputed_replay_is_bit_equal_to_ingest(
                || KnowledgeFreeSampler::adaptive_omniscient(6, 31).unwrap(),
                stream,
            );
        }
        // The Count-sketch run took both sides of the floor.
        let sketch = KnowledgeFreeSampler::with_count_sketch(6, 16, 5, 31).unwrap();
        let (above, at_or_below) = floor_crossings(sketch.estimator().clone(), &flooded);
        assert!(above > 0 && at_or_below > 0, "{above} above the floor, {at_or_below} at or below");
    }

    #[test]
    fn feed_precomputed_matches_feed() {
        let cycling: Vec<NodeId> = (0..1_500u64).map(|i| NodeId::new(i * 11 % 64)).collect();
        let flooded = flooded_stream(2_000);
        for stream in [&cycling, &flooded] {
            assert_feed_precomputed_matches_feed(
                || KnowledgeFreeSampler::with_count_min(5, 8, 3, 13).unwrap(),
                stream,
            );
            assert_feed_precomputed_matches_feed(
                || KnowledgeFreeSampler::with_count_sketch(5, 16, 10, 13).unwrap(),
                stream,
            );
            assert_feed_precomputed_matches_feed(
                || KnowledgeFreeSampler::adaptive_omniscient(5, 13).unwrap(),
                stream,
            );
        }
        let sketch = KnowledgeFreeSampler::with_count_sketch(5, 16, 10, 13).unwrap();
        let (above, at_or_below) = floor_crossings(sketch.estimator().clone(), &flooded);
        assert!(above > 0 && at_or_below > 0, "{above} above the floor, {at_or_below} at or below");
    }

    #[test]
    fn adaptive_omniscient_uses_exact_counts() {
        let mut sampler = KnowledgeFreeSampler::adaptive_omniscient(3, 5).unwrap();
        for _ in 0..10 {
            sampler.feed(NodeId::new(1));
        }
        sampler.feed(NodeId::new(2));
        assert_eq!(sampler.estimator().frequency(1), 10);
        assert_eq!(sampler.estimator().frequency(2), 1);
        // a_1 = min/f_1 = 1/10; a_2 = 1/1.
        assert!((sampler.insertion_probability_estimate(NodeId::new(1)) - 0.1).abs() < 1e-12);
        assert_eq!(sampler.insertion_probability_estimate(NodeId::new(2)), 1.0);
    }

    #[test]
    fn works_with_count_sketch_estimator() {
        let estimator = CountSketch::with_dimensions(32, 5, 11).unwrap();
        let mut sampler = KnowledgeFreeSampler::new(4, estimator, 11).unwrap();
        for i in 0..500u64 {
            sampler.feed(NodeId::new(i % 20));
        }
        assert_eq!(sampler.memory_contents().len(), 4);
        assert_eq!(sampler.strategy_name(), "knowledge-free");
    }

    #[test]
    fn with_count_sketch_mirrors_count_min_seed_plumbing() {
        assert_eq!(
            KnowledgeFreeSampler::with_count_sketch(0, 10, 5, 1).unwrap_err(),
            CoreError::ZeroCapacity
        );
        assert!(matches!(
            KnowledgeFreeSampler::with_count_sketch(5, 0, 5, 1),
            Err(CoreError::Sketch(_))
        ));
        // One stream seed derives the sketch hashes exactly as the
        // Count-Min constructor would, so runs are reproducible from
        // (c, k, s, seed) alone — for both estimators identically.
        let mut a = KnowledgeFreeSampler::with_count_sketch(6, 16, 5, 42).unwrap();
        let mut b = KnowledgeFreeSampler::with_count_sketch(6, 16, 5, 42).unwrap();
        let cm = KnowledgeFreeSampler::with_count_min(6, 16, 5, 42).unwrap();
        assert_eq!(a.estimator().seed(), cm.estimator().seed());
        let stream: Vec<NodeId> = (0..600u64).map(|i| NodeId::new(i * 7 % 48)).collect();
        assert_eq!(a.run(stream.clone()), b.run(stream));
    }

    #[test]
    fn derive_estimator_seed_is_the_constructors_derivation() {
        // External estimator rebuilders (the parallel pipeline, the
        // conformance harness) must land on exactly the sketch the
        // single-seed constructors build.
        for seed in [0u64, 1, 42, u64::MAX] {
            let sampler = KnowledgeFreeSampler::with_count_min(4, 8, 3, seed).unwrap();
            let external =
                CountMinSketch::with_dimensions(8, 3, derive_estimator_seed(seed)).unwrap();
            assert_eq!(sampler.estimator().seed(), external.seed());
            let cs = KnowledgeFreeSampler::with_count_sketch(4, 8, 3, seed).unwrap();
            assert_eq!(cs.estimator().seed(), derive_estimator_seed(seed));
        }
    }

    #[test]
    fn family_constructors_default_to_mersenne_and_stay_deterministic() {
        let stream: Vec<NodeId> = (0..800u64).map(|i| NodeId::new(i * 19 % 72)).collect();
        // Mersenne family constructor ≡ plain constructor, bit for bit.
        let mut plain = KnowledgeFreeSampler::with_count_min(6, 10, 4, 9).unwrap();
        let mut mersenne =
            KnowledgeFreeSampler::with_count_min_family(6, 10, 4, 9, HashFamilyKind::Mersenne)
                .unwrap();
        assert_eq!(plain.run(stream.clone()), mersenne.run(stream.clone()));
        // Multiply-shift is a distinct, equally deterministic track with
        // the same seed derivation.
        let mut ms_a =
            KnowledgeFreeSampler::with_count_min_family(6, 10, 4, 9, HashFamilyKind::MultiplyShift)
                .unwrap();
        let mut ms_b =
            KnowledgeFreeSampler::with_count_min_family(6, 10, 4, 9, HashFamilyKind::MultiplyShift)
                .unwrap();
        assert_eq!(ms_a.estimator().family(), HashFamilyKind::MultiplyShift);
        assert_eq!(ms_a.estimator().seed(), derive_estimator_seed(9));
        assert_eq!(ms_a.run(stream.clone()), ms_b.run(stream.clone()));
        // Same plumbing for the Count-sketch ablation.
        let mut cs_plain = KnowledgeFreeSampler::with_count_sketch(6, 16, 5, 9).unwrap();
        let mut cs_mersenne =
            KnowledgeFreeSampler::with_count_sketch_family(6, 16, 5, 9, HashFamilyKind::Mersenne)
                .unwrap();
        assert_eq!(cs_plain.run(stream.clone()), cs_mersenne.run(stream.clone()));
        let cs_ms = KnowledgeFreeSampler::with_count_sketch_family(
            6,
            16,
            5,
            9,
            HashFamilyKind::MultiplyShift,
        )
        .unwrap();
        assert_eq!(cs_ms.estimator().family(), HashFamilyKind::MultiplyShift);
    }

    #[test]
    fn sample_before_and_after_first_feed() {
        let mut sampler = KnowledgeFreeSampler::with_count_min(2, 4, 2, 1).unwrap();
        assert_eq!(sampler.sample(), None);
        sampler.feed(NodeId::new(9));
        assert_eq!(sampler.sample(), Some(NodeId::new(9)));
        assert_eq!(sampler.capacity(), 2);
    }
}
