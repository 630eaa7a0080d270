#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Streaming frequency-estimation substrates for the uniform node sampling
//! service of Anceaume, Busnel and Sericola (DSN 2013).
//!
//! This crate implements everything the paper's *knowledge-free* strategy
//! (Algorithm 3) needs to estimate, on the fly and in sublinear space, the
//! frequency of every node identifier read from an adversarial input stream:
//!
//! * [`hash`] — selectable hash families ([`HashFamilyKind`]): 2-universal
//!   Carter–Wegman functions over the Mersenne prime `2^61 − 1` (the family
//!   assumed throughout the paper, §III-D, and the default) or Dietzfelbinger
//!   multiply-shift functions (2-approximately universal, cheaper per
//!   element);
//! * [`count_min`] — the Count-Min sketch of Cormode and Muthukrishnan
//!   (paper's Algorithm 2), including the *global minimum counter* `min_σ`
//!   that drives the insertion probability `a_j = min_σ / f̂_j`;
//! * [`count_sketch`] — the Count sketch of Charikar, Chen and Farach-Colton,
//!   provided as an ablation alternative to Count-Min;
//! * [`exact`] — an exact, full-space frequency oracle backing the paper's
//!   *omniscient* strategy (Algorithm 1) in its adaptive form;
//! * [`min_tracker`] — the incremental **floor-estimate engine**: two
//!   [`FloorTracker`] implementations (monotone, count-of-counts) that keep
//!   Count-Min's and the exact oracle's `min_σ` current in (amortized) O(1)
//!   per record instead of rescanning counters per query.
//!
//! All estimators implement the common [`FrequencyEstimator`] trait so the
//! sampling strategies in `uns-core` can be instantiated with any of them,
//! and all of them answer [`FrequencyEstimator::floor_estimate`] in O(1).
//!
//! # Example
//!
//! ```
//! use uns_sketch::{CountMinSketch, FrequencyEstimator};
//!
//! # fn main() -> Result<(), uns_sketch::SketchError> {
//! // ε = 0.1, δ = 0.01 → width k = ⌈e/ε⌉ = 28, depth s = ⌈ln(1/δ)⌉ = 5.
//! let mut sketch = CountMinSketch::with_error_bounds(0.1, 0.01, 42)?;
//! for id in [7u64, 7, 7, 13, 13, 99] {
//!     sketch.record(id);
//! }
//! assert!(sketch.estimate(7) >= 3); // Count-Min never under-estimates
//! assert_eq!(sketch.total(), 6);
//! # Ok(())
//! # }
//! ```

pub mod count_min;
pub mod count_sketch;
mod depth;
pub mod error;
pub mod exact;
pub mod fx;
pub mod hash;
mod median;
pub mod min_tracker;

pub use count_min::{CountMinSketch, UpdatePolicy};
pub use count_sketch::CountSketch;
pub use error::SketchError;
pub use exact::ExactFrequencyOracle;
pub use hash::{
    HashFamily, HashFamilyKind, MultiplyShiftHash, PreparedRowHash, RowHash, UniversalHash,
    MERSENNE_PRIME_61,
};
pub use min_tracker::{CountOfCountsTracker, FloorTracker, MonotoneFloorTracker};

/// A streaming frequency estimator over a stream of 64-bit identifiers.
///
/// This is the abstraction consumed by the knowledge-free sampling strategy
/// (paper's Algorithm 3): on every stream element the sampler records the
/// element, asks for its estimated frequency `f̂_j`, and for the *floor*
/// `min_σ` (the smallest value any identifier could have accumulated so
/// far). The insertion probability is then `a_j = floor / f̂_j`. The
/// sampler asks all three at once through
/// [`FrequencyEstimator::record_for_admission`], which may stop computing
/// `f̂_j` once it is known to sit at or below the floor.
///
/// Implementations provided by this crate:
///
/// * [`CountMinSketch`] — the paper's choice; sublinear space, never
///   under-estimates;
/// * [`CountSketch`] — unbiased median estimator (ablation); its
///   admission query skips the median of its rows when more than half of
///   the row readings sit at or below the floor;
/// * [`ExactFrequencyOracle`] — full-space exact counts, which turns the
///   knowledge-free strategy into the paper's adaptive omniscient strategy.
///
/// # Example
///
/// ```
/// use uns_sketch::{ExactFrequencyOracle, FrequencyEstimator};
///
/// let mut oracle = ExactFrequencyOracle::new();
/// oracle.record(3);
/// oracle.record(3);
/// oracle.record(8);
/// assert_eq!(oracle.estimate(3), 2);
/// assert_eq!(oracle.floor_estimate(), 1); // rarest seen id occurred once
/// ```
pub trait FrequencyEstimator {
    /// Records one occurrence of `id` read from the input stream.
    fn record(&mut self, id: u64);

    /// Returns the estimated number of occurrences of `id` so far.
    ///
    /// Estimates are relative to the stream consumed through [`record`];
    /// identifiers never recorded may still return a positive estimate for
    /// sketch-based implementations (over-estimation by collision).
    ///
    /// [`record`]: FrequencyEstimator::record
    fn estimate(&self, id: u64) -> u64;

    /// Records one occurrence of `id` and returns `(f̂_id, min_σ)` — the
    /// post-record estimate and floor — as a single fused operation.
    ///
    /// This is the exact per-element query pattern of the knowledge-free
    /// strategy's lock-step `cobegin` (Algorithm 3): every implementation
    /// must make this equivalent to `record(id)` followed by
    /// `(estimate(id), floor_estimate())`. The provided method does just
    /// that; the concrete estimators override it to hash each row once
    /// instead of twice, and the returned `min_σ` costs O(1) rather than a
    /// counter scan (see [`FrequencyEstimator::floor_estimate`]). The fused
    /// path and the split path always agree, bit for bit.
    fn record_and_estimate(&mut self, id: u64) -> (u64, u64) {
        self.record(id);
        (self.estimate(id), self.floor_estimate())
    }

    /// Records one occurrence of `id` and returns `(max(f̂_id, min_σ),
    /// min_σ)` — what the knowledge-free sampler's admission rule reads
    /// (Algorithm 3): it admits with probability `min(1, min_σ/f̂_id)`, so
    /// an estimate at or below the floor decides exactly like the floor
    /// itself, and the exact `f̂_id` is needed only above it.
    ///
    /// Every implementation must leave the estimator exactly as
    /// [`FrequencyEstimator::record_and_estimate`] does and return its
    /// pair with the estimate raised to the floor. The provided method does
    /// just that, which is all Count-Min and the exact oracle need: their
    /// estimate is a minimum or a lookup, no dearer than the comparison
    /// that could skip it. The Count sketch overrides it to skip the median
    /// of its rows whenever more than half of the readings sit at or below
    /// the floor.
    fn record_for_admission(&mut self, id: u64) -> (u64, u64) {
        let (estimate, floor) = self.record_and_estimate(id);
        (estimate.max(floor), floor)
    }

    /// Returns the sampling floor — the paper's `min_σ` (Algorithm 3,
    /// line 6), each estimator's stand-in for the smallest frequency any
    /// identifier could have accumulated so far. For Count-Min and the
    /// exact oracle that reading is a genuine lower bound on every
    /// recorded identifier's estimate; the Count sketch publishes a
    /// cancellation-immune *proxy* that is *not* (an identifier's true
    /// frequency can sit below it — see its bullet), so `min_σ/f̂` is
    /// clamped at 1 by the admission rule, not by this value.
    ///
    /// Every read is O(1):
    ///
    /// * [`CountMinSketch`] — minimum over the *touched* counters of `F̂`
    ///   (see its documentation for why the literal all-cells minimum is
    ///   not used), via the incremental [`MonotoneFloorTracker`];
    /// * [`ExactFrequencyOracle`] — minimum count over the identifiers seen
    ///   so far, via [`CountOfCountsTracker`];
    /// * [`CountSketch`] — the **mean row load** `max(1, ⌊total/k⌋)`.
    ///   Signed-counter caveat: the literal magnitude minimum `min |cell|`
    ///   collapses toward 0 through sign cancellation at every width,
    ///   which would zero the knowledge-free sampler's admission
    ///   probability and freeze its memory — the adversarial conformance
    ///   harness measures exactly this failure.
    ///   The mean row load is the cancellation-immune bound on that
    ///   minimum (`min |cell| ≤ Σ|cell|/k ≤ total/k` per row) and matches
    ///   the scale of Count-Min's floor on honest traffic.
    ///
    /// All return 0 when nothing has been recorded.
    ///
    /// [`record`]: FrequencyEstimator::record
    fn floor_estimate(&self) -> u64;

    /// Returns the total number of occurrences recorded (the stream length
    /// `m` consumed so far).
    fn total(&self) -> u64;

    /// Returns the number of 64-bit memory cells the estimator uses, as a
    /// proxy for its space consumption.
    fn memory_cells(&self) -> usize;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn assert_estimator<E: FrequencyEstimator>(mut e: E) {
        for _ in 0..5 {
            e.record(11);
        }
        e.record(29);
        assert!(e.estimate(11) >= 5);
        assert!(e.estimate(29) >= 1);
        assert_eq!(e.total(), 6);
        assert!(e.memory_cells() > 0);
    }

    #[test]
    fn all_estimators_satisfy_basic_contract() {
        assert_estimator(CountMinSketch::with_dimensions(16, 4, 1).unwrap());
        assert_estimator(CountSketch::with_dimensions(16, 5, 1).unwrap());
        assert_estimator(ExactFrequencyOracle::new());
    }

    #[test]
    fn estimators_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CountMinSketch>();
        assert_send_sync::<CountSketch>();
        assert_send_sync::<ExactFrequencyOracle>();
    }
}
