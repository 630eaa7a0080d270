//! The incremental floor-estimate engine.
//!
//! The knowledge-free sampling strategy queries the global minimum counter
//! `min_σ` once per stream element (Algorithm 3, line 6). Recomputing that
//! minimum with a full scan on every element would dominate the per-element
//! cost — `O(k·s)` for Count-Min, `O(distinct)` for the exact oracle — so
//! those estimators maintain their floor *incrementally* through one of the
//! trackers in this module. The common query surface is the
//! [`FloorTracker`] trait; the update surface is deliberately per-tracker,
//! because the two counter populations move differently:
//!
//! * [`MonotoneFloorTracker`] — counters only grow (Count-Min cells).
//!   Tracks `(value, multiplicity)` of the minimum over the *non-zero*
//!   cells plus the number of still-zero cells; amortized O(1) with
//!   occasional caller-driven rescans.
//! * [`CountOfCountsTracker`] — a dynamic population of per-identifier
//!   counts (the exact oracle). Keeps a count-of-counts histogram
//!   (`count → how many ids hold it`), making both "a brand-new rare id
//!   arrives" and "the rarest id got rarer-than-everyone-else" O(1) for
//!   unit increments — the operation that used to cost `O(distinct)`.
//!
//! The Count sketch needs no tracker: its published floor is the mean row
//! load `max(1, ⌊total/k⌋)`, an O(1) arithmetic read (see
//! [`crate::CountSketch`] for why the magnitude minimum is not used).
//!
//! Estimators cross-check the engine against a naive full scan on a
//! sampled schedule in debug builds (see `record` paths in
//! [`crate::CountMinSketch`] and [`crate::ExactFrequencyOracle`]), so any
//! divergence trips long before a release measurement would silently
//! drift.

/// Common query surface of the incremental floor-estimate engine.
///
/// A floor tracker answers, in O(1), "what is the smallest value any
/// tracked counter currently holds?" — the quantity the paper's Algorithm 3
/// reads as `min_σ` on every stream element. Update entry points are
/// tracker-specific (monotone increase, count transition) because each
/// counter population moves differently; see the
/// module docs for which estimator pairs with which tracker.
pub trait FloorTracker {
    /// The current floor — 0 when nothing is tracked yet.
    fn floor(&self) -> u64;

    /// Number of counters (cells or distinct identifiers) whose minimum is
    /// being tracked.
    fn tracked(&self) -> usize;

    /// Returns the tracker to its freshly-constructed state.
    fn reset(&mut self);
}

/// Floor over monotonically non-decreasing counters, ignoring the ones
/// still at zero.
///
/// This is the Count-Min case: cells only grow, and the sampling floor is
/// the minimum over the *touched* cells (see
/// [`CountMinSketch::floor_estimate`](crate::CountMinSketch) for why
/// untouched cells are excluded). The tracker exploits monotonicity: the
/// minimum can only change when the last cell holding it grows, so keeping
/// the multiplicity of the minimum makes the amortized cost O(1) with
/// occasional O(cells) rescans driven by the owner (the tracker does not
/// own the cell storage).
///
/// # Example
///
/// ```
/// use uns_sketch::min_tracker::{FloorTracker, MonotoneFloorTracker};
///
/// let mut tracker = MonotoneFloorTracker::new(3);
/// assert_eq!(tracker.floor(), 0); // all cells still zero
/// assert!(!tracker.on_increase(0, 2)); // first touched cell
/// assert_eq!(tracker.floor(), 2);
/// assert!(tracker.on_increase(2, 5)); // last minimal cell left: stale
/// tracker.rebuild([5u64, 0, 0]);
/// assert_eq!(tracker.floor(), 5);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonotoneFloorTracker {
    min: u64,
    multiplicity: usize,
    zeros: usize,
    cells: usize,
}

impl MonotoneFloorTracker {
    /// Creates a tracker for `cells` counters, all initially zero.
    pub fn new(cells: usize) -> Self {
        Self { min: 0, multiplicity: 0, zeros: cells, cells }
    }

    /// Notifies the tracker that a counter moved from `old` to `new`
    /// (`new >= old`). Returns `true` if the floor is now stale and must be
    /// refreshed via [`MonotoneFloorTracker::rebuild`].
    #[must_use]
    #[inline]
    pub fn on_increase(&mut self, old: u64, new: u64) -> bool {
        debug_assert!(new >= old, "counters must be monotone ({old} -> {new})");
        if new == old {
            // Conservative update may leave a cell unchanged.
            return false;
        }
        if old == 0 {
            // A fresh cell joins the non-zero set; it may set a new minimum.
            self.zeros -= 1;
            if self.multiplicity == 0 || new < self.min {
                self.min = new;
                self.multiplicity = 1;
            } else if new == self.min {
                self.multiplicity += 1;
            }
            false
        } else if old == self.min {
            // A minimal cell grew; the floor is stale once none remain.
            debug_assert!(
                self.multiplicity > 0,
                "update after a stale report: rebuild() must run before further on_increase calls"
            );
            self.multiplicity -= 1;
            self.multiplicity == 0
        } else {
            false
        }
    }

    /// Rescans all counters and resets the tracked state. The owner calls
    /// this when [`MonotoneFloorTracker::on_increase`] reported staleness,
    /// or after a bulk operation (merge) that moved many cells at once.
    pub fn rebuild<I: IntoIterator<Item = u64>>(&mut self, cells: I) {
        let mut min = u64::MAX;
        let mut multiplicity = 0usize;
        let mut zeros = 0usize;
        let mut total = 0usize;
        for cell in cells {
            total += 1;
            if cell == 0 {
                zeros += 1;
                continue;
            }
            use std::cmp::Ordering;
            match cell.cmp(&min) {
                Ordering::Less => {
                    min = cell;
                    multiplicity = 1;
                }
                Ordering::Equal => multiplicity += 1,
                Ordering::Greater => {}
            }
        }
        self.min = if multiplicity == 0 { 0 } else { min };
        self.multiplicity = multiplicity;
        self.zeros = zeros;
        self.cells = total;
    }

    /// Number of cells still at zero (the gap between the tracked floor and
    /// the literal all-cells minimum of the paper's text).
    pub fn zero_cells(&self) -> usize {
        self.zeros
    }
}

impl FloorTracker for MonotoneFloorTracker {
    fn floor(&self) -> u64 {
        if self.multiplicity == 0 {
            0
        } else {
            self.min
        }
    }

    fn tracked(&self) -> usize {
        self.cells
    }

    fn reset(&mut self) {
        *self = Self::new(self.cells);
    }
}

/// Floor over a dynamic population of per-identifier counts, via a
/// count-of-counts histogram.
///
/// This is the exact-oracle case: identifiers appear at arbitrary times
/// with count 1 (or a batched jump) and only ever grow. The tracker keeps
/// `hist: count → number of ids holding that count`. Two facts make the
/// hot path O(1) without any rescans:
///
/// * a brand-new id enters with the *smallest possible* count of its
///   arrival, so the floor update is a single comparison;
/// * when the last id holding the minimum `m` is incremented by 1, every
///   other id holds a count `> m`, i.e. `>= m + 1` — and the moved id now
///   holds exactly `m + 1`, so the new floor is `m + 1` with no search.
///
/// Only a batched jump (`record_many` with `count > 1`) off the minimum
/// needs a scan, and that scan is over *distinct count values* (typically
/// ≪ distinct ids), not over identifiers.
///
/// # Example
///
/// ```
/// use uns_sketch::min_tracker::{CountOfCountsTracker, FloorTracker};
///
/// let mut tracker = CountOfCountsTracker::default();
/// tracker.on_transition(0, 10); // id A jumps in at 10
/// tracker.on_transition(0, 1); // id B arrives: new floor
/// assert_eq!(tracker.floor(), 1);
/// tracker.on_transition(1, 2); // B increments: floor follows in O(1)
/// assert_eq!(tracker.floor(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CountOfCountsTracker {
    /// `count → number of ids currently holding exactly that count`.
    /// Holds only non-zero counts.
    hist: crate::fx::FxHashMap<u64, usize>,
    min: u64,
    ids: usize,
}

impl CountOfCountsTracker {
    /// Notifies the tracker that one identifier's count moved from `old`
    /// to `new` (`new > old`; `old == 0` means a brand-new identifier).
    pub fn on_transition(&mut self, old: u64, new: u64) {
        debug_assert!(new > old, "counts only grow ({old} -> {new})");
        if old == 0 {
            self.ids += 1;
            if self.ids == 1 || new < self.min {
                self.min = new;
            }
        } else {
            let slot = self.hist.get_mut(&old).expect("transition from an untracked count");
            *slot -= 1;
            let emptied = *slot == 0;
            if emptied {
                self.hist.remove(&old);
            }
            if emptied && old == self.min {
                if new == old + 1 {
                    // Unit step off the minimum: everyone else is >= old + 1
                    // and the moved id sits exactly there.
                    self.min = new;
                } else {
                    // Batched jump: scan the distinct count values.
                    self.min = self.hist.keys().copied().min().map_or(new, |m| m.min(new));
                }
            }
        }
        *self.hist.entry(new).or_insert(0) += 1;
    }

    /// Rebuilds the histogram from scratch (after a merge).
    pub fn rebuild<I: IntoIterator<Item = u64>>(&mut self, counts: I) {
        self.hist.clear();
        self.min = 0;
        self.ids = 0;
        let mut min = u64::MAX;
        for count in counts {
            debug_assert!(count > 0, "tracked counts are positive");
            self.ids += 1;
            min = min.min(count);
            *self.hist.entry(count).or_insert(0) += 1;
        }
        if self.ids > 0 {
            self.min = min;
        }
    }

    /// Number of histogram buckets (distinct count values) currently held —
    /// the tracker's own memory footprint in logical entries.
    pub fn buckets(&self) -> usize {
        self.hist.len()
    }
}

impl FloorTracker for CountOfCountsTracker {
    fn floor(&self) -> u64 {
        if self.ids == 0 {
            0
        } else {
            self.min
        }
    }

    fn tracked(&self) -> usize {
        self.ids
    }

    fn reset(&mut self) {
        self.hist.clear();
        self.min = 0;
        self.ids = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn monotone_starts_at_zero_floor() {
        let t = MonotoneFloorTracker::new(12);
        assert_eq!(t.floor(), 0);
        assert_eq!(t.tracked(), 12);
        assert_eq!(t.zero_cells(), 12);
    }

    #[test]
    fn monotone_increase_above_min_does_not_invalidate() {
        let mut t = MonotoneFloorTracker::new(3);
        t.rebuild([2, 5, 9]);
        assert_eq!(t.floor(), 2);
        assert!(!t.on_increase(5, 6));
        assert_eq!(t.floor(), 2);
        assert_eq!(t.zero_cells(), 0);
    }

    #[test]
    fn monotone_exhausting_minimum_requests_rebuild() {
        let mut t = MonotoneFloorTracker::new(3);
        t.rebuild([2, 2, 9]);
        assert!(!t.on_increase(2, 3)); // one cell at min remains
        assert!(t.on_increase(2, 3)); // last cell at min leaves
        t.rebuild([3, 3, 9]);
        assert_eq!(t.floor(), 3);
    }

    #[test]
    fn monotone_noop_increase_keeps_multiplicity() {
        let mut t = MonotoneFloorTracker::new(2);
        t.rebuild([4, 7]);
        assert!(!t.on_increase(4, 4)); // conservative update may not move a cell
        assert_eq!(t.floor(), 4);
    }

    #[test]
    fn monotone_reset_restores_fresh_state() {
        let mut t = MonotoneFloorTracker::new(4);
        t.rebuild([1, 2, 3, 4]);
        t.reset();
        assert_eq!(t.floor(), 0);
        assert_eq!(t.zero_cells(), 4);
        assert_eq!(t.tracked(), 4);
    }

    #[test]
    fn monotone_agrees_with_naive_min_under_random_workload() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut cells = [0u64; 16];
        let mut t = MonotoneFloorTracker::new(cells.len());
        for _ in 0..5_000 {
            let i = rng.gen_range(0..cells.len());
            let add = rng.gen_range(1..4u64);
            let old = cells[i];
            cells[i] += add;
            if t.on_increase(old, cells[i]) {
                t.rebuild(cells.iter().copied());
            }
            let naive = cells.iter().copied().filter(|&c| c > 0).min().unwrap_or(0);
            assert_eq!(t.floor(), naive);
            assert_eq!(t.zero_cells(), cells.iter().filter(|&&c| c == 0).count());
        }
    }

    #[test]
    fn count_of_counts_tracks_new_and_departing_minima() {
        let mut t = CountOfCountsTracker::default();
        assert_eq!(t.floor(), 0);
        t.on_transition(0, 10);
        assert_eq!(t.floor(), 10);
        t.on_transition(0, 1); // new rarest id
        assert_eq!(t.floor(), 1);
        t.on_transition(1, 21); // jump: id 10 is rarest again
        assert_eq!(t.floor(), 10);
        assert_eq!(t.tracked(), 2);
        assert!(t.buckets() <= 2);
    }

    #[test]
    fn count_of_counts_agrees_with_naive_under_random_workload() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut counts = std::collections::HashMap::<u64, u64>::new();
        let mut t = CountOfCountsTracker::default();
        for _ in 0..5_000 {
            let id = rng.gen_range(0..64u64);
            let add = if rng.gen_bool(0.9) { 1 } else { rng.gen_range(2..20u64) };
            let entry = counts.entry(id).or_insert(0);
            let old = *entry;
            *entry += add;
            t.on_transition(old, *entry);
            assert_eq!(t.floor(), counts.values().copied().min().unwrap());
            assert_eq!(t.tracked(), counts.len());
        }
        t.reset();
        assert_eq!(t.floor(), 0);
        t.rebuild(counts.values().copied());
        assert_eq!(t.floor(), counts.values().copied().min().unwrap());
    }

    #[test]
    fn trackers_are_usable_through_the_trait() {
        fn floor_of(t: &dyn FloorTracker) -> u64 {
            t.floor()
        }
        let mut m = MonotoneFloorTracker::new(2);
        let _ = m.on_increase(0, 4);
        let mut c = CountOfCountsTracker::default();
        c.on_transition(0, 4);
        assert_eq!(floor_of(&m), 4);
        assert_eq!(floor_of(&c), 4);
    }
}
