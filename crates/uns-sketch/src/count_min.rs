//! The Count-Min sketch of Cormode and Muthukrishnan — the paper's
//! Algorithm 2.
//!
//! A Count-Min sketch summarizes an unbounded stream of identifiers in a
//! `s × k` matrix `F̂` of counters (`s = ⌈ln(1/δ)⌉` rows, `k = ⌈e/ε⌉`
//! columns). Each row `v` owns an independent 2-universal hash function
//! `h_v`; recording identifier `j` increments `F̂[v][h_v(j)]` in every row.
//! The point-query estimate is `f̂_j = min_v F̂[v][h_v(j)]`, which satisfies
//!
//! * `f̂_j ≥ f_j` always (one-sided error), and
//! * `f̂_j ≤ f_j + ε·m` with probability at least `1 − δ`,
//!
//! where `m` is the stream length. The sampling service additionally queries
//! the floor `min_σ` (Algorithm 3, line 6) — the minimum over the touched
//! counters of `F̂` — which this implementation tracks in amortized O(1).

use crate::error::SketchError;
use crate::hash::{with_family_rows, FamilyRowHashes, HashFamily, HashFamilyKind, PreparedRowHash};
use crate::min_tracker::{FloorTracker, MonotoneFloorTracker};
use crate::FrequencyEstimator;

/// Rows per index-precompute chunk on the record hot paths. The index pass
/// is pure multiply-shift arithmetic with no cross-row dependency, so
/// separating it from the cell writes lets the compiler unroll and
/// software-pipeline it; 8 rows of indices live comfortably in registers.
pub(crate) const ROW_CHUNK: usize = 8;

/// Computes the absolute row-major cell index touched in each of (at most
/// `ROW_CHUNK`) consecutive rows starting at `first_row`, for an identifier
/// prepared by the rows' family ([`HashFamilyKind::prepare`]). Entries past
/// `hashes.len()` are unused padding. Generic over the concrete row type so
/// each hash family gets its own dispatch-free instantiation.
#[inline]
fn chunk_cell_indices<H: PreparedRowHash>(
    hashes: &[H],
    width: usize,
    first_row: usize,
    prepared: u64,
) -> [usize; ROW_CHUNK] {
    debug_assert!(hashes.len() <= ROW_CHUNK);
    let mut idx = [0usize; ROW_CHUNK];
    for (i, h) in hashes.iter().enumerate() {
        idx[i] = (first_row + i) * width + h.eval_prepared(prepared) as usize;
    }
    idx
}

/// Per-cell update rule of one `record_many` call, resolved from the
/// sketch's [`UpdatePolicy`] before the row loop starts (conservative
/// update needs the pre-record estimate, which the caller computes once).
#[derive(Clone, Copy)]
enum RowUpdate {
    /// Add `count` to every touched counter (Algorithm 2, line 7).
    Standard { count: u64 },
    /// Raise every touched counter to at least `target` (Estan–Varghese).
    Conservative { target: u64 },
}

/// The chunked per-row update loop behind [`CountMinSketch::record_many`],
/// instantiated once per hash family (no row dispatch inside). Returns
/// whether the floor engine went stale and needs a rebuild.
#[inline]
fn update_rows<H: PreparedRowHash>(
    hashes: &[H],
    cells: &mut [u64],
    floor: &mut MonotoneFloorTracker,
    width: usize,
    prepared: u64,
    update: RowUpdate,
) -> bool {
    let mut stale = false;
    let mut first_row = 0;
    for hash_chunk in hashes.chunks(ROW_CHUNK) {
        let idx = chunk_cell_indices(hash_chunk, width, first_row, prepared);
        for &cell_idx in &idx[..hash_chunk.len()] {
            let old = cells[cell_idx];
            let new = match update {
                RowUpdate::Standard { count } => old.saturating_add(count),
                RowUpdate::Conservative { target } => old.max(target),
            };
            cells[cell_idx] = new;
            stale |= floor.on_increase(old, new);
        }
        first_row += hash_chunk.len();
    }
    stale
}

/// The chunked update-and-running-min loop behind the standard-policy arm
/// of [`CountMinSketch::record_and_estimate`], instantiated once per hash
/// family. Returns `(post-record estimate, floor went stale)`.
#[inline]
fn update_rows_estimating<H: PreparedRowHash>(
    hashes: &[H],
    cells: &mut [u64],
    floor: &mut MonotoneFloorTracker,
    width: usize,
    prepared: u64,
) -> (u64, bool) {
    let mut estimate = u64::MAX;
    let mut stale = false;
    let mut first_row = 0;
    for hash_chunk in hashes.chunks(ROW_CHUNK) {
        let idx = chunk_cell_indices(hash_chunk, width, first_row, prepared);
        for &cell_idx in &idx[..hash_chunk.len()] {
            let old = cells[cell_idx];
            let new = old.saturating_add(1);
            cells[cell_idx] = new;
            estimate = estimate.min(new);
            stale |= floor.on_increase(old, new);
        }
        first_row += hash_chunk.len();
    }
    (estimate, stale)
}

/// How counters are incremented on [`CountMinSketch::record`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum UpdatePolicy {
    /// The textbook rule used by the paper: every row's counter is
    /// incremented (Algorithm 2, line 7).
    #[default]
    Standard,
    /// Conservative update (Estan–Varghese): counters are only raised up to
    /// `estimate + count`, never beyond. Strictly reduces over-estimation for
    /// point queries while preserving the one-sided error guarantee. Provided
    /// as an ablation; not what the paper analyses.
    Conservative,
}

/// Count-Min sketch over a stream of 64-bit identifiers (paper's
/// Algorithm 2).
///
/// # Example
///
/// ```
/// use uns_sketch::{CountMinSketch, FrequencyEstimator};
///
/// # fn main() -> Result<(), uns_sketch::SketchError> {
/// let mut sketch = CountMinSketch::with_dimensions(50, 10, 7)?;
/// for _ in 0..500 {
///     sketch.record(42);
/// }
/// sketch.record(1);
/// assert!(sketch.estimate(42) >= 500);
/// // min_σ: some counter still holds a small value.
/// assert!(sketch.floor_estimate() <= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    /// Row-major `depth × width` counter matrix.
    cells: Vec<u64>,
    /// Row functions in the per-family monomorphic storage form, so every
    /// chunked record loop instantiates without per-row enum dispatch.
    hashes: FamilyRowHashes,
    total: u64,
    seed: u64,
    family: HashFamilyKind,
    policy: UpdatePolicy,
    /// Floor-estimate engine: incrementally tracked minimum over the
    /// *touched* (non-zero) cells, plus the count of still-zero cells.
    /// Count-Min cells are monotone, so the monotone tracker applies.
    floor: MonotoneFloorTracker,
    /// Debug-build cross-check schedule (see `debug_cross_check`).
    #[cfg(debug_assertions)]
    debug_ticks: u64,
}

impl CountMinSketch {
    /// Builds a sketch from accuracy targets, sizing the matrix as in the
    /// paper: `k = ⌈e/ε⌉` columns and `s = ⌈ln(1/δ)⌉` rows.
    ///
    /// `seed` determines the hash functions; sketches sharing a seed are
    /// mergeable. Estimates are then within `ε·m` of the true frequency with
    /// probability at least `1 − δ`.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidEpsilon`] unless `0 < ε ≤ 1` and
    /// [`SketchError::InvalidDelta`] unless `0 < δ < 1`.
    pub fn with_error_bounds(epsilon: f64, delta: f64, seed: u64) -> Result<Self, SketchError> {
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(SketchError::InvalidEpsilon(epsilon));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(SketchError::InvalidDelta(delta));
        }
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        Self::with_dimensions(width, depth, seed)
    }

    /// Builds a sketch with an explicit `width` (`k` columns) and `depth`
    /// (`s` rows), the parametrization used throughout the paper's
    /// evaluation (e.g. `k = 10, s = 5` in Fig. 7).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::ZeroWidth`] or [`SketchError::ZeroDepth`] when
    /// the corresponding dimension is zero, or
    /// [`SketchError::DimensionOverflow`] when `width * depth` does not fit
    /// in `usize`.
    pub fn with_dimensions(width: usize, depth: usize, seed: u64) -> Result<Self, SketchError> {
        Self::with_dimensions_family(width, depth, seed, HashFamilyKind::Mersenne)
    }

    /// [`CountMinSketch::with_dimensions`] with an explicit hash family.
    ///
    /// [`HashFamilyKind::Mersenne`] reproduces `with_dimensions` bit for
    /// bit (same seed, same coefficients); the multiply-shift family trades
    /// the exact 2-universal collision bound for a factor-2 approximate one
    /// and a cheaper per-element evaluation (see [`HashFamilyKind`]).
    /// Sketches are mergeable only within one family.
    ///
    /// # Errors
    ///
    /// As [`CountMinSketch::with_dimensions`].
    pub fn with_dimensions_family(
        width: usize,
        depth: usize,
        seed: u64,
        family: HashFamilyKind,
    ) -> Result<Self, SketchError> {
        if width == 0 {
            return Err(SketchError::ZeroWidth);
        }
        if depth == 0 {
            return Err(SketchError::ZeroDepth);
        }
        let cell_count =
            width.checked_mul(depth).ok_or(SketchError::DimensionOverflow { width, depth })?;
        let hashes = HashFamily::with_kind(seed, family).family_rows(depth, width as u64)?;
        Ok(Self {
            width,
            depth,
            cells: vec![0; cell_count],
            hashes,
            total: 0,
            seed,
            family,
            policy: UpdatePolicy::Standard,
            floor: MonotoneFloorTracker::new(cell_count),
            #[cfg(debug_assertions)]
            debug_ticks: 0,
        })
    }

    /// Switches the update policy (builder-style). See [`UpdatePolicy`].
    #[must_use]
    pub fn with_policy(mut self, policy: UpdatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Records `count` occurrences of `id` at once.
    ///
    /// Equivalent to calling [`FrequencyEstimator::record`] `count` times
    /// under [`UpdatePolicy::Standard`]; under conservative update it applies
    /// the batched rule `F̂[v][h_v(j)] ← max(F̂[v][h_v(j)], f̂_j + count)`.
    pub fn record_many(&mut self, id: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.record_many_prepared(self.family.prepare(id), count);
    }

    /// [`CountMinSketch::record_many`] on a family-prepared identifier
    /// (shared preparation across rows and across the record/estimate pair).
    fn record_many_prepared(&mut self, prepared: u64, count: u64) {
        let update = match self.policy {
            UpdatePolicy::Standard => RowUpdate::Standard { count },
            UpdatePolicy::Conservative => RowUpdate::Conservative {
                target: self.point_query_prepared(prepared).saturating_add(count),
            },
        };
        let Self { ref hashes, ref mut cells, ref mut floor, width, .. } = *self;
        let stale = with_family_rows!(hashes, rows => {
            update_rows(rows, cells, floor, width, prepared, update)
        });
        self.total = self.total.saturating_add(count);
        if stale {
            self.floor.rebuild(self.cells.iter().copied());
        }
        #[cfg(debug_assertions)]
        self.debug_cross_check();
    }

    /// Records one occurrence of `id` and returns `(f̂_id, min_σ)` — the
    /// post-record estimate and sampling floor — in a single pass.
    ///
    /// This is the fused operation behind Algorithm 3's lock-step `cobegin`:
    /// the knowledge-free sampler needs exactly these two values per stream
    /// element, and computing them during the record loop halves the hashing
    /// work versus `record` followed by `estimate` (each row index is
    /// computed once instead of twice, and the identifier is folded into the
    /// field once instead of `2s` times). The row indices are computed in
    /// chunks of `ROW_CHUNK` *before* the cell writes (see
    /// `chunk_cell_indices`), so the hash arithmetic pipelines
    /// independently of the loads and stores it feeds.
    ///
    /// Equivalent to `record(id)` then `(estimate(id), floor_estimate())`
    /// under both update policies.
    pub fn record_and_estimate(&mut self, id: u64) -> (u64, u64) {
        let prepared = self.family.prepare(id);
        match self.policy {
            UpdatePolicy::Standard => {
                let (estimate, stale) = {
                    let Self { ref hashes, ref mut cells, ref mut floor, width, .. } = *self;
                    with_family_rows!(hashes, rows => {
                        update_rows_estimating(rows, cells, floor, width, prepared)
                    })
                };
                self.total = self.total.saturating_add(1);
                if stale {
                    self.floor.rebuild(self.cells.iter().copied());
                }
                #[cfg(debug_assertions)]
                self.debug_cross_check();
                (estimate, self.floor.floor())
            }
            UpdatePolicy::Conservative => {
                // Conservative update already needs the pre-record estimate;
                // after the update every touched cell is ≥ target, and the
                // post-record estimate is exactly the target.
                self.record_many_prepared(prepared, 1);
                (self.point_query_prepared(prepared), self.floor.floor())
            }
        }
    }

    /// The pre-chunking scalar form of
    /// [`CountMinSketch::record_and_estimate`]: one rolled loop that hashes
    /// a row and immediately writes its cell — under **both** update
    /// policies, so neither arm shares code with the chunked path under
    /// test. The reference the unrolled path is differential-tested
    /// against; behaviourally identical.
    #[cfg(test)]
    fn record_and_estimate_rowwise(&mut self, id: u64) -> (u64, u64) {
        let prepared = self.family.prepare(id);
        let target = match self.policy {
            UpdatePolicy::Standard => 0, // unused
            UpdatePolicy::Conservative => self.point_query_prepared(prepared).saturating_add(1),
        };
        let mut estimate = u64::MAX;
        let mut stale = false;
        for row in 0..self.depth {
            let idx = self.cell_index_prepared(row, prepared);
            let old = self.cells[idx];
            let new = match self.policy {
                UpdatePolicy::Standard => old.saturating_add(1),
                // After `max(target)` every touched cell is ≥ target and
                // the minimal one is exactly target, so the running min
                // below is the post-record estimate for this policy too.
                UpdatePolicy::Conservative => old.max(target),
            };
            self.cells[idx] = new;
            estimate = estimate.min(new);
            stale |= self.floor.on_increase(old, new);
        }
        self.total = self.total.saturating_add(1);
        if stale {
            self.floor.rebuild(self.cells.iter().copied());
        }
        #[cfg(debug_assertions)]
        self.debug_cross_check();
        (estimate, self.floor.floor())
    }

    /// Appends, for every row, the absolute (row-major) index of the cell
    /// recording `id` would touch — the **delta log** entry the parallel
    /// pipeline's chunk pass emits so its candidate pass can replay updates
    /// via [`CountMinSketch::record_at_cells`] without re-hashing. Indices
    /// are pure functions of the hash family: any same-seed, same-shape
    /// sketch produces (and accepts) the same log.
    ///
    /// # Panics
    ///
    /// Panics if the sketch holds more than `u32::MAX` cells (the compact
    /// log uses 32-bit indices; `uns-service` caps wire-created sketches at
    /// 2²³ cells, orders of magnitude below).
    pub fn touched_cells(&self, id: u64, out: &mut Vec<u32>) {
        assert!(
            self.cells.len() <= u32::MAX as usize,
            "{}-cell sketch exceeds the u32 delta-log index range",
            self.cells.len()
        );
        let prepared = self.family.prepare(id);
        with_family_rows!(&self.hashes, rows => out.extend(
            rows.iter()
                .enumerate()
                .map(|(row, h)| (row * self.width + h.eval_prepared(prepared) as usize) as u32),
        ));
    }

    /// Records one occurrence at pre-hashed touched-cell indices (one per
    /// row, as produced by [`CountMinSketch::touched_cells`] on a same-seed,
    /// same-shape sketch) and returns the fused `(f̂, min_σ)` pair —
    /// bit-equal to [`CountMinSketch::record_and_estimate`] of the
    /// identifier the log was computed from, minus all hashing. This is the
    /// replay half of the pipeline's delta log.
    ///
    /// # Panics
    ///
    /// Panics if `touched.len() != depth` or any index is out of range —
    /// both indicate a log from an incompatible sketch.
    pub fn record_at_cells(&mut self, touched: &[u32]) -> (u64, u64) {
        assert_eq!(touched.len(), self.depth, "delta-log entry does not match sketch depth");
        let target = match self.policy {
            UpdatePolicy::Standard => 0, // unused
            UpdatePolicy::Conservative => touched
                .iter()
                .map(|&idx| self.cells[idx as usize])
                .min()
                .unwrap_or(0)
                .saturating_add(1),
        };
        let mut estimate = u64::MAX;
        let mut stale = false;
        for &idx in touched {
            let old = self.cells[idx as usize];
            let new = match self.policy {
                UpdatePolicy::Standard => old.saturating_add(1),
                UpdatePolicy::Conservative => old.max(target),
            };
            self.cells[idx as usize] = new;
            estimate = estimate.min(new);
            stale |= self.floor.on_increase(old, new);
        }
        self.total = self.total.saturating_add(1);
        if stale {
            self.floor.rebuild(self.cells.iter().copied());
        }
        #[cfg(debug_assertions)]
        self.debug_cross_check();
        (estimate, self.floor.floor())
    }

    /// Adds a raw counter-delta matrix (same row-major shape) plus its
    /// element count into this sketch — [`CountMinSketch::merge`] for
    /// callers that accumulated plain cell deltas (the pipeline's chunk
    /// pass) instead of a full sketch. Exact for
    /// [`UpdatePolicy::Standard`]: adding the delta matrix of a chunk is
    /// counter-for-counter what recording the chunk would have done.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::CellCountMismatch`] when `cells.len()` is not
    /// `width * depth`.
    pub fn merge_delta(&mut self, cells: &[u64], elements: u64) -> Result<(), SketchError> {
        if cells.len() != self.cells.len() {
            return Err(SketchError::CellCountMismatch {
                expected: self.cells.len(),
                got: cells.len(),
            });
        }
        for (a, b) in self.cells.iter_mut().zip(cells) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(elements);
        self.floor.rebuild(self.cells.iter().copied());
        Ok(())
    }

    /// Debug-build cross-check of the floor engine against a naive full
    /// scan, run on a sampled schedule so debug tests stay fast while any
    /// divergence between the incremental tracker and the cells still trips
    /// deterministically under sustained traffic.
    #[cfg(debug_assertions)]
    fn debug_cross_check(&mut self) {
        self.debug_ticks += 1;
        if !self.debug_ticks.is_multiple_of(512) {
            return;
        }
        let naive = self.cells.iter().copied().filter(|&c| c > 0).min().unwrap_or(0);
        debug_assert_eq!(self.floor.floor(), naive, "floor engine diverged from naive scan");
        let zeros = self.cells.iter().filter(|&&c| c == 0).count();
        debug_assert_eq!(self.floor.zero_cells(), zeros, "zero-cell tracking diverged");
    }

    /// Returns the estimate `f̂_id = min_v F̂[v][h_v(id)]` without recording
    /// anything.
    #[inline]
    pub fn point_query(&self, id: u64) -> u64 {
        self.point_query_prepared(self.family.prepare(id))
    }

    #[inline]
    fn point_query_prepared(&self, prepared: u64) -> u64 {
        let mut est = u64::MAX;
        for row in 0..self.depth {
            est = est.min(self.cells[self.cell_index_prepared(row, prepared)]);
        }
        est
    }

    /// Number of columns `k` per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows `s` (independent hash functions).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Hash-family seed; two sketches are mergeable iff their seeds,
    /// families and dimensions match.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Which hash family the row functions are drawn from.
    pub fn family(&self) -> HashFamilyKind {
        self.family
    }

    /// The update policy in effect.
    pub fn policy(&self) -> UpdatePolicy {
        self.policy
    }

    /// The additive error factor `ε ≈ e/k` implied by the current width.
    pub fn epsilon(&self) -> f64 {
        std::f64::consts::E / self.width as f64
    }

    /// The failure probability `δ = e^{−s}` implied by the current depth.
    pub fn delta(&self) -> f64 {
        (-(self.depth as f64)).exp()
    }

    /// Read-only view of row `row` of the counter matrix `F̂`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= depth`.
    pub fn row(&self, row: usize) -> &[u64] {
        assert!(row < self.depth, "row {row} out of range ({} rows)", self.depth);
        &self.cells[row * self.width..(row + 1) * self.width]
    }

    /// Read-only view of the whole counter matrix in row-major order — the
    /// serialization seam used by snapshot/restore (`uns-service`).
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// Rebuilds a sketch from serialized state: configuration plus the
    /// row-major counter matrix captured by [`CountMinSketch::cells`] and
    /// the stream length captured by [`FrequencyEstimator::total`].
    ///
    /// The hash functions are re-derived from `seed` and the floor-estimate
    /// engine is rebuilt from the counters, both of which are pure functions
    /// of the given state — so the restored sketch is **bit-equal going
    /// forward** to the one that was serialized: identical estimates,
    /// floors, and merge compatibility.
    ///
    /// # Errors
    ///
    /// Returns the dimension errors of [`CountMinSketch::with_dimensions`],
    /// or [`SketchError::CellCountMismatch`] when `cells.len()` is not
    /// `width * depth`.
    pub fn from_parts(
        width: usize,
        depth: usize,
        seed: u64,
        policy: UpdatePolicy,
        total: u64,
        cells: Vec<u64>,
    ) -> Result<Self, SketchError> {
        Self::from_parts_family(width, depth, seed, HashFamilyKind::Mersenne, policy, total, cells)
    }

    /// [`CountMinSketch::from_parts`] with an explicit hash family — the
    /// restore seam for snapshots that carry a
    /// [`CountMinSketch::family`] tag.
    ///
    /// # Errors
    ///
    /// As [`CountMinSketch::from_parts`].
    pub fn from_parts_family(
        width: usize,
        depth: usize,
        seed: u64,
        family: HashFamilyKind,
        policy: UpdatePolicy,
        total: u64,
        cells: Vec<u64>,
    ) -> Result<Self, SketchError> {
        let mut sketch =
            Self::with_dimensions_family(width, depth, seed, family)?.with_policy(policy);
        if cells.len() != width * depth {
            return Err(SketchError::CellCountMismatch {
                expected: width * depth,
                got: cells.len(),
            });
        }
        sketch.floor.rebuild(cells.iter().copied());
        sketch.cells = cells;
        sketch.total = total;
        Ok(sketch)
    }

    /// Returns the smallest counter *strictly greater than zero* (the
    /// tracked value behind [`FrequencyEstimator::floor_estimate`]), or
    /// `None` if the matrix is all-zero.
    pub fn min_nonzero_cell(&self) -> Option<u64> {
        // Non-zero cells hold values ≥ 1, so a zero floor means none exist.
        match self.floor.floor() {
            0 => None,
            min => Some(min),
        }
    }

    /// The *literal* `min_{v,r} F̂[v][r]` of the paper's Algorithm 3,
    /// including untouched cells — 0 whenever any cell is still zero. See
    /// [`FrequencyEstimator::floor_estimate`] for why the sampling floor
    /// uses the non-zero minimum instead.
    pub fn min_cell_including_zeros(&self) -> u64 {
        if self.floor.zero_cells() > 0 {
            0
        } else {
            self.floor.floor()
        }
    }

    /// Resets every counter to zero, keeping the hash functions.
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.total = 0;
        self.floor.reset();
    }

    /// Returns `true` if `other` has the same shape, seed, hash family and
    /// policy, i.e. the sketches use identical hash functions and may be
    /// merged.
    pub fn is_compatible(&self, other: &Self) -> bool {
        self.width == other.width
            && self.depth == other.depth
            && self.seed == other.seed
            && self.family == other.family
            && self.policy == other.policy
    }

    /// Adds `other`'s counters into `self` (stream concatenation).
    ///
    /// Exact for [`UpdatePolicy::Standard`]; for conservative sketches the
    /// merged sketch still never under-estimates but may over-estimate more
    /// than a sketch built from the concatenated stream.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleSketches`] when shapes, seeds or
    /// policies differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        if !self.is_compatible(other) {
            return Err(SketchError::IncompatibleSketches {
                left: (self.width, self.depth, self.seed),
                right: (other.width, other.depth, other.seed),
            });
        }
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
        self.floor.rebuild(self.cells.iter().copied());
        Ok(())
    }

    #[inline]
    fn cell_index_prepared(&self, row: usize, prepared: u64) -> usize {
        row * self.width + self.hashes.eval_row(row, prepared) as usize
    }
}

impl FrequencyEstimator for CountMinSketch {
    fn record(&mut self, id: u64) {
        self.record_many(id, 1);
    }

    fn estimate(&self, id: u64) -> u64 {
        self.point_query(id)
    }

    fn record_and_estimate(&mut self, id: u64) -> (u64, u64) {
        CountMinSketch::record_and_estimate(self, id)
    }

    /// The sampling floor `min_σ` (Algorithm 3, line 6): the minimum over
    /// the **touched** counters of `F̂`, or 0 when nothing was recorded.
    ///
    /// The paper's text writes `min_σ = min_{v,r} F̂[v][r]` over all cells;
    /// taken literally that is 0 whenever the matrix has more cells than
    /// distinct identifiers seen (`k·s > n`), which would freeze `Γ`
    /// forever and contradicts the paper's own Figure 8 (high gain at
    /// `n = 10` with a `10 × 17` sketch). We therefore take the minimum
    /// over non-zero cells — equivalently, the tightest lower bound over
    /// identifiers that actually occurred, matching the semantics of
    /// [`crate::ExactFrequencyOracle::min_frequency`]. The literal
    /// all-cells minimum remains available as
    /// [`CountMinSketch::min_cell_including_zeros`].
    ///
    /// Maintained by the floor-estimate engine
    /// ([`crate::min_tracker::MonotoneFloorTracker`]): this read is O(1),
    /// and the per-record maintenance is amortized O(1).
    fn floor_estimate(&self) -> u64 {
        self.floor.floor()
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn memory_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn dimension_sizing_follows_the_paper() {
        // ε = 0.3, δ = 10⁻² → k = ⌈e/0.3⌉ = 10, s = ⌈ln 100⌉ = 5 (Table I row 1).
        let sketch = CountMinSketch::with_error_bounds(0.3, 0.01, 0).unwrap();
        assert_eq!(sketch.width(), 10);
        assert_eq!(sketch.depth(), 5);
        // ε ≈ 0.05 → k = ⌈e/0.05⌉ = 55; paper rounds to 50 but uses explicit k.
        let sketch = CountMinSketch::with_error_bounds(0.05, 1e-3, 0).unwrap();
        assert_eq!(sketch.width(), 55);
        assert_eq!(sketch.depth(), 7);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(
            CountMinSketch::with_error_bounds(0.0, 0.1, 0),
            Err(SketchError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            CountMinSketch::with_error_bounds(1.5, 0.1, 0),
            Err(SketchError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            CountMinSketch::with_error_bounds(0.1, 0.0, 0),
            Err(SketchError::InvalidDelta(_))
        ));
        assert!(matches!(
            CountMinSketch::with_error_bounds(0.1, 1.0, 0),
            Err(SketchError::InvalidDelta(_))
        ));
        assert_eq!(CountMinSketch::with_dimensions(0, 3, 0).unwrap_err(), SketchError::ZeroWidth);
        assert_eq!(CountMinSketch::with_dimensions(3, 0, 0).unwrap_err(), SketchError::ZeroDepth);
        // width * depth wrapping must error, not build an undersized matrix.
        assert_eq!(
            CountMinSketch::with_dimensions(usize::MAX, 2, 0).unwrap_err(),
            SketchError::DimensionOverflow { width: usize::MAX, depth: 2 }
        );
    }

    #[test]
    fn never_underestimates() {
        let mut sketch = CountMinSketch::with_dimensions(8, 3, 11).unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let id = rng.gen_range(0..200u64);
            sketch.record(id);
            *truth.entry(id).or_insert(0) += 1;
        }
        for (&id, &f) in &truth {
            assert!(sketch.estimate(id) >= f, "under-estimated id {id}");
        }
    }

    #[test]
    fn estimate_error_is_within_epsilon_m_for_most_ids() {
        let epsilon = 0.05;
        let delta = 0.01;
        let mut sketch = CountMinSketch::with_error_bounds(epsilon, delta, 5).unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(2);
        let m = 50_000u64;
        for _ in 0..m {
            // Zipf-ish skew: low ids much more frequent.
            let id = (rng.gen_range(0.0f64..1.0).powi(3) * 500.0) as u64;
            sketch.record(id);
            *truth.entry(id).or_insert(0) += 1;
        }
        let bound = (epsilon * m as f64).ceil() as u64;
        let violations = truth.iter().filter(|(&id, &f)| sketch.estimate(id) > f + bound).count();
        // Guarantee holds per-query with prob 1-δ; allow generous slack.
        assert!(
            (violations as f64) < 0.05 * truth.len() as f64,
            "{violations}/{} estimates outside the ε·m bound",
            truth.len()
        );
    }

    #[test]
    fn floor_estimate_tracks_nonzero_min() {
        let mut sketch = CountMinSketch::with_dimensions(4, 2, 3).unwrap();
        assert_eq!(sketch.floor_estimate(), 0);
        // Hammer a single id: 8 cells, only 2 touched. The literal
        // all-cells minimum stays 0, but the sampling floor follows the
        // touched cells (here: the hammered id's own counters).
        for _ in 0..100 {
            sketch.record(7);
        }
        assert_eq!(sketch.min_cell_including_zeros(), 0);
        assert_eq!(sketch.floor_estimate(), 100);
        // Touch every cell by spreading many distinct ids: the two minima
        // coincide once no cell is zero.
        for id in 0..1000u64 {
            sketch.record(id);
        }
        let naive = (0..sketch.depth()).flat_map(|r| sketch.row(r).to_vec()).min().unwrap();
        assert!(naive > 0);
        assert_eq!(sketch.floor_estimate(), naive);
        assert_eq!(sketch.min_cell_including_zeros(), naive);
    }

    #[test]
    fn floor_matches_naive_scan_under_random_workload() {
        let mut sketch = CountMinSketch::with_dimensions(6, 3, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for step in 0..3_000 {
            sketch.record(rng.gen_range(0..64u64));
            if step % 97 == 0 {
                let naive = (0..sketch.depth())
                    .flat_map(|r| sketch.row(r).to_vec())
                    .filter(|&c| c > 0)
                    .min()
                    .unwrap();
                assert_eq!(sketch.floor_estimate(), naive, "at step {step}");
                let naive_all =
                    (0..sketch.depth()).flat_map(|r| sketch.row(r).to_vec()).min().unwrap();
                assert_eq!(sketch.min_cell_including_zeros(), naive_all, "at step {step}");
            }
        }
    }

    #[test]
    fn record_many_equals_repeated_record() {
        let mut a = CountMinSketch::with_dimensions(16, 4, 21).unwrap();
        let mut b = a.clone();
        a.record_many(99, 57);
        for _ in 0..57 {
            b.record(99);
        }
        assert_eq!(a.estimate(99), b.estimate(99));
        assert_eq!(a.total(), b.total());
        assert_eq!(a.floor_estimate(), b.floor_estimate());
        // Zero-count record is a no-op.
        let before = a.total();
        a.record_many(99, 0);
        assert_eq!(a.total(), before);
    }

    #[test]
    fn record_and_estimate_equals_record_then_queries() {
        for policy in [UpdatePolicy::Standard, UpdatePolicy::Conservative] {
            let mut fused = CountMinSketch::with_dimensions(10, 5, 17).unwrap().with_policy(policy);
            let mut split = fused.clone();
            let mut rng = StdRng::seed_from_u64(7);
            for step in 0..5_000 {
                let id = rng.gen_range(0..64u64);
                let (est, floor) = fused.record_and_estimate(id);
                split.record(id);
                assert_eq!(est, split.estimate(id), "estimate at step {step} ({policy:?})");
                assert_eq!(floor, split.floor_estimate(), "floor at step {step} ({policy:?})");
            }
            assert_eq!(fused.total(), split.total());
            for id in 0..64u64 {
                assert_eq!(fused.estimate(id), split.estimate(id));
            }
        }
    }

    #[test]
    fn rowwise_reference_matches_unrolled_record_and_estimate() {
        for policy in [UpdatePolicy::Standard, UpdatePolicy::Conservative] {
            // Depth 11 forces a ragged final index chunk (11 = 8 + 3).
            let mut unrolled =
                CountMinSketch::with_dimensions(16, 11, 3).unwrap().with_policy(policy);
            let mut rowwise = unrolled.clone();
            let mut rng = StdRng::seed_from_u64(41);
            for step in 0..4_000 {
                let id = rng.gen_range(0..96u64);
                assert_eq!(
                    unrolled.record_and_estimate(id),
                    rowwise.record_and_estimate_rowwise(id),
                    "step {step} ({policy:?})"
                );
            }
            assert_eq!(unrolled.cells(), rowwise.cells());
            assert_eq!(unrolled.total(), rowwise.total());
        }
    }

    #[test]
    fn record_at_cells_replays_record_and_estimate_without_hashing() {
        for policy in [UpdatePolicy::Standard, UpdatePolicy::Conservative] {
            let mut hashed =
                CountMinSketch::with_dimensions(10, 5, 29).unwrap().with_policy(policy);
            let mut replayed = hashed.clone();
            let logger = hashed.clone(); // any same-seed sketch produces the log
            let mut rng = StdRng::seed_from_u64(17);
            let mut log = Vec::new();
            for step in 0..5_000 {
                let id = rng.gen_range(0..200u64);
                log.clear();
                logger.touched_cells(id, &mut log);
                assert_eq!(log.len(), hashed.depth());
                assert_eq!(
                    replayed.record_at_cells(&log),
                    hashed.record_and_estimate(id),
                    "step {step} ({policy:?})"
                );
            }
            assert_eq!(replayed.cells(), hashed.cells());
            assert_eq!(replayed.total(), hashed.total());
            assert_eq!(replayed.floor_estimate(), hashed.floor_estimate());
        }
    }

    #[test]
    #[should_panic(expected = "does not match sketch depth")]
    fn record_at_cells_rejects_wrong_log_arity() {
        let mut sketch = CountMinSketch::with_dimensions(4, 2, 0).unwrap();
        let _ = sketch.record_at_cells(&[0, 1, 2]);
    }

    #[test]
    fn merge_delta_equals_merging_a_recorded_sketch() {
        let mut merged = CountMinSketch::with_dimensions(12, 4, 8).unwrap();
        let mut reference = merged.clone();
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..5 {
            // One chunk: raw deltas on one side, a recorded sketch on the other.
            let ids: Vec<u64> = (0..700).map(|_| rng.gen_range(0..150u64)).collect();
            let mut delta = vec![0u64; 12 * 4];
            let mut log = Vec::new();
            let mut chunk_sketch = CountMinSketch::with_dimensions(12, 4, 8).unwrap();
            for &id in &ids {
                log.clear();
                merged.touched_cells(id, &mut log);
                for &idx in &log {
                    delta[idx as usize] += 1;
                }
                chunk_sketch.record(id);
            }
            merged.merge_delta(&delta, ids.len() as u64).unwrap();
            reference.merge(&chunk_sketch).unwrap();
            assert_eq!(merged.cells(), reference.cells());
            assert_eq!(merged.total(), reference.total());
            assert_eq!(merged.floor_estimate(), reference.floor_estimate());
        }
        assert!(matches!(
            merged.merge_delta(&[0u64; 3], 0),
            Err(SketchError::CellCountMismatch { expected: 48, got: 3 })
        ));
    }

    #[test]
    fn from_parts_round_trips_and_stays_bit_equal() {
        for policy in [UpdatePolicy::Standard, UpdatePolicy::Conservative] {
            let mut original =
                CountMinSketch::with_dimensions(12, 4, 9).unwrap().with_policy(policy);
            let mut rng = StdRng::seed_from_u64(33);
            for _ in 0..4_000 {
                original.record(rng.gen_range(0..300u64));
            }
            let mut restored = CountMinSketch::from_parts(
                original.width(),
                original.depth(),
                original.seed(),
                original.policy(),
                original.total(),
                original.cells().to_vec(),
            )
            .unwrap();
            assert_eq!(restored.cells(), original.cells());
            assert_eq!(restored.total(), original.total());
            assert_eq!(restored.floor_estimate(), original.floor_estimate());
            assert_eq!(restored.min_cell_including_zeros(), original.min_cell_including_zeros());
            assert!(restored.is_compatible(&original));
            // Bit-equal going forward: fused queries agree on further traffic.
            for id in 0..500u64 {
                assert_eq!(
                    restored.record_and_estimate(id),
                    original.record_and_estimate(id),
                    "{policy:?}"
                );
            }
        }
    }

    #[test]
    fn from_parts_rejects_wrong_cell_count() {
        assert!(matches!(
            CountMinSketch::from_parts(4, 2, 1, UpdatePolicy::Standard, 0, vec![0; 9]),
            Err(SketchError::CellCountMismatch { expected: 8, got: 9 })
        ));
        assert!(matches!(
            CountMinSketch::from_parts(4, 0, 1, UpdatePolicy::Standard, 0, vec![]),
            Err(SketchError::ZeroDepth)
        ));
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let mut left = CountMinSketch::with_dimensions(12, 3, 33).unwrap();
        let mut right = CountMinSketch::with_dimensions(12, 3, 33).unwrap();
        let mut whole = CountMinSketch::with_dimensions(12, 3, 33).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..2_000 {
            let id = rng.gen_range(0..100u64);
            left.record(id);
            whole.record(id);
        }
        for _ in 0..2_000 {
            let id = rng.gen_range(0..100u64);
            right.record(id);
            whole.record(id);
        }
        left.merge(&right).unwrap();
        for id in 0..100u64 {
            assert_eq!(left.estimate(id), whole.estimate(id));
        }
        assert_eq!(left.total(), whole.total());
        assert_eq!(left.floor_estimate(), whole.floor_estimate());
    }

    #[test]
    fn merge_rejects_incompatible_sketches() {
        let mut a = CountMinSketch::with_dimensions(8, 2, 1).unwrap();
        let b = CountMinSketch::with_dimensions(8, 2, 2).unwrap(); // different seed
        let c = CountMinSketch::with_dimensions(9, 2, 1).unwrap(); // different width
        assert!(matches!(a.merge(&b), Err(SketchError::IncompatibleSketches { .. })));
        assert!(matches!(a.merge(&c), Err(SketchError::IncompatibleSketches { .. })));
    }

    #[test]
    fn clear_resets_state() {
        let mut sketch = CountMinSketch::with_dimensions(4, 2, 8).unwrap();
        for id in 0..50u64 {
            sketch.record(id);
        }
        sketch.clear();
        assert_eq!(sketch.total(), 0);
        assert_eq!(sketch.floor_estimate(), 0);
        assert_eq!(sketch.estimate(3), 0);
    }

    #[test]
    fn conservative_update_never_underestimates_and_tightens() {
        let mut standard = CountMinSketch::with_dimensions(8, 2, 13).unwrap();
        let mut conservative = CountMinSketch::with_dimensions(8, 2, 13)
            .unwrap()
            .with_policy(UpdatePolicy::Conservative);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..20_000 {
            let id = rng.gen_range(0..300u64);
            standard.record(id);
            conservative.record(id);
            *truth.entry(id).or_insert(0) += 1;
        }
        let mut cons_total_err = 0u64;
        let mut std_total_err = 0u64;
        for (&id, &f) in &truth {
            assert!(conservative.estimate(id) >= f, "conservative under-estimated {id}");
            cons_total_err += conservative.estimate(id) - f;
            std_total_err += standard.estimate(id) - f;
        }
        assert!(
            cons_total_err <= std_total_err,
            "conservative ({cons_total_err}) should not be worse than standard ({std_total_err})"
        );
    }

    #[test]
    fn min_nonzero_cell_ignores_untouched_cells() {
        let mut sketch = CountMinSketch::with_dimensions(64, 4, 2).unwrap();
        assert_eq!(sketch.min_nonzero_cell(), None);
        assert_eq!(sketch.min_cell_including_zeros(), 0);
        for _ in 0..10 {
            sketch.record(5);
        }
        assert_eq!(sketch.min_nonzero_cell(), Some(10));
        assert_eq!(sketch.floor_estimate(), 10);
        assert_eq!(sketch.min_cell_including_zeros(), 0); // literal min_σ
    }

    #[test]
    fn accessors_report_configuration() {
        let sketch = CountMinSketch::with_dimensions(50, 10, 77).unwrap();
        assert_eq!(sketch.seed(), 77);
        assert_eq!(sketch.policy(), UpdatePolicy::Standard);
        assert!((sketch.epsilon() - std::f64::consts::E / 50.0).abs() < 1e-12);
        assert!((sketch.delta() - (-10.0f64).exp()).abs() < 1e-15);
        assert_eq!(sketch.memory_cells(), 500);
        assert_eq!(sketch.row(0).len(), 50);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_out_of_range_panics() {
        let sketch = CountMinSketch::with_dimensions(4, 2, 0).unwrap();
        let _ = sketch.row(2);
    }

    #[test]
    fn saturating_behaviour_near_u64_max() {
        let mut sketch = CountMinSketch::with_dimensions(2, 1, 0).unwrap();
        sketch.record_many(1, u64::MAX - 1);
        sketch.record_many(1, 10); // would overflow; must saturate
        assert_eq!(sketch.estimate(1), u64::MAX);
    }

    #[test]
    fn mersenne_family_constructor_is_bit_equal_to_default() {
        let mut explicit =
            CountMinSketch::with_dimensions_family(10, 5, 17, HashFamilyKind::Mersenne).unwrap();
        let mut default = CountMinSketch::with_dimensions(10, 5, 17).unwrap();
        assert_eq!(default.family(), HashFamilyKind::Mersenne);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..3_000 {
            let id = rng.gen_range(0..500u64);
            assert_eq!(explicit.record_and_estimate(id), default.record_and_estimate(id));
        }
        assert_eq!(explicit.cells(), default.cells());
        assert!(explicit.is_compatible(&default));
    }

    #[test]
    fn multiply_shift_sketch_upholds_the_count_min_contract() {
        let mut sketch =
            CountMinSketch::with_dimensions_family(8, 3, 11, HashFamilyKind::MultiplyShift)
                .unwrap();
        assert_eq!(sketch.family(), HashFamilyKind::MultiplyShift);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut split = sketch.clone();
        let mut rowwise = sketch.clone();
        let mut rng = StdRng::seed_from_u64(1);
        for step in 0..10_000 {
            let id = rng.gen_range(0..200u64);
            let (est, floor) = sketch.record_and_estimate(id);
            split.record(id);
            assert_eq!(est, split.estimate(id), "fused/split estimate at step {step}");
            assert_eq!(floor, split.floor_estimate(), "fused/split floor at step {step}");
            assert_eq!((est, floor), rowwise.record_and_estimate_rowwise(id), "step {step}");
            *truth.entry(id).or_insert(0) += 1;
        }
        for (&id, &f) in &truth {
            assert!(sketch.estimate(id) >= f, "under-estimated id {id}");
        }
        // Delta-log seam: touched_cells/record_at_cells replay exactly.
        let logger = sketch.clone();
        let mut replayed = sketch.clone();
        let mut log = Vec::new();
        for id in 0..300u64 {
            log.clear();
            logger.touched_cells(id, &mut log);
            assert_eq!(replayed.record_at_cells(&log), sketch.record_and_estimate(id));
        }
    }

    #[test]
    fn multiply_shift_from_parts_round_trips() {
        let mut original =
            CountMinSketch::with_dimensions_family(12, 4, 9, HashFamilyKind::MultiplyShift)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..4_000 {
            original.record(rng.gen_range(0..300u64));
        }
        let mut restored = CountMinSketch::from_parts_family(
            original.width(),
            original.depth(),
            original.seed(),
            original.family(),
            original.policy(),
            original.total(),
            original.cells().to_vec(),
        )
        .unwrap();
        assert_eq!(restored.cells(), original.cells());
        assert_eq!(restored.floor_estimate(), original.floor_estimate());
        for id in 0..500u64 {
            assert_eq!(restored.record_and_estimate(id), original.record_and_estimate(id));
        }
    }

    #[test]
    fn families_do_not_merge_across_each_other() {
        let mut mersenne = CountMinSketch::with_dimensions(8, 2, 1).unwrap();
        let shift =
            CountMinSketch::with_dimensions_family(8, 2, 1, HashFamilyKind::MultiplyShift).unwrap();
        assert!(!mersenne.is_compatible(&shift));
        assert!(matches!(mersenne.merge(&shift), Err(SketchError::IncompatibleSketches { .. })));
    }
}
