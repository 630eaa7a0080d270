//! The Count sketch of Charikar, Chen and Farach-Colton (cited as \[8\] in the
//! paper), provided as an estimator ablation.
//!
//! Unlike Count-Min, the Count sketch is *unbiased*: each row hashes the
//! identifier to a bucket **and** to a random sign, and the estimate is the
//! median of the signed per-row readings. Its error scales with the L2 norm
//! of the frequency vector rather than the L1 norm, which can be much tighter
//! on heavy-tailed (Zipfian) streams — exactly the workloads of the paper's
//! evaluation. The trade-off is that estimates can *under*-estimate, so the
//! insertion probability `a_j = min_σ/f̂_j` loses its one-sided guarantee.
//! The benchmark harness compares both estimators inside the knowledge-free
//! strategy.

use crate::depth::{row_buffer, with_depth_rows, MAX_FIXED_DEPTH};
use crate::error::SketchError;
use crate::hash::{FamilyRowHashes, HashFamily, HashFamilyKind, PreparedRowHash};
use crate::median::clamped_median;
use crate::FrequencyEstimator;

/// Splits row `row`'s packed evaluation (hash `h`) of a family-prepared
/// identifier into `(absolute cell index, sign)`: the low bit is the sign,
/// the high bits the bucket.
#[inline(always)]
fn cell_and_sign_of<H: PreparedRowHash>(
    h: &H,
    row: usize,
    width: usize,
    prepared: u64,
) -> (usize, i64) {
    let packed = h.eval_prepared(prepared);
    let idx = row * width + (packed >> 1) as usize;
    let sign = if packed & 1 == 1 { 1 } else { -1 };
    (idx, sign)
}

/// The row loop behind [`CountSketch::record_many`] and
/// [`CountSketch::record_unfloored`]. Compiled once per hash family and per
/// depth (see [`crate::depth`]), so the loop runs straight-line.
#[inline(always)]
fn update_rows<H: PreparedRowHash>(
    rows: &[H],
    cells: &mut [i64],
    width: usize,
    prepared: u64,
    count: i64,
) {
    for (row, h) in rows.iter().enumerate() {
        let (idx, sign) = cell_and_sign_of(h, row, width, prepared);
        cells[idx] += sign * count;
    }
}

/// The clamped median of one signed reading per row, `reading_of(row, h)`,
/// behind [`CountSketch::record_and_estimate`] and
/// [`CountSketch::point_query`]. Compiled like [`update_rows`]; up to
/// [`MAX_FIXED_DEPTH`] rows the readings stay on the stack, past it they go
/// to `deep_readings` (at least `rows.len()` long).
#[inline(always)]
fn median_of_rows<H: PreparedRowHash>(
    rows: &[H],
    deep_readings: &mut [i64],
    mut reading_of: impl FnMut(usize, &H) -> i64,
) -> u64 {
    let mut stack = [0; MAX_FIXED_DEPTH];
    let readings = row_buffer(&mut stack, deep_readings, rows.len());
    for (row, (h, reading)) in rows.iter().zip(readings.iter_mut()).enumerate() {
        *reading = reading_of(row, h);
    }
    clamped_median(readings)
}

/// The whole-batch loop behind [`CountSketch::record_unfloored`]: per-id
/// preparation and all row updates run monomorphically (including
/// [`PreparedRowHash::prepare`], so Mersenne batches inline the field fold
/// directly).
#[inline(always)]
fn record_batch_rows<H: PreparedRowHash>(rows: &[H], cells: &mut [i64], width: usize, ids: &[u64]) {
    for &id in ids {
        update_rows(rows, cells, width, H::prepare(id), 1);
    }
}

/// Count sketch (signed median estimator) over 64-bit identifiers.
///
/// # Example
///
/// ```
/// use uns_sketch::{CountSketch, FrequencyEstimator};
///
/// # fn main() -> Result<(), uns_sketch::SketchError> {
/// let mut sketch = CountSketch::with_dimensions(64, 5, 3)?;
/// for _ in 0..100 {
///     sketch.record(17);
/// }
/// let est = sketch.estimate(17);
/// assert!(est >= 90 && est <= 110, "estimate {est} should be near 100");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CountSketch {
    width: usize,
    depth: usize,
    /// Row-major `depth × width` signed counters.
    cells: Vec<i64>,
    /// One hash function per row over the doubled range `2k`: the low bit
    /// of the evaluation is the row's random sign, the high bits the
    /// bucket. Packing both into one evaluation halves the hashing work of
    /// every record/query relative to separate bucket and sign families.
    /// Stored monomorphically per family so the per-depth record loops
    /// instantiate without per-row enum dispatch.
    rows: FamilyRowHashes,
    /// Which hash family `rows` was drawn from (all rows share it).
    family: HashFamilyKind,
    total: u64,
    seed: u64,
    /// Reusable per-row readings buffer of the fused record+estimate path
    /// for sketches deeper than [`MAX_FIXED_DEPTH`] rows (`depth` long;
    /// empty otherwise, where the readings stay on the stack), keeping
    /// steady-state ingestion allocation-free at any depth.
    deep_readings: Vec<i64>,
}

impl CountSketch {
    /// Builds a Count sketch with `width` buckets per row and `depth` rows.
    ///
    /// An odd `depth` is recommended so the median is a single reading.
    /// Each row draws a single function over the doubled range `2·width`
    /// from the default [`HashFamilyKind::Mersenne`] family; its low bit
    /// supplies the row's ±1 sign and its high bits the bucket, so one
    /// evaluation per row serves both (the pair keeps the family's
    /// collision bound on buckets and a balanced sign).
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

    /// [`CountSketch::with_dimensions`] with an explicit hash family.
    ///
    /// `HashFamilyKind::Mersenne` reproduces [`CountSketch::with_dimensions`]
    /// bit for bit; [`HashFamilyKind::MultiplyShift`] draws Dietzfelbinger
    /// multiply-shift rows instead (2-*approximately* universal — bucket
    /// collision probability ≤ 2/(2·width) — and cheaper per element).
    ///
    /// # Errors
    ///
    /// As [`CountSketch::with_dimensions`].
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
        let rows = HashFamily::with_kind(seed, family).family_rows(depth, 2 * width as u64)?;
        Ok(Self {
            width,
            depth,
            cells: vec![0; cell_count],
            rows,
            family,
            total: 0,
            seed,
            deep_readings: vec![0; if depth > MAX_FIXED_DEPTH { depth } else { 0 }],
        })
    }

    /// Splits one packed row evaluation into `(cell index, sign)` with a
    /// per-row family dispatch: the rolled form of `cell_and_sign_of`, for
    /// the reference the kernels are differential-tested against.
    #[cfg(test)]
    fn cell_and_sign(&self, row: usize, prepared: u64) -> (usize, i64) {
        let packed = self.rows.eval_row(row, prepared);
        let idx = row * self.width + (packed >> 1) as usize;
        let sign = if packed & 1 == 1 { 1 } else { -1 };
        (idx, sign)
    }

    /// Records `count` occurrences of `id` at once.
    pub fn record_many(&mut self, id: u64, count: u64) {
        let prepared = self.family.prepare(id);
        let count = count as i64;
        let Self { ref rows, ref mut cells, width, .. } = *self;
        with_depth_rows!(rows, r => {
            update_rows(r, cells, width, prepared, count)
        });
        self.total = self.total.saturating_add(count as u64);
    }

    /// Records a whole batch of identifiers; the counters and total end
    /// identical to calling [`FrequencyEstimator::record`] per element. The
    /// hash family and the depth are dispatched once per batch, and the
    /// per-id preparation and row updates run through the same per-depth
    /// row loop as [`CountSketch::record_many`].
    pub fn record_unfloored(&mut self, ids: &[u64]) {
        let Self { ref rows, ref mut cells, width, .. } = *self;
        with_depth_rows!(rows, r => {
            record_batch_rows(r, cells, width, ids)
        });
        self.total = self.total.saturating_add(ids.len() as u64);
    }

    /// Records one occurrence of `id` and returns `(f̂_id, floor)` in a
    /// single hashing pass — the Count-sketch counterpart of
    /// [`crate::CountMinSketch::record_and_estimate`], so the estimator
    /// ablation compares identical per-element query patterns.
    ///
    /// Equivalent to `record(id)` then `(estimate(id), floor_estimate())`.
    /// The bucket and sign indices of each row are computed once and reused
    /// for both the update and the signed reading. Up to 16 rows, the row
    /// loop is compiled for the sketch's exact depth, so it runs
    /// straight-line, and the median of the readings comes from a
    /// branch-free sorting network. The published floor is the mean row
    /// load, an O(1) arithmetic read.
    pub fn record_and_estimate(&mut self, id: u64) -> (u64, u64) {
        let prepared = self.family.prepare(id);
        let Self { ref rows, ref mut cells, ref mut deep_readings, width, .. } = *self;
        // A slice, not the `Vec`: through the vector the closure would reload
        // its pointer and length after every cell write.
        let cells: &mut [i64] = cells;
        let estimate = with_depth_rows!(rows, r => {
            median_of_rows(r, deep_readings, |row, h| {
                let (idx, sign) = cell_and_sign_of(h, row, width, prepared);
                cells[idx] += sign;
                sign * cells[idx]
            })
        });
        self.total = self.total.saturating_add(1);
        (estimate, self.sampling_floor())
    }

    /// The rolled scalar form of [`CountSketch::record_and_estimate`]: one
    /// loop over `0..depth` that dispatches each row's family, hashes it and
    /// immediately writes its cell. The reference the per-depth kernels are
    /// differential-tested against.
    #[cfg(test)]
    fn record_and_estimate_rowwise(&mut self, id: u64) -> (u64, u64) {
        let prepared = self.family.prepare(id);
        let mut readings = Vec::with_capacity(self.depth);
        for row in 0..self.depth {
            let (idx, sign) = self.cell_and_sign(row, prepared);
            self.cells[idx] += sign;
            readings.push(sign * self.cells[idx]);
        }
        self.total = self.total.saturating_add(1);
        (clamped_median(&mut readings), self.sampling_floor())
    }

    /// The rolled scalar form of [`CountSketch::record_many`], the reference
    /// for it and for [`CountSketch::record_unfloored`].
    #[cfg(test)]
    fn record_many_rowwise(&mut self, id: u64, count: u64) {
        let prepared = self.family.prepare(id);
        for row in 0..self.depth {
            let (idx, sign) = self.cell_and_sign(row, prepared);
            self.cells[idx] += sign * count as i64;
        }
        self.total = self.total.saturating_add(count);
    }

    /// The rolled scalar form of [`CountSketch::point_query`].
    #[cfg(test)]
    fn point_query_rowwise(&self, id: u64) -> u64 {
        let prepared = self.family.prepare(id);
        let mut readings: Vec<i64> = (0..self.depth)
            .map(|row| {
                let (idx, sign) = self.cell_and_sign(row, prepared);
                sign * self.cells[idx]
            })
            .collect();
        clamped_median(&mut readings)
    }

    /// The published sampling floor `min_σ`: the **mean row load**
    /// `max(1, ⌊total/k⌋)` (0 while empty).
    ///
    /// Why not the raw magnitude minimum `min |cell|`? The adversarial
    /// conformance harness exposed that it is structurally broken as a
    /// `min_σ` analog: signed counters *cancel*, so at every sketch width
    /// some cell sits near 0 (per row, `Σ|cell| ≤ total`, hence
    /// `min |cell| ≤ total/k` — and sign noise drives the minimum far below
    /// that bound, to ~0). Publishing that as `min_σ` collapses the
    /// knowledge-free sampler's admission probability `min_σ/f̂` and
    /// freezes its memory — Algorithm 3's freshness dies, and the sampler's
    /// output measurably stops being uniform under *every* workload. The
    /// mean row load is the tight, cancellation-immune upper bound on that
    /// same minimum, and it tracks exactly what Count-Min's floor tracks on
    /// honest traffic (the lightest bucket's load, ≈ `total/k`): under
    /// uniform streams `min_σ/f̂ ≈ k/n` keeps admissions flowing, and a
    /// flooded identifier's estimate outgrows it linearly, so suppression
    /// is preserved.
    fn sampling_floor(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.total / self.width as u64).max(1)
        }
    }

    /// Returns the signed median estimate for `id`, clamped at zero
    /// (frequencies are non-negative). Allocation-free up to 16 rows.
    pub fn point_query(&self, id: u64) -> u64 {
        let prepared = self.family.prepare(id);
        let Self { ref rows, ref cells, width, depth, .. } = *self;
        let mut deep_readings = if depth > MAX_FIXED_DEPTH { vec![0; depth] } else { Vec::new() };
        with_depth_rows!(rows, r => {
            median_of_rows(r, &mut deep_readings, |row, h| {
                let (idx, sign) = cell_and_sign_of(h, row, width, prepared);
                sign * cells[idx]
            })
        })
    }

    /// Number of buckets per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Hash-family seed. A sketch's hash functions are a pure function of
    /// `(seed, family, depth, width)`.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Which hash family the per-row functions were drawn from.
    pub fn family(&self) -> HashFamilyKind {
        self.family
    }

    /// Read-only view of row `row` of the signed counter matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row >= depth`.
    pub fn row(&self, row: usize) -> &[i64] {
        assert!(row < self.depth, "row {row} out of range ({} rows)", self.depth);
        &self.cells[row * self.width..(row + 1) * self.width]
    }

    /// Read-only view of the whole signed counter matrix in row-major
    /// order — the serialization seam used by snapshot/restore
    /// (`uns-service`).
    pub fn cells(&self) -> &[i64] {
        &self.cells
    }

    /// Rebuilds a sketch from serialized state: configuration plus the
    /// row-major signed counter matrix captured by [`CountSketch::cells`]
    /// and the stream length captured by [`FrequencyEstimator::total`].
    ///
    /// The packed bucket/sign hash functions are re-derived from
    /// `(seed, family)`, a pure function of the given state, so the
    /// restored sketch is bit-equal going forward to the serialized one.
    ///
    /// # Errors
    ///
    /// Returns the dimension errors of [`CountSketch::with_dimensions`], or
    /// [`SketchError::CellCountMismatch`] when `cells.len()` is not
    /// `width * depth`.
    pub fn from_parts(
        width: usize,
        depth: usize,
        seed: u64,
        total: u64,
        cells: Vec<i64>,
    ) -> Result<Self, SketchError> {
        Self::from_parts_family(width, depth, seed, HashFamilyKind::Mersenne, total, cells)
    }

    /// [`CountSketch::from_parts`] with an explicit hash family — the
    /// deserialization seam for snapshots that carry a family tag.
    ///
    /// # Errors
    ///
    /// As [`CountSketch::from_parts`].
    pub fn from_parts_family(
        width: usize,
        depth: usize,
        seed: u64,
        family: HashFamilyKind,
        total: u64,
        cells: Vec<i64>,
    ) -> Result<Self, SketchError> {
        let mut sketch = Self::with_dimensions_family(width, depth, seed, family)?;
        if cells.len() != width * depth {
            return Err(SketchError::CellCountMismatch {
                expected: width * depth,
                got: cells.len(),
            });
        }
        sketch.cells = cells;
        sketch.total = total;
        Ok(sketch)
    }

    /// Adds `other`'s counters into `self` (stream concatenation).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleSketches`] when shapes, seeds or
    /// hash families differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.width != other.width
            || self.depth != other.depth
            || self.seed != other.seed
            || self.family != other.family
        {
            return Err(SketchError::IncompatibleSketches {
                left: (self.width, self.depth, self.seed),
                right: (other.width, other.depth, other.seed),
            });
        }
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a += *b;
        }
        self.total = self.total.saturating_add(other.total);
        Ok(())
    }

    /// Resets every counter to zero, keeping the hash functions.
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.total = 0;
    }
}

impl FrequencyEstimator for CountSketch {
    fn record(&mut self, id: u64) {
        self.record_many(id, 1);
    }

    fn estimate(&self, id: u64) -> u64 {
        self.point_query(id)
    }

    fn record_and_estimate(&mut self, id: u64) -> (u64, u64) {
        CountSketch::record_and_estimate(self, id)
    }

    /// Analog of the paper's `min_σ` for signed counters: the mean row
    /// load `max(1, ⌊total/k⌋)` (0 while empty). The Count sketch has no exact
    /// equivalent of Count-Min's touched-counter minimum — sign
    /// cancellation makes the literal magnitude minimum `min |cell|`
    /// collapse toward 0 at every width, which would silently disable the
    /// knowledge-free sampler's admissions (caught by the adversarial
    /// conformance harness; see `sampling_floor` for the full argument).
    /// The mean row load is the cancellation-immune bound on that minimum
    /// and matches the scale of Count-Min's floor on honest traffic.
    fn floor_estimate(&self) -> u64 {
        self.sampling_floor()
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
    fn invalid_dimensions_are_rejected() {
        assert_eq!(CountSketch::with_dimensions(0, 3, 0).unwrap_err(), SketchError::ZeroWidth);
        assert_eq!(CountSketch::with_dimensions(3, 0, 0).unwrap_err(), SketchError::ZeroDepth);
        // width * depth wrapping must error, not build an undersized matrix.
        assert_eq!(
            CountSketch::with_dimensions(usize::MAX, 2, 0).unwrap_err(),
            SketchError::DimensionOverflow { width: usize::MAX, depth: 2 }
        );
    }

    #[test]
    fn heavy_hitter_estimate_is_accurate() {
        let mut sketch = CountSketch::with_dimensions(128, 5, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            sketch.record(42);
        }
        for _ in 0..5_000 {
            sketch.record(rng.gen_range(100..10_000u64));
        }
        let est = sketch.estimate(42) as f64;
        assert!((est - 5_000.0).abs() < 500.0, "estimate {est} too far from 5000");
    }

    #[test]
    fn estimates_are_roughly_unbiased_on_skewed_stream() {
        // Unbiasedness is a property over the hash-function draw, so the
        // signed error is averaged over several sketch seeds (a single seed
        // sees the noise of its particular collision pattern).
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(8);
        let stream: Vec<u64> =
            (0..30_000).map(|_| (rng.gen_range(0.0f64..1.0).powi(2) * 400.0) as u64).collect();
        for &id in &stream {
            *truth.entry(id).or_insert(0) += 1;
        }
        let (mut signed_err, mut count) = (0i64, 0i64);
        for sketch_seed in 0..5u64 {
            let mut sketch = CountSketch::with_dimensions(64, 7, sketch_seed).unwrap();
            for &id in &stream {
                sketch.record(id);
            }
            for (&id, &f) in truth.iter().filter(|(_, &f)| f >= 50) {
                signed_err += sketch.estimate(id) as i64 - f as i64;
                count += 1;
            }
        }
        let mean_err = signed_err as f64 / count as f64;
        assert!(mean_err.abs() < 40.0, "mean signed error {mean_err} suggests bias");
    }

    #[test]
    fn record_many_equals_repeated_record() {
        let mut a = CountSketch::with_dimensions(32, 3, 6).unwrap();
        let mut b = a.clone();
        a.record_many(5, 40);
        for _ in 0..40 {
            b.record(5);
        }
        assert_eq!(a.estimate(5), b.estimate(5));
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn record_and_estimate_equals_record_then_queries() {
        // Depth 20 runs the median past the sorting network.
        for depth in [5usize, 20] {
            let mut fused = CountSketch::with_dimensions(16, depth, 23).unwrap();
            let mut split = fused.clone();
            let mut rng = StdRng::seed_from_u64(5);
            for step in 0..3_000 {
                let id = rng.gen_range(0..80u64);
                let (est, floor) = fused.record_and_estimate(id);
                split.record(id);
                assert_eq!(est, split.estimate(id), "depth {depth}, estimate at step {step}");
                assert_eq!(floor, split.floor_estimate(), "depth {depth}, floor at step {step}");
            }
            assert_eq!(fused.total(), split.total());
        }
    }

    #[test]
    fn rowwise_reference_matches_chunked_record_and_estimate() {
        // Depths 1..=16 each run their own kernel instantiation; 17..=20
        // run the slice fallback and the quickselect median.
        for depth in 1..=20usize {
            for family in [HashFamilyKind::Mersenne, HashFamilyKind::MultiplyShift] {
                let case = format!("depth {depth}, {family:?}");
                let mut kernel =
                    CountSketch::with_dimensions_family(16, depth, 7 + depth as u64, family)
                        .unwrap();
                let mut rowwise = kernel.clone();
                let mut rng = StdRng::seed_from_u64(43 + depth as u64);
                for step in 0..600 {
                    let id = rng.gen_range(0..96u64);
                    match step % 8 {
                        3 => {
                            let count = rng.gen_range(1..5u64);
                            kernel.record_many(id, count);
                            rowwise.record_many_rowwise(id, count);
                        }
                        7 => {
                            let len = rng.gen_range(0..6usize);
                            let batch: Vec<u64> = (0..len).map(|_| rng.gen_range(0..96)).collect();
                            kernel.record_unfloored(&batch);
                            for &id in &batch {
                                rowwise.record_many_rowwise(id, 1);
                            }
                        }
                        _ => assert_eq!(
                            kernel.record_and_estimate(id),
                            rowwise.record_and_estimate_rowwise(id),
                            "step {step}, {case}"
                        ),
                    }
                    let probe = rng.gen_range(0..128u64);
                    assert_eq!(
                        kernel.point_query(probe),
                        rowwise.point_query_rowwise(probe),
                        "query at step {step}, {case}"
                    );
                    assert_eq!(
                        kernel.floor_estimate(),
                        rowwise.floor_estimate(),
                        "floor at step {step}, {case}"
                    );
                }
                assert_eq!(kernel.cells(), rowwise.cells(), "{case}");
                assert_eq!(kernel.total(), rowwise.total(), "{case}");
            }
        }
    }

    #[test]
    fn record_unfloored_matches_elementwise_record() {
        let mut batched = CountSketch::with_dimensions(16, 5, 31).unwrap();
        let mut elementwise = batched.clone();
        let mut rng = StdRng::seed_from_u64(13);
        for batch_len in [0usize, 1, 7, 100, 1000] {
            let ids: Vec<u64> = (0..batch_len).map(|_| rng.gen_range(0..64u64)).collect();
            batched.record_unfloored(&ids);
            for &id in &ids {
                elementwise.record(id);
            }
            assert_eq!(batched.total(), elementwise.total());
            assert_eq!(batched.floor_estimate(), elementwise.floor_estimate());
            for row in 0..elementwise.depth() {
                assert_eq!(batched.row(row), elementwise.row(row), "row {row}");
            }
        }
        // Fused queries after a batch agree too.
        let (est, floor) = batched.record_and_estimate(3);
        let (est2, floor2) = elementwise.record_and_estimate(3);
        assert_eq!((est, floor), (est2, floor2));
    }

    #[test]
    fn from_parts_round_trips_and_stays_bit_equal() {
        let mut original = CountSketch::with_dimensions(24, 5, 17).unwrap();
        let mut rng = StdRng::seed_from_u64(27);
        for _ in 0..3_000 {
            original.record(rng.gen_range(0..200u64));
        }
        let restored = CountSketch::from_parts(
            original.width(),
            original.depth(),
            original.seed(),
            original.total(),
            original.cells().to_vec(),
        )
        .unwrap();
        assert_eq!(restored.cells(), original.cells());
        assert_eq!(restored.total(), original.total());
        assert_eq!(restored.floor_estimate(), original.floor_estimate());
        // Bit-equal going forward: fused queries agree on further traffic.
        let mut restored = restored;
        for id in 0..500u64 {
            assert_eq!(restored.record_and_estimate(id), original.record_and_estimate(id));
        }
    }

    #[test]
    fn from_parts_rejects_wrong_cell_count() {
        assert!(matches!(
            CountSketch::from_parts(4, 2, 1, 0, vec![0; 7]),
            Err(SketchError::CellCountMismatch { expected: 8, got: 7 })
        ));
        assert!(matches!(CountSketch::from_parts(0, 2, 1, 0, vec![]), Err(SketchError::ZeroWidth)));
    }

    #[test]
    fn merge_matches_concatenation() {
        let mut left = CountSketch::with_dimensions(32, 5, 9).unwrap();
        let mut right = CountSketch::with_dimensions(32, 5, 9).unwrap();
        let mut whole = CountSketch::with_dimensions(32, 5, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..1_000 {
            let id = rng.gen_range(0..50u64);
            left.record(id);
            whole.record(id);
        }
        for _ in 0..1_000 {
            let id = rng.gen_range(0..50u64);
            right.record(id);
            whole.record(id);
        }
        left.merge(&right).unwrap();
        for id in 0..50u64 {
            assert_eq!(left.estimate(id), whole.estimate(id));
        }
    }

    #[test]
    fn merge_rejects_mismatched_seed() {
        let mut a = CountSketch::with_dimensions(16, 3, 1).unwrap();
        let b = CountSketch::with_dimensions(16, 3, 2).unwrap();
        assert!(matches!(a.merge(&b), Err(SketchError::IncompatibleSketches { .. })));
    }

    #[test]
    fn even_depth_median_is_supported() {
        // Even depths on the sorting network (4, 10, 16) and past it (18, 20).
        for depth in [4usize, 10, 16, 18, 20] {
            let mut sketch = CountSketch::with_dimensions(64, depth, 12).unwrap();
            for _ in 0..200 {
                sketch.record(7);
            }
            let est = sketch.estimate(7);
            assert!((150..=250).contains(&est), "depth {depth}: even-depth estimate {est}");
        }
    }

    #[test]
    fn mersenne_family_constructor_is_bit_equal_to_default() {
        let mut a = CountSketch::with_dimensions(48, 5, 99).unwrap();
        let mut b =
            CountSketch::with_dimensions_family(48, 5, 99, HashFamilyKind::Mersenne).unwrap();
        assert_eq!(b.family(), HashFamilyKind::Mersenne);
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..2_000 {
            let id = rng.gen_range(0..400u64);
            assert_eq!(a.record_and_estimate(id), b.record_and_estimate(id));
        }
        assert_eq!(a.cells(), b.cells());
    }

    #[test]
    fn multiply_shift_sketch_upholds_the_count_sketch_contract() {
        let mut fused =
            CountSketch::with_dimensions_family(32, 5, 7, HashFamilyKind::MultiplyShift).unwrap();
        assert_eq!(fused.family(), HashFamilyKind::MultiplyShift);
        let mut split = fused.clone();
        let mut rowwise = fused.clone();
        let mut rng = StdRng::seed_from_u64(21);
        for step in 0..3_000 {
            let id = rng.gen_range(0..120u64);
            let fused_out = fused.record_and_estimate(id);
            split.record(id);
            assert_eq!(fused_out, (split.estimate(id), split.floor_estimate()), "step {step}");
            assert_eq!(fused_out, rowwise.record_and_estimate_rowwise(id), "step {step}");
        }
        assert_eq!(fused.cells(), split.cells());
        assert_eq!(fused.cells(), rowwise.cells());
        // The heavy hitter still dominates its estimate under the new family.
        for _ in 0..5_000 {
            fused.record(7_777);
        }
        let est = fused.estimate(7_777) as f64;
        assert!((est - 5_000.0).abs() < 600.0, "multiply-shift estimate {est} too far from 5000");
    }

    #[test]
    fn multiply_shift_from_parts_round_trips() {
        let mut original =
            CountSketch::with_dimensions_family(24, 5, 17, HashFamilyKind::MultiplyShift).unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..2_000 {
            original.record(rng.gen_range(0..200u64));
        }
        let mut restored = CountSketch::from_parts_family(
            original.width(),
            original.depth(),
            original.seed(),
            original.family(),
            original.total(),
            original.cells().to_vec(),
        )
        .unwrap();
        assert_eq!(restored.family(), HashFamilyKind::MultiplyShift);
        assert_eq!(restored.cells(), original.cells());
        for id in 0..500u64 {
            assert_eq!(restored.record_and_estimate(id), original.record_and_estimate(id));
        }
    }

    #[test]
    fn families_do_not_merge_across_each_other() {
        let mut mersenne =
            CountSketch::with_dimensions_family(16, 3, 5, HashFamilyKind::Mersenne).unwrap();
        let shifted =
            CountSketch::with_dimensions_family(16, 3, 5, HashFamilyKind::MultiplyShift).unwrap();
        assert!(matches!(mersenne.merge(&shifted), Err(SketchError::IncompatibleSketches { .. })));
    }

    #[test]
    fn memory_cells_is_the_counter_matrix() {
        let mut sketch = CountSketch::with_dimensions(64, 4, 1).unwrap();
        assert_eq!(sketch.memory_cells(), 64 * 4);
        sketch.record(9);
        let _ = sketch.record_and_estimate(9);
        assert_eq!(sketch.memory_cells(), 64 * 4);
    }

    #[test]
    fn estimate_never_negative_and_clear_resets() {
        let mut sketch = CountSketch::with_dimensions(8, 3, 2).unwrap();
        for id in 0..100u64 {
            sketch.record(id);
        }
        // Even for ids never recorded, the clamp keeps estimates >= 0 (u64).
        let _ = sketch.estimate(123_456);
        sketch.clear();
        assert_eq!(sketch.total(), 0);
        assert_eq!(sketch.estimate(0), 0);
        assert_eq!(sketch.floor_estimate(), 0);
        assert_eq!(sketch.width(), 8);
        assert_eq!(sketch.depth(), 3);
        assert_eq!(sketch.seed(), 2);
    }
}
