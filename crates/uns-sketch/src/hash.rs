//! 2-universal (Carter–Wegman) hash functions over the Mersenne prime
//! `p = 2^61 − 1`.
//!
//! The paper (§III-D) requires a family `H` of hash functions
//! `h : [M] → [M']` such that for every pair of distinct items `x ≠ y`,
//! `P{h(x) = h(y)} ≤ 1/M'`. The classic construction is
//!
//! ```text
//! h_{a,b}(x) = ((a·x + b) mod p) mod M'
//! ```
//!
//! with `p` prime, `a ∈ [1, p−1]` and `b ∈ [0, p−1]` drawn uniformly at
//! random. Working modulo the Mersenne prime `2^61 − 1` lets the reduction be
//! done with shifts and masks instead of divisions.
//!
//! # Division-free range reduction
//!
//! The textbook construction ends in `… mod M'`, a 64-bit integer division —
//! by far the most expensive instruction on the per-element hot path (the
//! paper's §III-A requires the per-element cost to be low enough to "keep
//! pace with the data stream"). [`UniversalHash::hash`] instead maps the
//! field value `v ∈ [0, p)` into `[0, M')` with Lemire's multiply-shift
//! *fast range reduction*:
//!
//! ```text
//! bucket = (v · M') >> 61          (128-bit product, high bits)
//! ```
//!
//! which partitions `[0, p)` into `M'` contiguous intervals exactly as
//! `mod M'` partitions it into `M'` residue classes. Either way the `M'`
//! preimage sets differ in size by at most one (⌊p/M'⌋ vs ⌈p/M'⌉), so the
//! mapping bias is the same negligible `O(M'/p)` term — with `p = 2^61 − 1`
//! and the paper's `M' ≤ 10³`, under `2^{-51}` — and the family keeps its
//! 2-universal collision bound `P{h(x) = h(y)} ≤ (1/M')(1 + M'/p)`. The
//! statistical tests below assert the bound empirically against the
//! multiply-shift implementation.
//!
//! Inputs already below `p` (every identifier in the paper's experiments)
//! skip the pre-fold entirely; [`UniversalHash::fold61`] is exposed so
//! multi-row sketches can fold an identifier **once** and evaluate all `s`
//! row functions on the folded value via [`UniversalHash::hash_folded`]
//! (buffered variant: [`UniversalHash::hash_rows`]).
//!
//! The random coefficients are the *local random coins* the paper's adversary
//! is denied access to (§III-B): an adversary who knows the algorithm but not
//! `(a, b)` cannot predict which sketch column an identifier lands in.

use crate::error::SketchError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Mersenne prime `2^61 − 1` used as the field modulus.
pub const MERSENNE_PRIME_61: u64 = (1 << 61) - 1;

/// Which hash family a sketch draws its row functions from.
///
/// The two families trade guarantee strength for per-element cost:
///
/// * [`HashFamilyKind::Mersenne`] — the Carter–Wegman construction over
///   `p = 2^61 − 1` ([`UniversalHash`]), exactly 2-universal:
///   `P{h(x) = h(y)} ≤ (1/M')(1 + M'/p)`. This is the family the paper
///   assumes (§III-D) and the default everywhere.
/// * [`HashFamilyKind::MultiplyShift`] — Dietzfelbinger's multiply-shift
///   scheme ([`MultiplyShiftHash`]), only 2-**approximately** universal:
///   `P{h(x) = h(y)} ≤ 2/M'` (a factor-2 weaker bound), but one wrapping
///   multiply-add per row instead of a field reduction.
///
/// Sketches built from different families (or the same family with
/// different seeds) are not mergeable; [`HashFamilyKind`] is part of every
/// compatibility check, snapshot and wire encoding that carries a seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HashFamilyKind {
    /// Carter–Wegman 2-universal hashing modulo `2^61 − 1` (the default).
    #[default]
    Mersenne,
    /// Dietzfelbinger multiply-shift, 2-approximately universal.
    MultiplyShift,
}

impl HashFamilyKind {
    /// Stable one-byte tag for wire and snapshot encodings.
    pub fn to_u8(self) -> u8 {
        match self {
            HashFamilyKind::Mersenne => 0,
            HashFamilyKind::MultiplyShift => 1,
        }
    }

    /// Parses a [`HashFamilyKind::to_u8`] tag; `None` on an unknown tag.
    pub fn from_u8(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(HashFamilyKind::Mersenne),
            1 => Some(HashFamilyKind::MultiplyShift),
            _ => None,
        }
    }

    /// The family's shared per-element preparation step, hoisted out of the
    /// per-row loop: Mersenne rows fold the identifier into the field once
    /// ([`UniversalHash::fold61`]); multiply-shift rows consume the raw
    /// identifier. The returned value is what [`RowHash::eval_prepared`]
    /// expects — prepared values and row functions must come from the same
    /// family.
    #[inline]
    pub fn prepare(self, x: u64) -> u64 {
        match self {
            HashFamilyKind::Mersenne => UniversalHash::fold61(x),
            HashFamilyKind::MultiplyShift => x,
        }
    }
}

/// A single multiply-shift hash function
/// `h_{a,b}(x) = high bits of (a·x + b mod 2^64)` mapped into `[0, range)`.
///
/// This is Dietzfelbinger's scheme: with `a` odd and `b` drawn uniformly
/// from `[0, 2^64)`, the family is **2-approximately universal** —
/// `P{h(x) = h(y)} ≤ 2/range` for `x ≠ y`, a factor 2 above the exact
/// `1/range` of [`UniversalHash`] — using one wrapping multiply-add where
/// the Carter–Wegman row needs a 128-bit product plus a field reduction.
/// The bucket is taken from the *high* bits of the 64-bit product state
/// (`(v·range) >> 64`, the same Lemire fast-range step the Mersenne rows
/// end with), because the low bits of `a·x + b` are the weakly mixed ones.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use uns_sketch::hash::MultiplyShiftHash;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let h = MultiplyShiftHash::sample(&mut rng, 64).unwrap();
/// let bucket = h.hash(123456789);
/// assert!(bucket < 64);
/// assert_eq!(bucket, h.hash(123456789));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MultiplyShiftHash {
    /// Odd multiplier.
    a: u64,
    /// Offset.
    b: u64,
    range: u64,
}

impl MultiplyShiftHash {
    /// Draws a function uniformly from the family (odd `a`, arbitrary `b`),
    /// mapping into `[0, range)`.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::ZeroHashRange`] if `range == 0`.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, range: u64) -> Result<Self, SketchError> {
        if range == 0 {
            return Err(SketchError::ZeroHashRange);
        }
        let a = rng.gen::<u64>() | 1;
        let b = rng.gen::<u64>();
        Ok(Self { a, b, range })
    }

    /// Builds a function from explicit coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidHashCoefficient`] if `a` is even and
    /// [`SketchError::ZeroHashRange`] if `range == 0`.
    pub fn from_coefficients(a: u64, b: u64, range: u64) -> Result<Self, SketchError> {
        if a & 1 == 0 {
            return Err(SketchError::InvalidHashCoefficient {
                value: a,
                constraint: "multiply-shift multiplier a must be odd",
            });
        }
        if range == 0 {
            return Err(SketchError::ZeroHashRange);
        }
        Ok(Self { a, b, range })
    }

    /// Hashes `x` into `[0, range)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let v = self.a.wrapping_mul(x).wrapping_add(self.b);
        ((v as u128 * self.range as u128) >> 64) as u64
    }

    /// Returns the size of the output range `M'`.
    #[inline]
    pub fn range(&self) -> u64 {
        self.range
    }
}

/// One sketch row's hash function, from whichever family the sketch was
/// built with ([`HashFamilyKind`]).
///
/// The per-element pattern shared by every multi-row sketch is: prepare the
/// identifier once for the family ([`HashFamilyKind::prepare`]), then
/// evaluate each row via [`RowHash::eval_prepared`]. For the Mersenne
/// family that is exactly the historical `fold61` + `hash_folded` pair, bit
/// for bit; for multiply-shift the preparation is the identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RowHash {
    /// A Carter–Wegman row over the Mersenne field.
    Mersenne(UniversalHash),
    /// A Dietzfelbinger multiply-shift row.
    MultiplyShift(MultiplyShiftHash),
}

impl RowHash {
    /// The family this row was drawn from.
    #[inline]
    pub fn kind(&self) -> HashFamilyKind {
        match self {
            RowHash::Mersenne(_) => HashFamilyKind::Mersenne,
            RowHash::MultiplyShift(_) => HashFamilyKind::MultiplyShift,
        }
    }

    /// Hashes `x` into `[0, range)` without a shared preparation step.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        match self {
            RowHash::Mersenne(h) => h.hash(x),
            RowHash::MultiplyShift(h) => h.hash(x),
        }
    }

    /// Evaluates the row on a value prepared by the *same* family's
    /// [`HashFamilyKind::prepare`].
    #[inline]
    pub fn eval_prepared(&self, prepared: u64) -> u64 {
        match self {
            RowHash::Mersenne(h) => h.hash_folded(prepared),
            RowHash::MultiplyShift(h) => h.hash(prepared),
        }
    }

    /// Returns the size of the output range `M'`.
    #[inline]
    pub fn range(&self) -> u64 {
        match self {
            RowHash::Mersenne(h) => h.range(),
            RowHash::MultiplyShift(h) => h.range(),
        }
    }
}

/// The monomorphic per-row contract behind [`RowHash`]: evaluate on an
/// identifier the family has prepared once per element.
///
/// The sketches store their rows as concrete `Vec<UniversalHash>` /
/// `Vec<MultiplyShiftHash>` (one variant of the crate-internal
/// `FamilyRowHashes`) and instantiate their record loops once per
/// implementor of this trait, so the per-row evaluation — `s` of them per
/// stream element, the innermost operation of every sketch — compiles to
/// straight-line arithmetic with no enum dispatch inside the loop.
/// [`RowHash::eval_prepared`] is the dynamic per-row form of the same
/// contract, kept for callers that hold mixed-family rows.
pub trait PreparedRowHash {
    /// The family's shared per-element preparation, the associated-function
    /// form of [`HashFamilyKind::prepare`]: [`UniversalHash::fold61`] for
    /// Mersenne rows, the identity for multiply-shift rows.
    fn prepare(x: u64) -> u64;

    /// Evaluates the row on a value prepared by
    /// [`PreparedRowHash::prepare`] of the *same* implementor.
    fn eval_prepared(&self, prepared: u64) -> u64;
}

impl PreparedRowHash for UniversalHash {
    #[inline]
    fn prepare(x: u64) -> u64 {
        Self::fold61(x)
    }

    #[inline]
    fn eval_prepared(&self, prepared: u64) -> u64 {
        self.hash_folded(prepared)
    }
}

impl PreparedRowHash for MultiplyShiftHash {
    #[inline]
    fn prepare(x: u64) -> u64 {
        x
    }

    #[inline]
    fn eval_prepared(&self, prepared: u64) -> u64 {
        self.hash(prepared)
    }
}

/// A sketch's per-row functions stored monomorphically per family, so hot
/// record paths select the family **once per call** (`with_family_rows!`)
/// and run enum-free inner loops. Row for row identical to the
/// [`HashFamily::row_hashes`] draw of the same `(seed, kind)`.
#[derive(Clone, Debug)]
pub(crate) enum FamilyRowHashes {
    /// Carter–Wegman rows over the Mersenne field.
    Mersenne(Vec<UniversalHash>),
    /// Dietzfelbinger multiply-shift rows.
    MultiplyShift(Vec<MultiplyShiftHash>),
}

impl FamilyRowHashes {
    /// Evaluates row `row` on a family-prepared value — the per-row-dispatch
    /// form used by the rolled references the kernels are tested against;
    /// the kernels go through `with_family_rows!` instead.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[cfg(test)]
    pub(crate) fn eval_row(&self, row: usize, prepared: u64) -> u64 {
        match self {
            FamilyRowHashes::Mersenne(rows) => rows[row].eval_prepared(prepared),
            FamilyRowHashes::MultiplyShift(rows) => rows[row].eval_prepared(prepared),
        }
    }
}

/// Substitutes the matching monomorphic row vector of a [`FamilyRowHashes`]
/// into `$body` — the family match happens once per invocation, and `$body`
/// compiles separately per family with no dispatch inside.
macro_rules! with_family_rows {
    ($rows:expr, $r:ident => $body:expr) => {
        match $rows {
            $crate::hash::FamilyRowHashes::Mersenne($r) => $body,
            $crate::hash::FamilyRowHashes::MultiplyShift($r) => $body,
        }
    };
}
pub(crate) use with_family_rows;

/// Reduces `x` modulo the Mersenne prime `2^61 − 1` using shift/mask folding.
///
/// Folding `x = hi·2^61 + lo` into `hi + lo` preserves the residue because
/// `2^61 ≡ 1 (mod p)`. Two folds bring any 128-bit value below `2^62`, after
/// which at most two conditional subtractions remain.
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn reduce_mersenne(mut x: u128) -> u64 {
    const P: u128 = MERSENNE_PRIME_61 as u128;
    // Each fold removes ~61 bits; 128-bit input needs at most two folds to
    // drop below 2^62.
    x = (x & P) + (x >> 61);
    x = (x & P) + (x >> 61);
    let mut r = x as u64;
    while r >= MERSENNE_PRIME_61 {
        r -= MERSENNE_PRIME_61;
    }
    r
}

/// A single 2-universal hash function `h_{a,b}(x) = ((a·x + b) mod p) mod range`.
///
/// Instances are cheap to copy (three words). Functions drawn from the same
/// seed are identical, which is what makes two sketches mergeable.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use uns_sketch::UniversalHash;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let h = UniversalHash::sample(&mut rng, 64).unwrap();
/// let bucket = h.hash(123456789);
/// assert!(bucket < 64);
/// // Deterministic: hashing the same input twice gives the same bucket.
/// assert_eq!(bucket, h.hash(123456789));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UniversalHash {
    a: u64,
    b: u64,
    range: u64,
}

impl UniversalHash {
    /// Draws a hash function uniformly from the family, mapping into
    /// `[0, range)`.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::ZeroHashRange`] if `range == 0`.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, range: u64) -> Result<Self, SketchError> {
        if range == 0 {
            return Err(SketchError::ZeroHashRange);
        }
        let a = rng.gen_range(1..MERSENNE_PRIME_61);
        let b = rng.gen_range(0..MERSENNE_PRIME_61);
        Ok(Self { a, b, range })
    }

    /// Builds a hash function from explicit coefficients.
    ///
    /// Mostly useful in tests and for reproducing a specific configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidHashCoefficient`] unless
    /// `1 ≤ a < p` and `b < p`, and [`SketchError::ZeroHashRange`] if
    /// `range == 0`.
    pub fn from_coefficients(a: u64, b: u64, range: u64) -> Result<Self, SketchError> {
        if a == 0 || a >= MERSENNE_PRIME_61 {
            return Err(SketchError::InvalidHashCoefficient {
                value: a,
                constraint: "multiplier a must satisfy 1 <= a < 2^61 - 1",
            });
        }
        if b >= MERSENNE_PRIME_61 {
            return Err(SketchError::InvalidHashCoefficient {
                value: b,
                constraint: "offset b must satisfy b < 2^61 - 1",
            });
        }
        if range == 0 {
            return Err(SketchError::ZeroHashRange);
        }
        Ok(Self { a, b, range })
    }

    /// Hashes `x` into `[0, range)`.
    ///
    /// Identifiers already below `2^61 − 1` (all of them, in practice) skip
    /// the field fold; the final range reduction is a multiply-shift, not a
    /// division (see the module docs).
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        self.hash_folded(Self::fold61(x))
    }

    /// Reduces an arbitrary identifier into the field `[0, 2^61 − 1)`.
    ///
    /// This is the shared first step of every row function: callers hashing
    /// the same `x` under several functions (a multi-row sketch) should fold
    /// once and use [`UniversalHash::hash_folded`] per row.
    #[inline]
    pub fn fold61(x: u64) -> u64 {
        if x < MERSENNE_PRIME_61 {
            return x;
        }
        // One fold brings a u64 below 2^61 + 8; at most one subtraction left.
        let mut r = (x & MERSENNE_PRIME_61) + (x >> 61);
        if r >= MERSENNE_PRIME_61 {
            r -= MERSENNE_PRIME_61;
        }
        r
    }

    /// Hashes a value already folded into `[0, 2^61 − 1)` — the per-row step
    /// of the precomputed-fold path.
    ///
    /// The reduction is hand-split into 64-bit halves instead of going
    /// through `reduce_mersenne`'s generic 128-bit folds: with
    /// `2^64 ≡ 8 (mod p)`, the product's high word folds in as `hi · 8`
    /// (one shift — `hi < 2^58`, so it cannot overflow), the low word as
    /// the usual mask/shift split, and `b` rides the same addition. One
    /// more fold plus a single conditional subtraction lands on the
    /// canonical representative, so the result is **bit-identical** to the
    /// generic path (pinned by a test) with a dependency chain about a
    /// third shorter — this is the innermost operation of every sketch
    /// row, `s` times per stream element.
    #[inline]
    pub fn hash_folded(&self, folded: u64) -> u64 {
        debug_assert!(folded < MERSENNE_PRIME_61, "input {folded} not folded");
        let product = self.a as u128 * folded as u128;
        let (lo, hi) = (product as u64, (product >> 64) as u64);
        // Sum of four terms each below 2^61: no u64 overflow possible.
        let t = (lo & MERSENNE_PRIME_61) + (lo >> 61) + (hi << 3) + self.b;
        // t < 2^63, so t >> 61 ≤ 3 and one fold + one subtraction suffice.
        let mut v = (t & MERSENNE_PRIME_61) + (t >> 61);
        if v >= MERSENNE_PRIME_61 {
            v -= MERSENNE_PRIME_61;
        }
        // Lemire fast range: v ∈ [0, 2^61) mapped by its high bits.
        ((v as u128 * self.range as u128) >> 61) as u64
    }

    /// Evaluates every function in `functions` on `x`, sharing the fold,
    /// and appends the bucket indices to `out` (not cleared first).
    ///
    /// Public convenience for external multi-row users: the caller owns the
    /// scratch buffer, so a steady-state loop never allocates. The sketches
    /// in this crate inline the same pattern ([`UniversalHash::fold61`] once,
    /// then [`UniversalHash::hash_folded`] per row) without a buffer, since
    /// they consume each index as it is produced.
    #[inline]
    pub fn hash_rows(functions: &[Self], x: u64, out: &mut Vec<u64>) {
        let folded = Self::fold61(x);
        out.extend(functions.iter().map(|h| h.hash_folded(folded)));
    }

    /// Returns the size of the output range `M'`.
    #[inline]
    pub fn range(&self) -> u64 {
        self.range
    }
}

/// A reproducible family of independent hash functions.
///
/// All functions are derived from a single 64-bit seed, so two sketches built
/// from the same seed share identical hash functions and can be merged
/// (counter-wise added) exactly — the property used to combine sketches from
/// sub-streams.
///
/// The family draws from one of two constructions (see [`HashFamilyKind`]):
/// Carter–Wegman rows are exactly 2-universal
/// (`P{h(x) = h(y)} ≤ (1/M')(1 + M'/p)`); multiply-shift rows are only
/// 2-**approximately** universal (`P{h(x) = h(y)} ≤ 2/M'`), trading the
/// factor-2 weaker collision bound for a cheaper per-element evaluation.
/// [`HashFamily::new`] always selects Carter–Wegman, keeping every
/// pre-family seed bit-compatible.
///
/// # Example
///
/// ```
/// use uns_sketch::HashFamily;
///
/// let family = HashFamily::new(99);
/// let row_hashes = family.functions(4, 32).unwrap();
/// assert_eq!(row_hashes.len(), 4);
/// // Same seed, same functions:
/// assert_eq!(row_hashes, HashFamily::new(99).functions(4, 32).unwrap());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashFamily {
    seed: u64,
    kind: HashFamilyKind,
}

impl HashFamily {
    /// Creates a family deterministically derived from `seed`, drawing
    /// Carter–Wegman functions ([`HashFamilyKind::Mersenne`]) — the
    /// historical default, bit-compatible with every pre-family seed.
    pub fn new(seed: u64) -> Self {
        Self::with_kind(seed, HashFamilyKind::Mersenne)
    }

    /// Creates a family deterministically derived from `seed` drawing from
    /// the given [`HashFamilyKind`].
    pub fn with_kind(seed: u64, kind: HashFamilyKind) -> Self {
        Self { seed, kind }
    }

    /// Returns the seed this family was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns which hash family the functions are drawn from.
    pub fn kind(&self) -> HashFamilyKind {
        self.kind
    }

    /// Draws `count` independent row functions mapping into `[0, range)`
    /// from the family's [`HashFamilyKind`].
    ///
    /// For [`HashFamilyKind::Mersenne`] the rows are exactly
    /// [`HashFamily::functions`] wrapped in [`RowHash::Mersenne`] — same
    /// seed, same coefficients, bit for bit — so pre-family sketches
    /// rebuild identically through this entry point.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::ZeroHashRange`] if `range == 0`.
    pub fn row_hashes(&self, count: usize, range: u64) -> Result<Vec<RowHash>, SketchError> {
        match self.kind {
            HashFamilyKind::Mersenne => {
                Ok(self.functions(count, range)?.into_iter().map(RowHash::Mersenne).collect())
            }
            HashFamilyKind::MultiplyShift => {
                let mut rng = StdRng::seed_from_u64(self.seed);
                (0..count)
                    .map(|_| MultiplyShiftHash::sample(&mut rng, range).map(RowHash::MultiplyShift))
                    .collect()
            }
        }
    }

    /// [`HashFamily::row_hashes`] in the monomorphic storage form the
    /// sketches keep internally — same seed, same coefficients, row for row
    /// (pinned by a test), just without the per-row [`RowHash`] wrapper.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::ZeroHashRange`] if `range == 0`.
    pub(crate) fn family_rows(
        &self,
        count: usize,
        range: u64,
    ) -> Result<FamilyRowHashes, SketchError> {
        match self.kind {
            HashFamilyKind::Mersenne => {
                Ok(FamilyRowHashes::Mersenne(self.functions(count, range)?))
            }
            HashFamilyKind::MultiplyShift => {
                let mut rng = StdRng::seed_from_u64(self.seed);
                Ok(FamilyRowHashes::MultiplyShift(
                    (0..count)
                        .map(|_| MultiplyShiftHash::sample(&mut rng, range))
                        .collect::<Result<_, _>>()?,
                ))
            }
        }
    }

    /// Draws `count` independent functions mapping into `[0, range)`.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::ZeroHashRange`] if `range == 0`.
    pub fn functions(&self, count: usize, range: u64) -> Result<Vec<UniversalHash>, SketchError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..count).map(|_| UniversalHash::sample(&mut rng, range)).collect()
    }

    /// Draws a pair of function vectors (bucket functions and sign functions)
    /// as required by the Count sketch.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::ZeroHashRange`] if `range == 0`.
    pub fn function_pairs(
        &self,
        count: usize,
        range: u64,
    ) -> Result<(Vec<UniversalHash>, Vec<UniversalHash>), SketchError> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let buckets: Vec<UniversalHash> =
            (0..count).map(|_| UniversalHash::sample(&mut rng, range)).collect::<Result<_, _>>()?;
        let signs: Vec<UniversalHash> =
            (0..count).map(|_| UniversalHash::sample(&mut rng, 2)).collect::<Result<_, _>>()?;
        Ok((buckets, signs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn reduce_handles_boundaries() {
        assert_eq!(reduce_mersenne(0), 0);
        assert_eq!(reduce_mersenne(MERSENNE_PRIME_61 as u128), 0);
        assert_eq!(reduce_mersenne(MERSENNE_PRIME_61 as u128 + 1), 1);
        assert_eq!(reduce_mersenne(u128::MAX), (u128::MAX % MERSENNE_PRIME_61 as u128) as u64);
        // Cross-check folding against the naive remainder on a spread of values.
        for x in [1u128, 2, 1 << 60, 1 << 61, 1 << 62, (1 << 61) - 2, u64::MAX as u128] {
            assert_eq!(reduce_mersenne(x), (x % MERSENNE_PRIME_61 as u128) as u64, "x = {x}");
        }
    }

    #[test]
    fn hash_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for range in [1u64, 2, 7, 64, 1000] {
            let h = UniversalHash::sample(&mut rng, range).unwrap();
            for x in 0..2000u64 {
                assert!(h.hash(x) < range);
            }
            assert!(h.hash(u64::MAX) < range);
        }
    }

    #[test]
    fn range_one_maps_everything_to_zero() {
        let h = UniversalHash::from_coefficients(17, 5, 1).unwrap();
        assert_eq!(h.hash(0), 0);
        assert_eq!(h.hash(u64::MAX), 0);
    }

    #[test]
    fn invalid_coefficients_are_rejected() {
        assert!(matches!(
            UniversalHash::from_coefficients(0, 0, 8),
            Err(SketchError::InvalidHashCoefficient { .. })
        ));
        assert!(matches!(
            UniversalHash::from_coefficients(MERSENNE_PRIME_61, 0, 8),
            Err(SketchError::InvalidHashCoefficient { .. })
        ));
        assert!(matches!(
            UniversalHash::from_coefficients(1, MERSENNE_PRIME_61, 8),
            Err(SketchError::InvalidHashCoefficient { .. })
        ));
        assert_eq!(UniversalHash::from_coefficients(1, 0, 0), Err(SketchError::ZeroHashRange));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(UniversalHash::sample(&mut rng, 0).unwrap_err(), SketchError::ZeroHashRange);
    }

    #[test]
    fn family_is_deterministic_per_seed_and_distinct_across_seeds() {
        let f1 = HashFamily::new(10).functions(8, 128).unwrap();
        let f2 = HashFamily::new(10).functions(8, 128).unwrap();
        let f3 = HashFamily::new(11).functions(8, 128).unwrap();
        assert_eq!(f1, f2);
        assert_ne!(f1, f3);
        assert_eq!(HashFamily::new(10).seed(), 10);
    }

    #[test]
    fn empirical_collision_probability_is_near_two_universal_bound() {
        // Estimate P{h(x) = h(y)} over random function draws for a fixed pair
        // (x, y); 2-universality demands it be at most ~1/range.
        let range = 32u64;
        let trials = 20_000u64;
        let mut rng = StdRng::seed_from_u64(42);
        let mut collisions = 0u64;
        for _ in 0..trials {
            let h = UniversalHash::sample(&mut rng, range).unwrap();
            if h.hash(123_456) == h.hash(987_654_321) {
                collisions += 1;
            }
        }
        let p = collisions as f64 / trials as f64;
        // Allow 40% slack over 1/range for sampling noise and the mod-range
        // non-uniformity of the Carter–Wegman construction.
        assert!(p < 1.4 / range as f64, "collision probability {p} too high");
    }

    #[test]
    fn buckets_are_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(5);
        let range = 16u64;
        let h = UniversalHash::sample(&mut rng, range).unwrap();
        let mut buckets: HashMap<u64, u64> = HashMap::new();
        let items = 16_000u64;
        for x in 0..items {
            *buckets.entry(h.hash(x)).or_insert(0) += 1;
        }
        let expected = items / range;
        for (bucket, count) in buckets {
            assert!(
                (count as f64 - expected as f64).abs() < expected as f64 * 0.5,
                "bucket {bucket} holds {count}, expected about {expected}"
            );
        }
    }

    #[test]
    fn fold61_matches_full_reduction() {
        for x in [
            0u64,
            1,
            MERSENNE_PRIME_61 - 1,
            MERSENNE_PRIME_61,
            MERSENNE_PRIME_61 + 1,
            1 << 62,
            u64::MAX,
        ] {
            assert_eq!(UniversalHash::fold61(x), reduce_mersenne(x as u128), "x = {x}");
        }
    }

    #[test]
    fn split_reduction_matches_generic_mersenne_reduction() {
        // The hand-split 64-bit reduction in hash_folded must be
        // bit-identical to the generic 128-bit path it replaced, for
        // random coefficients and inputs across the whole field.
        let mut rng = StdRng::seed_from_u64(321);
        use rand::Rng;
        for _ in 0..200 {
            let range = [1u64, 2, 7, 10, 64, 1000, 1 << 20][rng.gen_range(0..7)];
            let h = UniversalHash::sample(&mut rng, range).unwrap();
            for _ in 0..200 {
                let folded = rng.gen_range(0..MERSENNE_PRIME_61);
                let generic = {
                    let v = reduce_mersenne(h.a as u128 * folded as u128 + h.b as u128);
                    ((v as u128 * h.range as u128) >> 61) as u64
                };
                assert_eq!(h.hash_folded(folded), generic, "a={}, b={}, x={folded}", h.a, h.b);
            }
            // Field-edge inputs.
            for folded in [0, 1, MERSENNE_PRIME_61 - 2, MERSENNE_PRIME_61 - 1] {
                let v = reduce_mersenne(h.a as u128 * folded as u128 + h.b as u128);
                let generic = ((v as u128 * h.range as u128) >> 61) as u64;
                assert_eq!(h.hash_folded(folded), generic);
            }
        }
    }

    #[test]
    fn hash_rows_matches_per_function_hash() {
        let functions = HashFamily::new(21).functions(6, 40).unwrap();
        let mut out = Vec::new();
        for x in [0u64, 7, 123_456_789, MERSENNE_PRIME_61, u64::MAX] {
            out.clear();
            UniversalHash::hash_rows(&functions, x, &mut out);
            let expected: Vec<u64> = functions.iter().map(|h| h.hash(x)).collect();
            assert_eq!(out, expected, "x = {x}");
        }
    }

    /// The satellite check for the fast-range rewrite: the multiply-shift
    /// reduction must keep the empirical collision probability at the
    /// 2-universal bound across a spread of ranges, not just the one range
    /// `empirical_collision_probability_is_near_two_universal_bound` pins.
    #[test]
    fn fast_range_preserves_two_universal_bound_across_ranges() {
        let mut rng = StdRng::seed_from_u64(1234);
        for range in [2u64, 10, 17, 64, 1000] {
            let trials = 30_000u64;
            let mut collisions = 0u64;
            for _ in 0..trials {
                let h = UniversalHash::sample(&mut rng, range).unwrap();
                if h.hash(0xdead_beef) == h.hash(0x1234_5678_9abc_def0) {
                    collisions += 1;
                }
            }
            let p = collisions as f64 / trials as f64;
            assert!(
                p < 1.4 / range as f64 + 0.004,
                "range {range}: collision probability {p} above 2-universal bound"
            );
        }
    }

    #[test]
    fn sign_functions_are_roughly_balanced() {
        let (_, signs) = HashFamily::new(77).function_pairs(1, 64).unwrap();
        let sign = signs[0];
        let plus = (0..10_000u64).filter(|&x| sign.hash(x) == 1).count();
        assert!((4_000..6_000).contains(&plus), "unbalanced signs: {plus}/10000");
    }

    #[test]
    fn mersenne_row_hashes_are_bit_identical_to_functions() {
        // The back-compat contract of the family seam: a Mersenne family's
        // row_hashes() draws exactly the same coefficients as the historical
        // functions() path, so every pre-family seed rebuilds identically.
        for seed in [0u64, 10, 0xdead_beef] {
            let family = HashFamily::new(seed);
            assert_eq!(family.kind(), HashFamilyKind::Mersenne);
            let rows = family.row_hashes(6, 40).unwrap();
            let functions = family.functions(6, 40).unwrap();
            assert_eq!(rows.len(), functions.len());
            for (row, h) in rows.iter().zip(&functions) {
                assert_eq!(*row, RowHash::Mersenne(*h), "seed {seed}");
                for x in [0u64, 7, 123_456_789, MERSENNE_PRIME_61, u64::MAX] {
                    assert_eq!(row.hash(x), h.hash(x));
                    assert_eq!(
                        row.eval_prepared(HashFamilyKind::Mersenne.prepare(x)),
                        h.hash_folded(UniversalHash::fold61(x))
                    );
                }
            }
        }
    }

    #[test]
    fn multiply_shift_family_is_deterministic_and_in_range() {
        let family = HashFamily::with_kind(10, HashFamilyKind::MultiplyShift);
        assert_eq!(family.kind(), HashFamilyKind::MultiplyShift);
        let rows = family.row_hashes(8, 128).unwrap();
        let again = HashFamily::with_kind(10, HashFamilyKind::MultiplyShift);
        assert_eq!(rows, again.row_hashes(8, 128).unwrap());
        assert_ne!(
            rows,
            HashFamily::with_kind(11, HashFamilyKind::MultiplyShift).row_hashes(8, 128).unwrap()
        );
        for row in &rows {
            assert_eq!(row.kind(), HashFamilyKind::MultiplyShift);
            assert_eq!(row.range(), 128);
            for x in [0u64, 1, 7, 123_456_789, u64::MAX] {
                let bucket = row.hash(x);
                assert!(bucket < 128);
                // Multiply-shift preparation is the identity.
                assert_eq!(row.eval_prepared(HashFamilyKind::MultiplyShift.prepare(x)), bucket);
            }
        }
        assert!(matches!(family.row_hashes(2, 0), Err(SketchError::ZeroHashRange)));
    }

    #[test]
    fn family_rows_match_row_hashes_row_for_row() {
        // The monomorphic storage seam must draw exactly the rows of the
        // dynamic row_hashes() path for both families — the record hot
        // loops dispatch through the former, every compatibility and
        // restore contract is stated in terms of the latter.
        for kind in [HashFamilyKind::Mersenne, HashFamilyKind::MultiplyShift] {
            let family = HashFamily::with_kind(9, kind);
            let dynamic = family.row_hashes(7, 96).unwrap();
            let mono = family.family_rows(7, 96).unwrap();
            for (row, dyn_row) in dynamic.iter().enumerate() {
                for x in [0u64, 1, 7, 123_456_789, MERSENNE_PRIME_61, u64::MAX] {
                    let prepared = kind.prepare(x);
                    assert_eq!(
                        mono.eval_row(row, prepared),
                        dyn_row.eval_prepared(prepared),
                        "{kind:?} row {row} diverged on {x}"
                    );
                }
            }
        }
        assert!(matches!(
            HashFamily::with_kind(9, HashFamilyKind::MultiplyShift).family_rows(2, 0),
            Err(SketchError::ZeroHashRange)
        ));
    }

    #[test]
    fn prepared_row_hash_trait_matches_the_dynamic_forms() {
        // The trait the monomorphized loops are generic over must agree
        // with HashFamilyKind::prepare and RowHash::eval_prepared.
        let mut rng = StdRng::seed_from_u64(6);
        let mersenne = UniversalHash::sample(&mut rng, 200).unwrap();
        let shift = MultiplyShiftHash::sample(&mut rng, 200).unwrap();
        for x in [0u64, 1, 7, 123_456_789, MERSENNE_PRIME_61, u64::MAX] {
            assert_eq!(
                <UniversalHash as PreparedRowHash>::prepare(x),
                HashFamilyKind::Mersenne.prepare(x)
            );
            assert_eq!(
                <MultiplyShiftHash as PreparedRowHash>::prepare(x),
                HashFamilyKind::MultiplyShift.prepare(x)
            );
            let folded = UniversalHash::fold61(x);
            assert_eq!(
                PreparedRowHash::eval_prepared(&mersenne, folded),
                RowHash::Mersenne(mersenne).eval_prepared(folded)
            );
            assert_eq!(
                PreparedRowHash::eval_prepared(&shift, x),
                RowHash::MultiplyShift(shift).eval_prepared(x)
            );
        }
    }

    #[test]
    fn multiply_shift_rejects_even_multiplier_and_zero_range() {
        assert!(matches!(
            MultiplyShiftHash::from_coefficients(4, 0, 8),
            Err(SketchError::InvalidHashCoefficient { .. })
        ));
        assert_eq!(MultiplyShiftHash::from_coefficients(3, 0, 0), Err(SketchError::ZeroHashRange));
        let h = MultiplyShiftHash::from_coefficients(3, 9, 16).unwrap();
        assert_eq!(h.range(), 16);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(MultiplyShiftHash::sample(&mut rng, 0).unwrap_err(), SketchError::ZeroHashRange);
        for _ in 0..64 {
            let h = MultiplyShiftHash::sample(&mut rng, 32).unwrap();
            assert_eq!(h.a & 1, 1, "sampled multiplier must be odd");
        }
    }

    /// The satellite check for the multiply-shift family: the scheme is
    /// only 2-**approximately** universal, so the assertion mirrors
    /// `fast_range_preserves_two_universal_bound_across_ranges` but against
    /// the weaker `2/range` bound (Dietzfelbinger's `2/2^ℓ`), not the exact
    /// `1/range` of the Carter–Wegman family.
    #[test]
    fn multiply_shift_collision_probability_meets_approximate_bound() {
        let mut rng = StdRng::seed_from_u64(1234);
        for range in [2u64, 10, 17, 64, 1000] {
            let trials = 30_000u64;
            let mut collisions = 0u64;
            for _ in 0..trials {
                let h = MultiplyShiftHash::sample(&mut rng, range).unwrap();
                if h.hash(0xdead_beef) == h.hash(0x1234_5678_9abc_def0) {
                    collisions += 1;
                }
            }
            let p = collisions as f64 / trials as f64;
            assert!(
                p < 2.4 / range as f64 + 0.004,
                "range {range}: collision probability {p} above the 2-approximate bound"
            );
        }
    }
}
