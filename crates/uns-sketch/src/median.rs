//! The Count sketch's median-of-rows kernel.
//!
//! Every Count-sketch record and point query ends in the median of its `s`
//! signed row readings. Those readings are hash-scattered counters, so a
//! comparison sort over them branches on random data and mispredicts on
//! most comparisons. Up to [`MAX_FIXED_DEPTH`] rows the median is
//! instead read off a sorting network: a fixed, fully unrolled sequence of
//! compare-exchanges over a local array, each compiled to conditional moves
//! through [`std::hint::select_unpredictable`]. With no loop or branch
//! left, the optimizer can keep the array in registers and drop exchanges
//! whose outputs never reach the middle. Deeper sketches fall back to
//! [`slice::select_nth_unstable`].

use crate::depth::{by_depth, MAX_FIXED_DEPTH};
use std::hint::select_unpredictable;

/// The clamped median of `readings`: the middle reading for an odd count,
/// the midpoint of the two middle readings (rounded toward zero) for an
/// even one, clamped at zero because frequencies are non-negative. The
/// value equals that of sorting the readings; only counts above
/// [`MAX_FIXED_DEPTH`] reorder `readings`.
#[inline(always)]
pub(crate) fn clamped_median(readings: &mut [i64]) -> u64 {
    debug_assert!(!readings.is_empty(), "a sketch has at least one row");
    by_depth!(readings.len(), D => network_median::<D>(readings), _ => select_median(readings))
}

/// The clamped median of a sorted slice.
#[inline]
fn median_of_sorted(sorted: &[i64]) -> u64 {
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        // Round the midpoint average toward zero.
        (sorted[mid - 1] + sorted[mid]) / 2
    };
    median.max(0) as u64
}

/// [`clamped_median`] for exactly `D ≤ MAX_FIXED_DEPTH` readings.
#[inline]
fn network_median<const D: usize>(readings: &[i64]) -> u64 {
    let mut wires = [0i64; MAX_FIXED_DEPTH];
    wires[..D].copy_from_slice(readings);
    sort_first::<D>(&mut wires);
    median_of_sorted(&wires[..D])
}

/// [`clamped_median`] past the network: quickselect the upper middle; for
/// an even count the lower middle is the largest reading left of it.
fn select_median(readings: &mut [i64]) -> u64 {
    let odd = readings.len() % 2 == 1;
    let mid = readings.len() / 2;
    let (lower, &mut upper, _) = readings.select_nth_unstable(mid);
    let median = if odd {
        upper
    } else {
        let below = *lower.iter().max().expect("an even count has a lower half");
        (below + upper) / 2
    };
    median.max(0) as u64
}

/// Orders wires `i < j` so that `wires[i] <= wires[j]`, without a branch.
#[inline(always)]
fn compare_exchange(wires: &mut [i64; MAX_FIXED_DEPTH], i: usize, j: usize) {
    let (a, b) = (wires[i], wires[j]);
    let swap = b < a;
    wires[i] = select_unpredictable(swap, b, a);
    wires[j] = select_unpredictable(swap, a, b);
}

/// Sorts `wires[..D]` ascending with Batcher's odd-even merge sort network
/// for 16 inputs (63 comparators), pruned to its first `D` wires.
///
/// Pruning keeps a sorting network: pad the missing inputs with `+∞`, and
/// every comparator that touches a padded wire leaves both wires as they
/// were, so dropping those comparators sorts the first `D` wires alike.
/// `j < D` is a constant per instantiation, so each depth compiles to its
/// own straight-line network (32 comparators at depth 10).
#[inline]
fn sort_first<const D: usize>(wires: &mut [i64; MAX_FIXED_DEPTH]) {
    macro_rules! network {
        ($(($i:literal, $j:literal))*) => {
            $(if $j < D {
                compare_exchange(wires, $i, $j);
            })*
        };
    }
    network! {
        // Sorted runs of 2.
        (0, 1) (2, 3) (4, 5) (6, 7) (8, 9) (10, 11) (12, 13) (14, 15)
        // Merged into sorted runs of 4.
        (0, 2) (1, 3) (4, 6) (5, 7) (8, 10) (9, 11) (12, 14) (13, 15)
        (1, 2) (5, 6) (9, 10) (13, 14)
        // Merged into sorted runs of 8.
        (0, 4) (1, 5) (2, 6) (3, 7) (8, 12) (9, 13) (10, 14) (11, 15)
        (2, 4) (3, 5) (10, 12) (11, 13)
        (1, 2) (3, 4) (5, 6) (9, 10) (11, 12) (13, 14)
        // Merged into one sorted run of 16.
        (0, 8) (1, 9) (2, 10) (3, 11) (4, 12) (5, 13) (6, 14) (7, 15)
        (4, 8) (5, 9) (6, 10) (7, 11)
        (2, 4) (3, 5) (6, 8) (7, 9) (10, 12) (11, 13)
        (1, 2) (3, 4) (5, 6) (7, 8) (9, 10) (11, 12) (13, 14)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The sort-based median the network replaced, kept as the reference.
    fn sorted_median_reference(readings: &mut [i64]) -> u64 {
        readings.sort_unstable();
        let depth = readings.len();
        let mid = depth / 2;
        let median = if depth % 2 == 1 {
            readings[mid]
        } else {
            // Round the midpoint average toward zero.
            (readings[mid - 1] + readings[mid]) / 2
        };
        median.max(0) as u64
    }

    /// Checks that the pruned network sorts every 0/1 input of `D` wires
    /// and leaves the padded wires alone. By the 0-1 principle it then
    /// sorts every input of `D` values.
    fn sorts_every_binary_input<const D: usize>() {
        for bits in 0u32..1 << D {
            let mut wires = [i64::MAX; MAX_FIXED_DEPTH];
            for (i, wire) in wires.iter_mut().take(D).enumerate() {
                *wire = i64::from(bits >> i & 1);
            }
            sort_first::<D>(&mut wires);
            let zeros = D - bits.count_ones() as usize;
            assert!(wires[..zeros].iter().all(|&w| w == 0), "depth {D}, input {bits:b}");
            assert!(wires[zeros..D].iter().all(|&w| w == 1), "depth {D}, input {bits:b}");
            assert!(wires[D..].iter().all(|&w| w == i64::MAX), "depth {D} moved a padded wire");
        }
    }

    #[test]
    fn every_pruned_network_sorts() {
        macro_rules! each_depth {
            ($($depth:literal)*) => { $(sorts_every_binary_input::<$depth>();)* };
        }
        each_depth!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    }

    /// One reading: near `±2^62` (the two middles of an even count must sum
    /// without overflow, as sketch counters always do), a small value that
    /// ties often, or anything in between.
    fn reading() -> impl Strategy<Value = i64> {
        const EDGE: i64 = 1 << 62;
        prop_oneof![EDGE - 64..EDGE, -EDGE..-EDGE + 64, -3i64..=3, -EDGE..EDGE]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        /// The network (depths 1..=16) and the quickselect fallback
        /// (17..=20) return the sort-based median, bit for bit.
        #[test]
        fn kernel_matches_sorted_reference(depth in 1usize..=20, pool in vec(reading(), 20..21)) {
            let mut readings = pool[..depth].to_vec();
            let mut reference = readings.clone();
            prop_assert_eq!(
                clamped_median(&mut readings),
                sorted_median_reference(&mut reference),
                "depth {}, readings {:?}",
                depth,
                &pool[..depth]
            );
        }
    }
}
