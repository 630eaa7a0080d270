//! Per-depth instantiation of the sketch kernels.
//!
//! A sketch's depth `s` is fixed when it is built, so every record, query
//! and median runs the same number of rows on every stream element.
//! [`by_depth!`] matches the depth once per call and expands its body once
//! per depth up to [`MAX_FIXED_DEPTH`], with the depth bound as a
//! constant. In each of those instantiations the compiler fully unrolls
//! the row loops into straight-line code and drops their length checks.
//! Deeper sketches run the same body with the depth read at run time.

/// Deepest sketch whose kernels are compiled for their exact depth. The
/// arms of [`by_depth!`] list every depth up to it.
pub(crate) const MAX_FIXED_DEPTH: usize = 16;
const _: () = assert!(MAX_FIXED_DEPTH == 16, "by_depth! lists the depths 1..=16");

/// Evaluates `$fixed` with `$d` bound as a `const usize` equal to `$depth`
/// when `1 ≤ $depth ≤ MAX_FIXED_DEPTH`, and `$deeper` otherwise.
macro_rules! by_depth {
    ($depth:expr, $d:ident => $fixed:expr, _ => $deeper:expr) => {
        $crate::depth::by_depth!(
            @arms $depth, $d => $fixed, $deeper; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
        )
    };
    (@arms $depth:expr, $d:ident => $fixed:expr, $deeper:expr; $($n:literal)*) => {
        match $depth {
            $($n => {
                const $d: usize = $n;
                $fixed
            })*
            _ => $deeper,
        }
    };
}
pub(crate) use by_depth;

/// Evaluates `$body` with `$r` bound to the rows of `$hashes` (a
/// `&FamilyRowHashes`): the family is matched as in `with_family_rows!`,
/// then the depth, and `$r` is a fixed-length array reference `&[H; D]` for
/// every depth up to [`MAX_FIXED_DEPTH`] and the slice itself past it.
/// `$body` passes `$r` on to an `#[inline(always)]` kernel taking `&[H]`,
/// so each family and depth gets its own copy of the kernel with the row
/// count a constant.
macro_rules! with_depth_rows {
    ($hashes:expr, $r:ident => $body:expr) => {
        $crate::hash::with_family_rows!($hashes, family_rows => {
            let rows: &[_] = family_rows;
            $crate::depth::by_depth!(
                rows.len(),
                D => {
                    let $r: &[_; D] = rows.try_into().expect("the depth was matched");
                    $body
                },
                _ => {
                    let $r = rows;
                    $body
                }
            )
        })
    };
}
pub(crate) use with_depth_rows;

/// A buffer of one `T` per row for a `depth`-row kernel: the first `depth`
/// slots of `stack` up to [`MAX_FIXED_DEPTH`] rows, and of `deep` (at least
/// `depth` long, owned by the sketch so that no record allocates) past it.
#[inline(always)]
pub(crate) fn row_buffer<'a, T>(
    stack: &'a mut [T; MAX_FIXED_DEPTH],
    deep: &'a mut [T],
    depth: usize,
) -> &'a mut [T] {
    if depth <= MAX_FIXED_DEPTH {
        &mut stack[..depth]
    } else {
        &mut deep[..depth]
    }
}
