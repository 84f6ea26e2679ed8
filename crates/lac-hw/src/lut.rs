//! Lookup-table acceleration for narrow multipliers.
//!
//! Training repeatedly evaluates the same behavioral model over the full
//! 8-bit operand grid; precomputing the 256 x 256 product table turns every
//! multiply into a single indexed load. This mirrors the paper's "parallel
//! versions of the approximate multipliers" engineering (Section III-D):
//! the goal is simulation throughput, not a change in semantics.
//!
//! The table is built once, ahead of time, and stored as the `f64`
//! products the tensor datapath accumulates, so the matmul kernels read
//! product rows straight out of it with no per-call conversion. Every
//! tabulated product has magnitude at most 2^53, where `i64 → f64` is
//! exact, so the table round-trips the unit's integer outputs.

use std::sync::Arc;

use crate::mult::{HwMetadata, Multiplier, Signedness};

/// Maximum operand width for which a full product table is built.
///
/// A 10-bit signed table is ~2^22 entries (32 MiB of `f64`); anything wider
/// is cheaper to evaluate directly.
pub const MAX_LUT_BITS: u32 = 10;

/// Largest product magnitude an `f64` table represents exactly (2^53).
const MAX_EXACT_PRODUCT: u64 = 1 << 53;

/// 2^52: from here up every `f64` is an integer.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Round to the nearest integer, ties away from zero: bit-identical to
/// [`f64::round`] for every input, but inlined into the caller's loop.
///
/// On the default x86-64 target (no SSE4.1 `roundsd`) `f64::round` is
/// an out-of-line libm call. This helper is a few adds and compares:
///
/// * For `|x| < 2^52`, `t = (|x| + 2^52) - 2^52` is `|x|` rounded to the
///   nearest integer with ties to even: the sum lies in `[2^52, 2^53)`,
///   where the `f64` spacing is exactly 1, and the subtraction is exact.
/// * `|x| - t` is exact too (the operands are within a factor of two, or
///   `t` is 0), so it equals `0.5` exactly when `|x|` was a tie that went
///   down to even; adding 1 then moves that tie away from zero.
/// * `copysign(t, x)` restores the sign, including `-0.0` for inputs in
///   `(-0.5, -0.0]`, as `f64::round` does.
/// * `|x| >= 2^52` (infinities included) is already integral and passes
///   through unchanged. A NaN goes through the arithmetic, which quiets a
///   signalling NaN and keeps its payload and sign, as `f64::round` does.
#[inline(always)]
pub fn round_half_away(x: f64) -> f64 {
    let a = x.abs();
    let t = (a + TWO_POW_52) - TWO_POW_52;
    let t = if a - t == 0.5 { t + 1.0 } else { t };
    if a >= TWO_POW_52 {
        x
    } else {
        t.copysign(x)
    }
}

/// A borrowed view of a dense product table: every product of a narrow
/// multiplier, indexable without virtual dispatch.
///
/// Obtained from [`Multiplier::as_lut`]. Hot loops resolve the view once
/// per tensor operation, pre-quantize their operands into row/column
/// indices with [`DenseLut::row`] / [`DenseLut::col`], and then read
/// products straight out of the table — no trait-object call, no repeated
/// clamp-path re-derivation per scalar product.
///
/// The table holds `multiply_raw(a, b) as f64` at `(a - lo) * side + (b - lo)`
/// for every in-range `(a, b)`, so `product(row(a), col(b))` is
/// bit-identical to `multiply(a.round(), b.round()) as f64` on the wrapped
/// unit.
#[derive(Debug, Clone, Copy)]
pub struct DenseLut<'a> {
    table: &'a [f64],
    lo: i64,
    hi: i64,
    side: usize,
}

impl<'a> DenseLut<'a> {
    /// Build a view over a full product table.
    ///
    /// # Panics
    ///
    /// Panics unless `table.len() == side * side` and `side == hi - lo + 1`.
    pub fn new(table: &'a [f64], lo: i64, hi: i64) -> Self {
        let side = (hi - lo + 1) as usize;
        assert_eq!(table.len(), side * side, "dense LUT table/side mismatch");
        DenseLut { table, lo, hi, side }
    }

    /// Inclusive operand range `(lo, hi)` covered by the table.
    pub fn operand_range(&self) -> (i64, i64) {
        (self.lo, self.hi)
    }

    /// Quantize an operand (round to nearest, clamp into range) and return
    /// its **row** offset: already multiplied by the table stride, so the
    /// inner loop adds a column offset and indexes.
    #[inline(always)]
    pub fn row(&self, v: f64) -> usize {
        self.col(v) * self.side
    }

    /// Quantize an operand (round to nearest, clamp into range) and return
    /// its **column** offset.
    #[inline(always)]
    pub fn col(&self, v: f64) -> usize {
        ((round_half_away(v) as i64).clamp(self.lo, self.hi) - self.lo) as usize
    }

    /// The product at a pre-quantized `(row, col)` index pair.
    ///
    /// # Panics
    ///
    /// Panics if `row + col` indexes past the table (i.e. the offsets did
    /// not come from [`DenseLut::row`] / [`DenseLut::col`]).
    #[inline(always)]
    pub fn product(&self, row: usize, col: usize) -> f64 {
        self.table[row + col]
    }

    /// The raw product table, row-major with stride `side`: the products
    /// of the operand at row offset `r` are `table()[r..r + side()]`.
    /// Matmul kernels gather from these rows directly instead of calling
    /// [`DenseLut::product`] per element.
    #[inline(always)]
    pub fn table(&self) -> &'a [f64] {
        self.table
    }

    /// The table stride (number of columns; equals `hi - lo + 1`).
    #[inline(always)]
    pub fn side(&self) -> usize {
        self.side
    }
}

/// A multiplier wrapper that memoizes the full product table of a narrow
/// unit and answers every multiplication from it.
///
/// Semantics are identical to the wrapped unit (verified by construction:
/// the table is filled by calling the inner model).
///
/// # Examples
///
/// ```
/// use lac_hw::{EtmMultiplier, LutMultiplier, Multiplier};
/// use std::sync::Arc;
///
/// let inner = Arc::new(EtmMultiplier::new(8, 4));
/// let fast = LutMultiplier::new(inner.clone());
/// assert_eq!(fast.multiply(200, 17), inner.multiply(200, 17));
/// ```
#[derive(Clone)]
pub struct LutMultiplier {
    inner: Arc<dyn Multiplier>,
    lo: i64,
    side: usize,
    /// An `Arc<Vec<_>>` so the table stays in the allocation it was built
    /// in; converting to `Arc<[_]>` would allocate and copy every table a
    /// second time.
    table: Arc<Vec<f64>>,
}

impl std::fmt::Debug for LutMultiplier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LutMultiplier")
            .field("inner", &self.inner.name())
            .field("entries", &self.table.len())
            .finish()
    }
}

impl LutMultiplier {
    /// Build the full product table of `inner`.
    ///
    /// # Panics
    ///
    /// Panics if `inner.bits() > MAX_LUT_BITS` (use
    /// [`LutMultiplier::maybe_wrap`] to fall back gracefully), or if any
    /// product has magnitude above 2^53, which the `f64` table could not
    /// hold exactly.
    pub fn new(inner: Arc<dyn Multiplier>) -> Self {
        assert!(
            inner.bits() <= MAX_LUT_BITS,
            "refusing to tabulate {}-bit multiplier {} (> {MAX_LUT_BITS} bits)",
            inner.bits(),
            inner.name()
        );
        let (lo, hi) = inner.operand_range();
        let side = (hi - lo + 1) as usize;
        let mut table = Vec::with_capacity(side * side);
        let mut max_abs = 0;
        for a in lo..=hi {
            for b in lo..=hi {
                let p = inner.multiply_raw(a, b);
                max_abs = max_abs.max(p.unsigned_abs());
                table.push(p as f64);
            }
        }
        assert!(
            max_abs <= MAX_EXACT_PRODUCT,
            "refusing to tabulate multiplier {}: product magnitude {max_abs} exceeds 2^53",
            inner.name()
        );
        LutMultiplier { inner, lo, side, table: Arc::new(table) }
    }

    /// Wrap `inner` in a LUT when it is narrow enough, otherwise return it
    /// unchanged. Idempotent: a unit that already exposes a dense table
    /// (e.g. an existing `LutMultiplier`, possibly behind an adapter that
    /// forwards `as_lut`) is returned as-is rather than re-tabulated.
    pub fn maybe_wrap(inner: Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        if inner.as_lut().is_some() || inner.bits() > MAX_LUT_BITS {
            inner
        } else {
            Arc::new(LutMultiplier::new(inner))
        }
    }

    /// The wrapped behavioral model.
    pub fn inner(&self) -> &Arc<dyn Multiplier> {
        &self.inner
    }
}

impl Multiplier for LutMultiplier {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bits(&self) -> u32 {
        self.inner.bits()
    }

    fn signedness(&self) -> Signedness {
        self.inner.signedness()
    }

    fn operand_range(&self) -> (i64, i64) {
        self.inner.operand_range()
    }

    fn multiply_raw(&self, a: i64, b: i64) -> i64 {
        let ia = (a - self.lo) as usize;
        let ib = (b - self.lo) as usize;
        self.table[ia * self.side + ib] as i64
    }

    /// Clamp against the cached bounds and index the table directly.
    ///
    /// The default implementation would re-derive the operand range
    /// through `self.operand_range()` — a virtual call into the wrapped
    /// unit on every product. The bounds are fixed at table-build time,
    /// so the slow (non-`as_lut`) callers get a dispatch-free clamp too.
    fn multiply(&self, a: i64, b: i64) -> i64 {
        let hi = self.lo + self.side as i64 - 1;
        let ia = (a.clamp(self.lo, hi) - self.lo) as usize;
        let ib = (b.clamp(self.lo, hi) - self.lo) as usize;
        self.table[ia * self.side + ib] as i64
    }

    fn as_lut(&self) -> Option<DenseLut<'_>> {
        Some(DenseLut::new(&self.table, self.lo, self.lo + self.side as i64 - 1))
    }

    fn metadata(&self) -> HwMetadata {
        self.inner.metadata()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etm::EtmMultiplier;
    use crate::kulkarni::KulkarniMultiplier;
    use crate::mult::ExactMultiplier;

    #[test]
    fn lut_matches_inner_exhaustively() {
        let inner = Arc::new(KulkarniMultiplier::new(8));
        let lut = LutMultiplier::new(inner.clone());
        for a in 0..256 {
            for b in 0..256 {
                assert_eq!(lut.multiply(a, b), inner.multiply(a, b), "{a}x{b}");
            }
        }
    }

    #[test]
    fn lut_matches_signed_inner() {
        let inner: Arc<dyn Multiplier> =
            Arc::new(ExactMultiplier::new(8, Signedness::Signed));
        let lut = LutMultiplier::new(inner.clone());
        for a in [-127i64, -1, 0, 1, 127] {
            for b in [-127i64, -64, 0, 64, 127] {
                assert_eq!(lut.multiply(a, b), a * b);
            }
        }
    }

    #[test]
    fn maybe_wrap_leaves_wide_units_alone() {
        let wide: Arc<dyn Multiplier> =
            Arc::new(ExactMultiplier::new(16, Signedness::Unsigned));
        let wrapped = LutMultiplier::maybe_wrap(wide.clone());
        assert_eq!(wrapped.name(), wide.name());
        assert_eq!(wrapped.multiply(1234, 4321), 1234 * 4321);
    }

    #[test]
    fn lut_preserves_metadata_and_identity() {
        let inner = Arc::new(EtmMultiplier::new(8, 4));
        let lut = LutMultiplier::new(inner.clone());
        assert_eq!(lut.name(), inner.name());
        assert_eq!(lut.metadata(), inner.metadata());
        assert_eq!(lut.bits(), 8);
    }

    #[test]
    fn as_lut_view_matches_multiply_everywhere() {
        let inner = Arc::new(EtmMultiplier::new(8, 4));
        let lut = LutMultiplier::new(inner);
        let view = lut.as_lut().expect("LutMultiplier exposes its table");
        assert_eq!(view.operand_range(), lut.operand_range());
        // Including out-of-range and fractional operands: the view's
        // round+clamp quantization must agree with multiply()'s clamp.
        for a in [-3.0, 0.0, 0.4, 17.6, 200.0, 255.0, 300.0] {
            for b in [-1.0, 2.5, 128.0, 255.0, 999.0] {
                let via_view = view.product(view.row(a), view.col(b));
                let via_trait = lut.multiply(a.round() as i64, b.round() as i64) as f64;
                assert_eq!(via_view, via_trait, "{a} x {b}");
            }
        }
    }

    fn assert_rounds_like_std(x: f64) {
        assert_eq!(
            round_half_away(x).to_bits(),
            x.round().to_bits(),
            "round_half_away({x:e}) [bits {:#018x}]",
            x.to_bits()
        );
    }

    #[test]
    fn round_half_away_matches_std_on_edge_cases() {
        let two52 = TWO_POW_52;
        let mut cases = vec![
            0.0,
            -0.0,
            -0.3,
            0.3,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            255.5,
            -255.5,
            0.49999999999999994,
            -0.49999999999999994,
            4503599627370495.5,
            -4503599627370495.5,
            two52,
            -two52,
            two52 + 1.0,
            2.0 * two52,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // Ties and their neighbouring values, from 0.5 up to the 2^52 edge.
        for k in [0.5, 1.5, 2.5, 1023.5, 1e15 + 0.5, two52 / 2.0 + 0.5, two52 - 0.5] {
            for v in [k, -k] {
                cases.extend([v, f64::from_bits(v.to_bits() + 1), f64::from_bits(v.to_bits() - 1)]);
            }
        }
        for x in cases {
            assert_rounds_like_std(x);
        }
    }

    /// A seeded sweep: random bit patterns (every exponent, NaN payloads,
    /// subnormals), then values within a few ulps of quarter and half
    /// steps, where the tie handling decides the result.
    #[test]
    fn round_half_away_matches_std_on_a_seeded_sweep() {
        let mut state = 0x5eed_2041_u64;
        for _ in 0..10_000_000 {
            assert_rounds_like_std(f64::from_bits(lac_rt::rng::splitmix64(&mut state)));
        }
        for _ in 0..2_000_000 {
            let r = lac_rt::rng::splitmix64(&mut state);
            // A quarter, half or whole step below 2^53 on a log-uniform
            // magnitude, nudged by up to ±3 ulps.
            let steps = (r >> 11) >> (r % 53);
            let base = steps as f64 * [0.25, 0.5, 1.0][(r >> 6) as usize % 3];
            let nudge = (r >> 8) % 7;
            let bits = (base.to_bits() + nudge).saturating_sub(3);
            let x = f64::from_bits(bits);
            assert_rounds_like_std(x);
            assert_rounds_like_std(-x);
        }
    }

    /// `DenseLut::col`/`row` keep the exact index of the old
    /// `((v.round() as i64).clamp(lo, hi) - lo)` form, including the
    /// saturating casts of NaN, infinities and huge values.
    #[test]
    fn dense_lut_indices_match_std_round_form() {
        // A 9-bit signed unit: operands clamp into [-255, 255].
        let lut = LutMultiplier::new(Arc::new(ExactMultiplier::new(9, Signedness::Signed)));
        let view = lut.as_lut().unwrap();
        let (lo, hi) = view.operand_range();
        let old = |v: f64| ((v.round() as i64).clamp(lo, hi) - lo) as usize;
        for v in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            0.5,
            -0.5,
            255.5,
            -255.5,
            254.5,
            -254.5,
            -0.0,
            0.0,
            0.49999999999999994,
            -127.5,
            127.5,
        ] {
            assert_eq!(view.col(v), old(v), "col({v})");
            assert_eq!(view.row(v), old(v) * view.side(), "row({v})");
        }
    }

    #[test]
    fn multiply_override_clamps_like_default() {
        let inner = Arc::new(KulkarniMultiplier::new(8));
        let lut = LutMultiplier::new(inner.clone());
        for (a, b) in [(300, 2), (-5, 7), (256, 256), (255, 255), (0, 0)] {
            assert_eq!(lut.multiply(a, b), inner.multiply(a, b), "{a} x {b}");
        }
    }

    #[test]
    fn plain_units_expose_no_lut() {
        assert!(ExactMultiplier::new(8, Signedness::Unsigned).as_lut().is_none());
        assert!(EtmMultiplier::new(8, 4).as_lut().is_none());
    }

    #[test]
    #[should_panic(expected = "table/side mismatch")]
    fn dense_lut_validates_geometry() {
        let table = [0.0f64; 5];
        let _ = DenseLut::new(&table, 0, 2);
    }

    #[test]
    #[should_panic(expected = "refusing to tabulate")]
    fn rejects_wide_units() {
        let wide: Arc<dyn Multiplier> =
            Arc::new(ExactMultiplier::new(16, Signedness::Unsigned));
        let _ = LutMultiplier::new(wide);
    }

    /// A unit whose products the `f64` table could not hold exactly.
    #[derive(Debug)]
    struct Huge;

    impl Multiplier for Huge {
        fn name(&self) -> &str {
            "huge2u"
        }
        fn bits(&self) -> u32 {
            2
        }
        fn signedness(&self) -> Signedness {
            Signedness::Unsigned
        }
        fn multiply_raw(&self, _: i64, _: i64) -> i64 {
            1 << 60
        }
        fn metadata(&self) -> HwMetadata {
            HwMetadata::default()
        }
    }

    #[test]
    #[should_panic(expected = "refusing to tabulate multiplier huge2u")]
    fn rejects_products_beyond_f64_precision() {
        let _ = LutMultiplier::new(Arc::new(Huge));
    }
}
