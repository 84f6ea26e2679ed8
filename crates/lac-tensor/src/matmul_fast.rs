//! The register-blocked LUT-matmul kernel and the fused
//! surrogate-gradient kernels.
//!
//! A [`DenseLut`] views every product of a narrow multiplier as the `f64`
//! the tensor datapath accumulates, tabulated once when the multiplier is
//! wrapped. The product row of an lhs operand is therefore already a
//! contiguous `side`-length slice of the table, and [`matmul_lut`] is a
//! pure gather-and-add over those rows — no per-call tabulation, no
//! cross-call state.
//!
//! All three kernels share one loop shape, `i → block of 4 output
//! columns → p`: four accumulators start at `0.0`, take their adds in
//! ascending `p`, and are stored once, so an output element is loaded
//! and stored once rather than once per `p`. Widths that are not a
//! multiple of 4 (including the `n == 1` mat-vec of the CNN dense head)
//! finish in a scalar tail with the same per-element order.
//!
//! # Bit-equivalence contract
//!
//! [`matmul_lut`] produces output **bit-identical** to the scalar
//! reference path in [`crate::approx`] (and to the tests' `matmul_gather`):
//!
//! * Each scalar product is `table[row + col]`, the very value
//!   [`DenseLut::product`] returns.
//! * Per output element, partial products are accumulated in ascending-`p`
//!   order, one add at a time, starting from `0.0` — the same association
//!   as the reference `i-j-p` loop. Blocking only interleaves the adds of
//!   four independent output elements.
//! * Both operands are quantized with [`DenseLut::row`]/[`DenseLut::col`],
//!   the same round-and-clamp as the reference.
//!
//! The fused backward kernels ([`matmul_abt`], [`matmul_atb`]) keep
//! `Tensor::matmul`'s per-element order and its skip of a zero lhs value
//! while indexing the untransposed operand, so surrogate gradients are
//! bit-identical to `g.matmul(&b.transpose())` / `a.transpose().matmul(g)`
//! without materializing either transpose.

use lac_hw::DenseLut;

use crate::tensor::Tensor;

/// Output columns per register block.
const BLOCK: usize = 4;

/// LUT matmul: `out[i, j] = Σ_p table[arow[i, p] + bcol[p, j]]`, each
/// output element summed from `0.0` in ascending `p`.
pub(crate) fn matmul_lut(a: &Tensor, b: &Tensor, lut: DenseLut<'_>) -> Tensor {
    let (m, k) = a.dims2("approx_matmul lhs");
    let (_, n) = b.dims2("approx_matmul rhs");
    let table = lut.table();
    let side = lut.side();
    let arows: Vec<usize> = a.data().iter().map(|&v| lut.row(v)).collect();
    let bcols: Vec<usize> = b.data().iter().map(|&v| lut.col(v)).collect();
    let mut out = Tensor::zeros(&[m, n]);
    let od = out.data_mut();
    let blocked = n - n % BLOCK;
    for i in 0..m {
        let ar = &arows[i * k..][..k];
        let orow = &mut od[i * n..][..n];
        for j in (0..blocked).step_by(BLOCK) {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for (p, &r) in ar.iter().enumerate() {
                let row = &table[r..][..side];
                let c = &bcols[p * n + j..][..BLOCK];
                s0 += row[c[0]];
                s1 += row[c[1]];
                s2 += row[c[2]];
                s3 += row[c[3]];
            }
            orow[j..j + BLOCK].copy_from_slice(&[s0, s1, s2, s3]);
        }
        for (j, o) in orow.iter_mut().enumerate().skip(blocked) {
            let mut acc = 0.0;
            for (p, &r) in ar.iter().enumerate() {
                acc += table[r + bcols[p * n + j]];
            }
            *o = acc;
        }
    }
    out
}

/// `g · bᵀ` without materializing `bᵀ`: `g` is `[m, n]`, `b` is `[k, n]`,
/// output `[m, k]`. Bit-identical to `Tensor::matmul(g, b.transpose())`:
/// each output element sums `g[i, p] · b[j, p]` from `0.0` in ascending
/// `p`, skipping every `p` where `g[i, p] == 0.0`.
pub(crate) fn matmul_abt(g: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = g.dims2("matmul_abt lhs");
    let (k, n2) = b.dims2("matmul_abt rhs");
    assert_eq!(n, n2, "matmul_abt inner dimension mismatch: {n} vs {n2}");
    let gd = g.data();
    let bd = b.data();
    let mut out = Tensor::zeros(&[m, k]);
    let od = out.data_mut();
    let blocked = k - k % BLOCK;
    for i in 0..m {
        let grow = &gd[i * n..][..n];
        let orow = &mut od[i * k..][..k];
        for j in (0..blocked).step_by(BLOCK) {
            let b0 = &bd[j * n..][..n];
            let b1 = &bd[(j + 1) * n..][..n];
            let b2 = &bd[(j + 2) * n..][..n];
            let b3 = &bd[(j + 3) * n..][..n];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for (p, &a) in grow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                s0 += a * b0[p];
                s1 += a * b1[p];
                s2 += a * b2[p];
                s3 += a * b3[p];
            }
            orow[j..j + BLOCK].copy_from_slice(&[s0, s1, s2, s3]);
        }
        for (j, o) in orow.iter_mut().enumerate().skip(blocked) {
            let brow = &bd[j * n..][..n];
            let mut acc = 0.0;
            for (&a, &bv) in grow.iter().zip(brow) {
                if a != 0.0 {
                    acc += a * bv;
                }
            }
            *o = acc;
        }
    }
    out
}

/// `aᵀ · g` without materializing `aᵀ`: `a` is `[m, k]`, `g` is `[m, n]`,
/// output `[k, n]`. Bit-identical to `Tensor::matmul(a.transpose(), g)`:
/// each output element sums `a[p, i] · g[p, j]` from `0.0` in ascending
/// `p`, skipping every `p` where `a[p, i] == 0.0`.
pub(crate) fn matmul_atb(a: &Tensor, g: &Tensor) -> Tensor {
    let (m, k) = a.dims2("matmul_atb lhs");
    let (m2, n) = g.dims2("matmul_atb rhs");
    assert_eq!(m, m2, "matmul_atb inner dimension mismatch: {m} vs {m2}");
    let ad = a.data();
    let gd = g.data();
    let mut out = Tensor::zeros(&[k, n]);
    let od = out.data_mut();
    let blocked = n - n % BLOCK;
    for i in 0..k {
        let orow = &mut od[i * n..][..n];
        for j in (0..blocked).step_by(BLOCK) {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for p in 0..m {
                let av = ad[p * k + i];
                if av == 0.0 {
                    continue;
                }
                let gv = &gd[p * n + j..][..BLOCK];
                s0 += av * gv[0];
                s1 += av * gv[1];
                s2 += av * gv[2];
                s3 += av * gv[3];
            }
            orow[j..j + BLOCK].copy_from_slice(&[s0, s1, s2, s3]);
        }
        for (j, o) in orow.iter_mut().enumerate().skip(blocked) {
            let mut acc = 0.0;
            for p in 0..m {
                let av = ad[p * k + i];
                if av != 0.0 {
                    acc += av * gd[p * n + j];
                }
            }
            *o = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_hw::{catalog, LutMultiplier, Multiplier};
    use std::sync::Arc;

    /// The scalar reference kernel: quantize both operands, then the
    /// `i-j-p` triple loop reading every product from the table. This is the
    /// path `matmul_lut` must match bit-for-bit.
    fn matmul_gather(a: &Tensor, b: &Tensor, lut: DenseLut<'_>) -> Tensor {
        let (m, k) = a.dims2("approx_matmul lhs");
        let (_, n) = b.dims2("approx_matmul rhs");
        let arows: Vec<usize> = a.data().iter().map(|&v| lut.row(v)).collect();
        let bcols: Vec<usize> = b.data().iter().map(|&v| lut.col(v)).collect();
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += lut.product(arows[i * k + p], bcols[p * n + j]);
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    fn lut_unit(name: &str) -> Arc<dyn Multiplier> {
        LutMultiplier::maybe_wrap(catalog::by_name(name).unwrap())
    }

    fn tensor(seed: u64, rows: usize, cols: usize, span: f64) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 977)) % 1013) as f64
                % span
                - span / 3.0)
            .collect();
        Tensor::from_vec(data, &[rows, cols])
    }

    fn assert_matches_gather(a: &Tensor, b: &Tensor, lut: DenseLut<'_>, what: &str) {
        let reference = matmul_gather(a, b, lut);
        let got = matmul_lut(a, b, lut);
        assert_eq!(got.shape(), reference.shape(), "{what}");
        for (idx, (g, r)) in got.data().iter().zip(reference.data()).enumerate() {
            assert_eq!(g.to_bits(), r.to_bits(), "{what} @{idx}");
        }
    }

    /// The LUT kernel must reproduce the gather reference bit-for-bit:
    /// across units and shapes (every output width from 1 to 9 and 130,
    /// so each 4-block and each tail length runs), for operands that
    /// change between calls, and for full-range signed permutations as
    /// either operand.
    #[test]
    fn fixed_kernels_match_gather_reference() {
        for name in ["mul8u_FTA", "mul8u_JV3", "kulkarni8u", "exact8u"] {
            let unit = lut_unit(name);
            let lut = unit.as_lut().unwrap();
            for (m, k, n) in [
                (8, 8, 8),
                (3, 7, 5),
                (1, 9, 4),
                (6, 1, 3),
                (5, 130, 2),
                (4, 256, 1),
                (1, 1, 1),
                (67, 5, 70),
            ] {
                let a = tensor(3, m, k, 300.0);
                let b = tensor(17, k, n, 300.0);
                assert_matches_gather(&a, &b, lut, &format!("{name} {m}x{k}x{n}"));
            }
            for n in WIDTHS {
                for (m, k) in [(3, 7), (2, 130)] {
                    let a = tensor(3, m, k, 300.0);
                    let b = tensor(17, k, n, 300.0);
                    assert_matches_gather(&a, &b, lut, &format!("{name} {m}x{k}x{n}"));
                }
            }
        }

        // Operands that change between calls, on either side.
        let unit = lut_unit("mul8u_JV3");
        let lut = unit.as_lut().unwrap();
        let fixed = tensor(7, 4, 4, 200.0);
        for step in 0..5u64 {
            let moving = tensor(100 + step, 4, 4, 200.0);
            assert_matches_gather(&moving, &fixed, lut, &format!("moving lhs, step {step}"));
            assert_matches_gather(&fixed, &moving, lut, &format!("moving rhs, step {step}"));
        }

        // Every representable signed operand, permuted (the multipliers
        // are coprime with 511, so each operand holds 511 distinct
        // values), as LHS row and RHS column, through the 511-wide
        // signed table.
        let unit = LutMultiplier::maybe_wrap(lac_hw::signed_capable(
            catalog::by_name("mul8u_FTA").unwrap(),
        ));
        let lut = unit.as_lut().unwrap();
        let full = |mult: i64, shape: &[usize]| {
            let data = (0..511i64).map(|i| ((i * mult) % 511 - 255) as f64).collect::<Vec<_>>();
            Tensor::from_vec(data, shape)
        };
        for (ma, mb) in [(1, 3), (5, 9), (11, 13), (23, 19)] {
            let what = format!("full range {ma}/{mb}");
            assert_matches_gather(&full(ma, &[1, 511]), &full(mb, &[511, 1]), lut, &what);
            assert_matches_gather(&full(ma, &[511, 1]), &full(mb, &[1, 511]), lut, &what);
        }
    }

    /// Degenerate shapes: 1×N, N×1, empty, and widths that are not a
    /// multiple of the 4-column block must all agree with the reference.
    #[test]
    fn degenerate_shapes_match_reference() {
        let unit = lut_unit("mul8u_FTA");
        let lut = unit.as_lut().unwrap();
        let shapes = [
            (1, 1, 1),
            (1, 8, 1),
            (1, 1, 9),
            (9, 1, 1),
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (3, 0, 1),
            (67, 2, 65),
            (2, 3, 128),
        ];
        for (m, k, n) in shapes {
            let a = tensor(5, m, k, 200.0);
            let b = tensor(23, k, n, 200.0);
            assert_matches_gather(&a, &b, lut, &format!("{m}x{k}x{n}"));
        }
    }

    /// Output widths that run every tail length after whole 4-blocks.
    const WIDTHS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 130];

    /// Seeded full-mantissa operands in `[-span, span)`: any reordering of
    /// an accumulation would change low bits.
    fn fractional(seed: u64, rows: usize, cols: usize, span: f64) -> Tensor {
        let mut state = seed;
        let data = (0..rows * cols)
            .map(|_| {
                let r = lac_rt::rng::splitmix64(&mut state);
                ((r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * span
            })
            .collect();
        Tensor::from_vec(data, &[rows, cols])
    }

    /// Put `-0.0` and runs of `+0.0` into a gradient, so both zero-skip
    /// branches fire, including a whole zero row when there are several.
    fn with_zeros(mut g: Tensor) -> Tensor {
        let cols = g.shape().last().copied().unwrap_or(0);
        for (idx, v) in g.data_mut().iter_mut().enumerate() {
            if idx % 7 == 3 {
                *v = -0.0;
            } else if idx % 11 < 3 || (cols > 1 && idx / cols == 1) {
                *v = 0.0;
            }
        }
        g
    }

    fn assert_backward_matches(a: &Tensor, b: &Tensor, g: &Tensor, what: &str) {
        let da_ref = g.matmul(&b.transpose());
        let db_ref = a.transpose().matmul(g);
        let da = matmul_abt(g, b);
        let db = matmul_atb(a, g);
        assert_eq!(da.shape(), da_ref.shape(), "abt {what}");
        assert_eq!(db.shape(), db_ref.shape(), "atb {what}");
        for (idx, (x, y)) in da.data().iter().zip(da_ref.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "abt {what} @{idx}");
        }
        for (idx, (x, y)) in db.data().iter().zip(db_ref.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "atb {what} @{idx}");
        }
    }

    /// The fused backward kernels against `Tensor::matmul` on explicit
    /// transposes, the untouched reference: every blocked width and its
    /// tails on both kernels' output dimension, the CNN dense head's
    /// `[4, 256] × [256, 1]` (and its transpose direction), full-mantissa
    /// operands, and gradients holding `-0.0` and runs of zeros.
    #[test]
    fn fused_backward_kernels_match_transposed_matmuls() {
        let mut shapes =
            vec![(8, 8, 8), (2, 5, 3), (1, 4, 6), (7, 1, 2), (3, 3, 0), (4, 256, 1), (1, 256, 4)];
        for w in WIDTHS {
            // abt's output width is k, atb's is n.
            shapes.extend([(3, w, 5), (2, 6, w), (w, w, w)]);
        }
        for (seed, &(m, k, n)) in shapes.iter().enumerate() {
            let seed = seed as u64;
            let a = fractional(11 + seed, m, k, 3.0);
            let b = fractional(13 + seed, k, n, 3.0);
            let g = fractional(19 + seed, m, n, 0.5);
            assert_backward_matches(&a, &b, &g, &format!("{m}x{k}x{n}"));
            let g = with_zeros(g);
            assert_backward_matches(&a, &b, &g, &format!("{m}x{k}x{n} with zeros"));
            // A zero-riddled lhs exercises atb's skip per (i, p) as well.
            let a = with_zeros(a);
            assert_backward_matches(&a, &b, &g, &format!("{m}x{k}x{n} with zero lhs"));
        }
        // The integral operands of the LUT datapath.
        for (m, k, n) in [(8, 8, 8), (4, 256, 1)] {
            let a = tensor(11, m, k, 50.0);
            let b = tensor(13, k, n, 50.0);
            let g = with_zeros(tensor(19, m, n, 20.0));
            assert_backward_matches(&a, &b, &g, &format!("integral {m}x{k}x{n}"));
        }
    }
}
