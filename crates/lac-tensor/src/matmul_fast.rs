//! The blocked LUT-matmul kernel and the fused surrogate-gradient kernels.
//!
//! A [`DenseLut`] views every product of a narrow multiplier as the `f64`
//! the tensor datapath accumulates, tabulated once when the multiplier is
//! wrapped. The product row of an lhs operand is therefore already a
//! contiguous `side`-length slice of the table, and [`matmul_lut`] runs a
//! cache-blocked `i-p-j` loop whose inner body is a pure gather-and-add
//! over those rows — no per-call tabulation, no cross-call state.
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
//!   as the reference `i-j-p` loop. Loop *order* differs (`i-p-j`, tiled
//!   over `j`), which re-interleaves independent output elements but never
//!   reorders the adds of any single element.
//! * Both operands are quantized with [`DenseLut::row`]/[`DenseLut::col`],
//!   the same round-and-clamp as the reference.
//!
//! The fused backward kernels ([`matmul_abt`], [`matmul_atb`]) mirror
//! `Tensor::matmul`'s loop order and zero-skip exactly while indexing the
//! untransposed operand, so surrogate gradients are bit-identical to the
//! previous `g.matmul(&b.transpose())` / `a.transpose().matmul(g)` without
//! materializing either transpose.

use lac_hw::DenseLut;

use crate::tensor::Tensor;

/// Tile width of the inner `j` loop. Keeps the active slice of the output
/// row, the index row, and one product row resident in L1 for large `n`;
/// has no effect on results (each output element's accumulation order is
/// `p`-ascending regardless of tiling).
const J_TILE: usize = 64;

/// LUT matmul: `out[i, j] = Σ_p table[arow[i, p] + bcol[p, j]]`, looped
/// `i-p-j` with the `j` loop tiled and unrolled four wide, each product row
/// read straight out of the table. Ascending-`p` accumulation from `0.0`
/// per output element keeps bit-identity with the reference.
pub(crate) fn matmul_lut(a: &Tensor, b: &Tensor, lut: DenseLut<'_>) -> Tensor {
    let (m, k) = a.dims2("approx_matmul lhs");
    let (_, n) = b.dims2("approx_matmul rhs");
    let table = lut.table();
    let side = lut.side();
    let arows: Vec<usize> = a.data().iter().map(|&v| lut.row(v)).collect();
    let bcols: Vec<usize> = b.data().iter().map(|&v| lut.col(v)).collect();
    let mut out = Tensor::zeros(&[m, n]);
    let od = out.data_mut();
    if n == 1 {
        // Matrix–vector shape (the CNN dense head: [classes, h·w] × a
        // flattened activation column): the tiled loop degenerates to
        // one-element row slices, so accumulate each output scalar
        // directly. Still ascending-p from 0.0 — bit-identical.
        for (i, o) in od.iter_mut().enumerate() {
            let mut acc = 0.0;
            for p in 0..k {
                acc += table[arows[i * k + p] + bcols[p]];
            }
            *o = acc;
        }
        return out;
    }
    for j0 in (0..n).step_by(J_TILE) {
        let j1 = (j0 + J_TILE).min(n);
        for i in 0..m {
            let orow = &mut od[i * n + j0..i * n + j1];
            for p in 0..k {
                let row = &table[arows[i * k + p]..][..side];
                let bc = &bcols[p * n + j0..p * n + j1];
                let mut pairs = orow.chunks_exact_mut(4).zip(bc.chunks_exact(4));
                for (o, c) in &mut pairs {
                    // Four independent output elements per iteration; each
                    // still receives its products in ascending-p order.
                    o[0] += row[c[0]];
                    o[1] += row[c[1]];
                    o[2] += row[c[2]];
                    o[3] += row[c[3]];
                }
                let rem = bc.len() % 4;
                let base = bc.len() - rem;
                for jj in 0..rem {
                    orow[base + jj] += row[bc[base + jj]];
                }
            }
        }
    }
    out
}

/// `g · bᵀ` without materializing `bᵀ`: `g` is `[m, n]`, `b` is `[k, n]`,
/// output `[m, k]`. Mirrors `Tensor::matmul(g, b.transpose())` — loop
/// order, zero-skip, and accumulation association included — so gradients
/// are bit-identical to the transpose-then-matmul reference.
pub(crate) fn matmul_abt(g: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = g.dims2("matmul_abt lhs");
    let (k, n2) = b.dims2("matmul_abt rhs");
    assert_eq!(n, n2, "matmul_abt inner dimension mismatch: {n} vs {n2}");
    let gd = g.data();
    let bd = b.data();
    let mut out = Tensor::zeros(&[m, k]);
    let od = out.data_mut();
    for i in 0..m {
        for p in 0..n {
            let a = gd[i * n + p];
            if a == 0.0 {
                continue;
            }
            for j in 0..k {
                od[i * k + j] += a * bd[j * n + p];
            }
        }
    }
    out
}

/// `aᵀ · g` without materializing `aᵀ`: `a` is `[m, k]`, `g` is `[m, n]`,
/// output `[k, n]`. Mirrors `Tensor::matmul(a.transpose(), g)` exactly.
pub(crate) fn matmul_atb(a: &Tensor, g: &Tensor) -> Tensor {
    let (m, k) = a.dims2("matmul_atb lhs");
    let (m2, n) = g.dims2("matmul_atb rhs");
    assert_eq!(m, m2, "matmul_atb inner dimension mismatch: {m} vs {m2}");
    let ad = a.data();
    let gd = g.data();
    let mut out = Tensor::zeros(&[k, n]);
    let od = out.data_mut();
    for i in 0..k {
        for p in 0..m {
            let av = ad[p * k + i];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                od[i * n + j] += av * gd[p * n + j];
            }
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
    /// across units and shapes (including `n == 1` and sizes that are not
    /// a multiple of the tile), for operands that change between calls,
    /// and for full-range signed permutations as either operand.
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
                (J_TILE + 3, 5, J_TILE + 6),
            ] {
                let a = tensor(3, m, k, 300.0);
                let b = tensor(17, k, n, 300.0);
                assert_matches_gather(&a, &b, lut, &format!("{name} {m}x{k}x{n}"));
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

    /// Degenerate shapes: 1×N, N×1, empty, and non-multiple-of-tile sizes
    /// must all agree with the reference.
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
            (J_TILE + 3, 2, J_TILE + 1),
            (2, 3, 2 * J_TILE),
        ];
        for (m, k, n) in shapes {
            let a = tensor(5, m, k, 200.0);
            let b = tensor(23, k, n, 200.0);
            assert_matches_gather(&a, &b, lut, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn fused_backward_kernels_match_transposed_matmuls() {
        for (m, k, n) in [(8, 8, 8), (2, 5, 3), (1, 4, 6), (7, 1, 2), (3, 3, 0)] {
            let a = tensor(11, m, k, 50.0);
            let b = tensor(13, k, n, 50.0);
            let mut g = tensor(19, m, n, 20.0);
            // Exercise the zero-skip branch.
            if !g.is_empty() {
                g.data_mut()[0] = 0.0;
            }
            let da_ref = g.matmul(&b.transpose());
            let db_ref = a.transpose().matmul(&g);
            let da = matmul_abt(&g, &b);
            let db = matmul_atb(&a, &g);
            assert_eq!(da.shape(), da_ref.shape());
            assert_eq!(db.shape(), db_ref.shape());
            for (x, y) in da.data().iter().zip(da_ref.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "abt {m}x{k}x{n}");
            }
            for (x, y) in db.data().iter().zip(db_ref.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "atb {m}x{k}x{n}");
            }
        }
    }
}
