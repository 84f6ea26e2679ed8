//! Throughput of `approx_matmul` at the JPEG/DFT hot shapes: the scalar
//! trait-object path against the register-blocked LUT kernel (four
//! output columns accumulated in registers across the inner dimension),
//! the latter with no operand repeating (`gather`) and with a fixed
//! coefficient matrix on either side (`fixed_lhs`, `fixed_rhs`), plus a
//! full forward+backward step exercising the register-blocked
//! surrogate-gradient kernels. Every LUT row runs the same kernel over
//! the multiplier's `f64` product table, with operands quantized by the
//! inlined `round_half_away`; the ids are kept so results stay comparable
//! with the committed baseline. All paths are bit-identical (see
//! `tests/matmul_equivalence`); this suite tracks their relative cost.
//!
//! Writes `BENCH_matmul_kernels.json`; see `lac_rt::bench` for the
//! protocol and `LAC_BENCH_FAST` / `LAC_BENCH_SAMPLES` knobs.

use lac_hw::{catalog, signed_capable, LutMultiplier};
use lac_rt::bench::Harness;
use lac_tensor::{Graph, Tensor};
use std::hint::black_box;
use std::sync::Arc;

/// Deterministic signed integer operand in `[-hi, hi]`.
fn operand(n: usize, hi: i64, salt: u64) -> Tensor {
    let mut x: u64 = 0x9e3779b97f4a7c15 ^ salt;
    let data = (0..n * n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) as i64 % (2 * hi + 1) - hi) as f64
        })
        .collect();
    Tensor::from_vec(data, &[n, n])
}

fn main() {
    let mut h = Harness::new("matmul_kernels");
    let mut group = h.group("matmul_kernels");

    let raw = signed_capable(catalog::by_name("mul8u_FTA").unwrap());
    let fast = LutMultiplier::maybe_wrap(Arc::clone(&raw));
    let (_, hi) = raw.operand_range();

    for n in [8usize, 12] {
        let fixed = operand(n, hi, 1);
        // Distinct varying operands, cycled so no call sees the same
        // partner as the previous one.
        let partners: Vec<Tensor> = (0..32).map(|s| operand(n, hi, 100 + s)).collect();

        // Scalar path: one virtual multiply per product.
        group.bench_function(format!("{n}x{n}/scalar"), |b| {
            let mut i = 0;
            b.iter(|| {
                let g = Graph::new();
                let a = g.var(fixed.clone());
                let x = g.var(partners[i % partners.len()].clone());
                i += 1;
                black_box(a.approx_matmul(&x, &raw).value())
            })
        });

        // LUT kernel, no operand repeats.
        group.bench_function(format!("{n}x{n}/gather"), |b| {
            let mut i = 0;
            b.iter(|| {
                let g = Graph::new();
                let a = g.var(partners[i % partners.len()].clone());
                let x = g.var(partners[(i + 1) % partners.len()].clone());
                i += 2;
                black_box(a.approx_matmul(&x, &fast).value())
            })
        });

        // LUT kernel with the coefficient matrix fixed across calls.
        group.bench_function(format!("{n}x{n}/fixed_lhs"), |b| {
            let mut i = 0;
            b.iter(|| {
                let g = Graph::new();
                let a = g.var(fixed.clone());
                let x = g.var(partners[i % partners.len()].clone());
                i += 1;
                black_box(a.approx_matmul(&x, &fast).value())
            })
        });
        group.bench_function(format!("{n}x{n}/fixed_rhs"), |b| {
            let mut i = 0;
            b.iter(|| {
                let g = Graph::new();
                let x = g.var(partners[i % partners.len()].clone());
                let a = g.var(fixed.clone());
                i += 1;
                black_box(x.approx_matmul(&a, &fast).value())
            })
        });

        // Forward + backward: fused matmul_abt / matmul_atb surrogate
        // kernels dominate the tape replay.
        group.bench_function(format!("{n}x{n}/fwd_bwd"), |b| {
            let mut i = 0;
            b.iter(|| {
                let g = Graph::new();
                let a = g.var(fixed.clone());
                let x = g.var(partners[i % partners.len()].clone());
                i += 1;
                let loss = a.approx_matmul(&x, &fast).sum();
                let grads = g.backward(&loss);
                black_box(grads.get(&a))
            })
        });
    }
    group.finish();
    h.finish();
}
