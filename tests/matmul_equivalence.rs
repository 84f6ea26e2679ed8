//! Bit-equivalence battery for the blocked LUT-matmul kernels.
//!
//! `approx_matmul` has two implementations that must be observably one:
//! the scalar trait-object path (one virtual `multiply` per product) and
//! the LUT fast path in `lac-tensor::matmul_fast` (one register-blocked
//! gather kernel over the `f64` product table, with fused
//! surrogate-gradient kernels). These tests pin the contract from
//! DESIGN.md §7d: for every catalog unit — healthy or fault-injected —
//! forward values and surrogate gradients are bit-identical across the
//! two paths, across repeated calls with one operand held fixed, and
//! across worker counts.

use std::sync::Arc;

use lac::core::{batch_grads, batch_references};
use lac::data::synth_image;
use lac::hw::{catalog, signed_capable, LutMultiplier, Multiplier};
use lac::tensor::{Graph, Tensor};
use lac_rt::rng::{RngExt, SeedableRng, StdRng};

/// Forward bits and (grad-a, grad-b) bits of `sum(approx_matmul(a, b))`.
fn run(mult: &Arc<dyn Multiplier>, a: &Tensor, b: &Tensor) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let g = Graph::new();
    let va = g.var(a.clone());
    let vb = g.var(b.clone());
    let out = va.approx_matmul(&vb, mult);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let value = bits(&out.value());
    let grads = g.backward(&out.sum());
    (value, bits(&grads.get(&va)), bits(&grads.get(&vb)))
}

/// Random integer-valued operand in the unit's operand range.
fn random_operand(rng: &mut StdRng, rows: usize, cols: usize, lo: i64, hi: i64) -> Tensor {
    // Keep 16-bit ranges exercised without astronomically large sums.
    let (lo, hi) = (lo.max(-4096), hi.min(4096));
    let data = (0..rows * cols).map(|_| rng.random_range(lo..=hi) as f64).collect();
    Tensor::from_vec(data, &[rows, cols])
}

/// Scalar path (raw unit) vs fast path (LUT-wrapped) over random shapes,
/// repeating each product with one operand held fixed on either side, as
/// the training loop holds its coefficient matrix.
fn assert_paths_equivalent(raw: Arc<dyn Multiplier>, seed: u64) {
    let fast = LutMultiplier::maybe_wrap(Arc::clone(&raw));
    let (lo, hi) = raw.operand_range();
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..4 {
        let (m, k, n) = (
            rng.random_range(1..=9usize),
            rng.random_range(1..=9usize),
            rng.random_range(1..=9usize),
        );
        let a = random_operand(&mut rng, m, k, lo, hi);
        let b = random_operand(&mut rng, k, n, lo, hi);
        // Fixed lhs, varying rhs — then the converse. Three calls each:
        // repeated calls must stay bit-identical to the scalar path.
        for rep in 0..3 {
            let b2 = if rep == 0 { b.clone() } else { random_operand(&mut rng, k, n, lo, hi) };
            let scalar = run(&raw, &a, &b2);
            let lut = run(&fast, &a, &b2);
            assert_eq!(scalar, lut, "{}: fixed-lhs trial {trial} rep {rep}", raw.name());

            let a2 = if rep == 0 { a.clone() } else { random_operand(&mut rng, m, k, lo, hi) };
            let scalar = run(&raw, &a2, &b);
            let lut = run(&fast, &a2, &b);
            assert_eq!(scalar, lut, "{}: fixed-rhs trial {trial} rep {rep}", raw.name());
        }
    }
}

/// Forward/grad bits of the fused dense-head op `approx_matmul_scale_round`
/// — the exact node `CnnApp` records for its classifier layer.
fn run_dense(
    mult: &Arc<dyn Multiplier>,
    a: &Tensor,
    b: &Tensor,
    c: f64,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let g = Graph::new();
    let va = g.var(a.clone());
    let vb = g.var(b.clone());
    let out = va.approx_matmul_scale_round(&vb, mult, c);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let value = bits(&out.value());
    let grads = g.backward(&out.sum());
    (value, bits(&grads.get(&va)), bits(&grads.get(&vb)))
}

/// Forward/grad bits of `approx_conv2d_stacked` — the batched conv node
/// the CNN layers record (images stacked vertically, shared 3x3 taps).
fn run_conv_stacked(
    mult: &Arc<dyn Multiplier>,
    x: &Tensor,
    k: &Tensor,
    img_h: usize,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let g = Graph::new();
    let vx = g.var(x.clone());
    let vk = g.var(k.clone());
    let out = vx.approx_conv2d_stacked(&vk, mult, img_h);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let value = bits(&out.value());
    let grads = g.backward(&out.sum());
    (value, bits(&grads.get(&vx)), bits(&grads.get(&vk)))
}

/// Scalar vs fast path at the CNN layer dimensions: the non-square dense
/// head (classes x h*w times a flattened activation column, hitting the
/// n == 1 matrix-vector kernels), the same shape through the fused
/// scale-round node, and the batch-stacked 3x3 convolution. Repeats hold
/// one operand fixed across calls, as training and serving do.
fn assert_cnn_shapes_equivalent(raw: Arc<dyn Multiplier>, seed: u64) {
    let fast = LutMultiplier::maybe_wrap(Arc::clone(&raw));
    let (lo, hi) = raw.operand_range();
    let mut rng = StdRng::seed_from_u64(seed);

    // Dense head: weights [4, 256] x flattened activations [256, 1].
    // Fixed lhs (the trained weights) against varying activation columns
    // — three calls with the same weights.
    let w = random_operand(&mut rng, 4, 256, lo, hi);
    for rep in 0..3 {
        let col = random_operand(&mut rng, 256, 1, lo, hi);
        let scalar = run(&raw, &w, &col);
        let lut = run(&fast, &w, &col);
        assert_eq!(scalar, lut, "{}: dense matvec rep {rep}", raw.name());
        // The fused datapath-shift node CnnApp actually records.
        let scalar = run_dense(&raw, &w, &col, 2f64.powi(-4));
        let lut = run_dense(&fast, &w, &col, 2f64.powi(-4));
        assert_eq!(scalar, lut, "{}: dense scale-round rep {rep}", raw.name());
    }
    // Fixed rhs: one activation column against varying weight matrices
    // (the converse fixed operand, also the n == 1 branch).
    let col = random_operand(&mut rng, 256, 1, lo, hi);
    for rep in 0..3 {
        let w2 = random_operand(&mut rng, 4, 256, lo, hi);
        let scalar = run(&raw, &w2, &col);
        let lut = run(&fast, &w2, &col);
        assert_eq!(scalar, lut, "{}: dense fixed-rhs rep {rep}", raw.name());
    }

    // Conv layers: three 16x16 images stacked vertically, one shared
    // 3x3 tap tensor, same-padded — the CnnApp conv1/conv2 shape.
    let taps = random_operand(&mut rng, 3, 3, lo, hi);
    for rep in 0..2 {
        let stacked = random_operand(&mut rng, 3 * 16, 16, lo, hi);
        let scalar = run_conv_stacked(&raw, &stacked, &taps, 16);
        let lut = run_conv_stacked(&fast, &stacked, &taps, 16);
        assert_eq!(scalar, lut, "{}: stacked conv rep {rep}", raw.name());
    }
}

#[test]
fn every_catalog_unit_is_bit_identical_across_paths() {
    for name in catalog::PAPER_NAMES.iter().chain(catalog::EXTRA_NAMES.iter()) {
        let raw = catalog::by_name(name).expect("catalog unit");
        assert_paths_equivalent(raw, 0x1ac0 ^ name.len() as u64);
    }
}

/// The JPEG/DFT hot path wraps units in the sign-magnitude adapter first;
/// the tabulated signed table must agree with the virtual adapter.
#[test]
fn signed_adapters_are_bit_identical_across_paths() {
    for name in ["mul8u_FTA", "ETM8-k4", "mul8u_JV3", "kulkarni8u"] {
        let raw = signed_capable(catalog::by_name(name).expect("catalog unit"));
        assert_paths_equivalent(raw, 0x51ed ^ name.len() as u64);
    }
}

/// Fault-injected units tabulate their faults into the LUT; the fast
/// path must reproduce the degraded products bit-for-bit.
#[test]
fn fault_injected_units_are_bit_identical_across_paths() {
    for spec in
        ["mul8u_FTA!seed=7,flip=0.01", "ETM8-k4!seed=7,flip=0.01", "mul8s_1KR3!seed=7,flip=0.05"]
    {
        let raw = catalog::by_spec(spec).expect("fault spec");
        assert_paths_equivalent(raw, 0xfa11);
    }
}

/// CNN layer dimensions for every catalog unit: the dense head's
/// non-square matrix-vector shapes and the batch-stacked convolution
/// must be bit-identical across paths, values and gradients alike.
#[test]
fn every_catalog_unit_is_bit_identical_at_cnn_shapes() {
    for name in catalog::PAPER_NAMES.iter().chain(catalog::EXTRA_NAMES.iter()) {
        let raw = catalog::by_name(name).expect("catalog unit");
        assert_cnn_shapes_equivalent(raw, 0xc221 ^ name.len() as u64);
    }
}

/// The CNN app adapts units through the sign-magnitude wrapper (signed
/// taps and coefficients); the signed tables must agree at CNN shapes.
#[test]
fn signed_adapters_are_bit_identical_at_cnn_shapes() {
    for name in ["mul8u_FTA", "ETM8-k4", "mul8u_JV3", "kulkarni8u"] {
        let raw = signed_capable(catalog::by_name(name).expect("catalog unit"));
        assert_cnn_shapes_equivalent(raw, 0xc25e ^ name.len() as u64);
    }
}

/// Fault-injected units at CNN shapes: the degraded LUTs must flow
/// through the matvec and stacked-conv kernels bit-for-bit.
#[test]
fn fault_injected_units_are_bit_identical_at_cnn_shapes() {
    for spec in
        ["mul8u_FTA!seed=7,flip=0.01", "ETM8-k4!seed=7,flip=0.01", "mul8s_1KR3!seed=7,flip=0.05"]
    {
        let raw = catalog::by_spec(spec).expect("fault spec");
        assert_cnn_shapes_equivalent(raw, 0xc2fa);
    }
}

/// Worker count must not leak into results: batch gradients at 1, 2, and
/// 4 threads are bit-identical.
#[test]
fn jpeg_batch_grads_bit_identical_across_thread_counts() {
    use lac::apps::{JpegApp, JpegMode, Kernel};

    let app = JpegApp::new(JpegMode::Single);
    let mult = app.adapt(&catalog::by_name("mul8u_FTA").expect("catalog unit"));
    let mults = vec![mult];
    let coeffs = app.init_coeffs(&mults);
    let images: Vec<_> = (0..4).map(|i| synth_image(32, 32, 100 + i)).collect();
    let refs = batch_references(&app, &images);

    let (g1, l1) = batch_grads(&app, &coeffs, &mults, &images, &refs, 1);
    for threads in [2usize, 4] {
        let (gn, ln) = batch_grads(&app, &coeffs, &mults, &images, &refs, threads);
        assert_eq!(l1.to_bits(), ln.to_bits(), "loss drifted at {threads} threads");
        assert_eq!(g1.len(), gn.len());
        for (a, b) in g1.iter().zip(&gn) {
            let (ab, bb): (Vec<u64>, Vec<u64>) = (
                a.data().iter().map(|v| v.to_bits()).collect(),
                b.data().iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(ab, bb, "gradients drifted at {threads} threads");
        }
    }
}
