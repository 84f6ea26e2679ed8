//! Determinism regression tests: the reproduction's training results
//! must be a pure function of the seed, independent of how many worker
//! threads evaluate batches.
//!
//! LAC's gate search and coefficient training are seed-sensitive
//! (two-path sampling, minibatch rotation), so "same seed, same result"
//! is a scientific requirement, not a convenience. These tests train a
//! short fixed-hardware FIR run and compare coefficient tensors
//! **bit-for-bit** across repeated runs and across 1-thread vs 4-thread
//! evaluation configurations.

use lac_apps::{FirApp, FirKind, FirStageMode, Kernel};
use lac_core::{train_fixed, FixedResult, TrainConfig};
use lac_data::SignalDataset;

fn short_fir_run(seed: u64, threads: usize) -> FixedResult {
    let app = FirApp::new(FirKind::LowPass9, FirStageMode::Single);
    let mult = app.adapt(&lac_hw::catalog::by_name("ETM8-k4").unwrap());
    let data = SignalDataset::generate(6, 2, 96, 11);
    let config = TrainConfig::new().epochs(8).seed(seed).threads(threads);
    train_fixed(&app, &mult, &data.train, &data.test, &config)
        .expect("training")
}

fn assert_bit_identical(a: &FixedResult, b: &FixedResult, what: &str) {
    assert_eq!(a.coeffs.len(), b.coeffs.len(), "{what}: coefficient count");
    for (i, (ca, cb)) in a.coeffs.iter().zip(&b.coeffs).enumerate() {
        assert_eq!(ca.shape(), cb.shape(), "{what}: coeff {i} shape");
        for (x, y) in ca.data().iter().zip(cb.data()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: coeff {i} differs ({x} vs {y})"
            );
        }
    }
    assert_eq!(a.loss_history.len(), b.loss_history.len(), "{what}: history length");
    for (s, (x, y)) in a.loss_history.iter().zip(&b.loss_history).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: loss at step {s} ({x} vs {y})");
    }
    assert_eq!(a.after.to_bits(), b.after.to_bits(), "{what}: final quality");
}

#[test]
fn same_seed_same_run_bit_identical() {
    let a = short_fir_run(42, 2);
    let b = short_fir_run(42, 2);
    assert_bit_identical(&a, &b, "repeat run");
}

#[test]
fn training_is_invariant_to_eval_worker_count() {
    let one = short_fir_run(42, 1);
    for threads in [2, 4] {
        let many = short_fir_run(42, threads);
        assert_bit_identical(&one, &many, &format!("1 vs {threads} threads"));
    }
}

#[test]
fn different_seeds_are_decorrelated_but_both_deterministic() {
    // The fixed-hardware trainer is deterministic given the data; the
    // seed enters through minibatch rotation and (in NAS) sampling. A
    // different *data* seed must change the run.
    let a = short_fir_run(1, 2);
    let b = short_fir_run(1, 2);
    assert_bit_identical(&a, &b, "seed 1 repeat");

    let app = FirApp::new(FirKind::LowPass9, FirStageMode::Single);
    let mult = app.adapt(&lac_hw::catalog::by_name("ETM8-k4").unwrap());
    let d1 = SignalDataset::generate(6, 2, 96, 11);
    let d2 = SignalDataset::generate(6, 2, 96, 12);
    let config = TrainConfig::new().epochs(4).threads(2);
    let r1 = train_fixed(&app, &mult, &d1.train, &d1.test, &config).expect("training");
    let r2 = train_fixed(&app, &mult, &d2.train, &d2.test, &config).expect("training");
    assert_ne!(
        r1.loss_history.first().map(|l| l.to_bits()),
        r2.loss_history.first().map(|l| l.to_bits()),
        "different data seeds should give different losses"
    );
}

/// The gate-search entry point is seed-deterministic end to end (a
/// smaller, faster cousin of the FIR check covering the NAS sampling
/// path through the hermetic PRNG).
#[test]
fn gate_search_is_seed_deterministic() {
    use lac_core::{search_single, NasResult, NullObserver};

    let run = |seed: u64| -> NasResult {
        let app = FirApp::new(FirKind::HighBoost5, FirStageMode::Single);
        let data = SignalDataset::generate(4, 2, 64, 3);
        let candidates: Vec<_> = ["ETM8-k4", "mul8u_FTA", "exact8u"]
            .iter()
            .map(|n| lac_hw::catalog::by_name(n).unwrap())
            .collect();
        let config = TrainConfig::new().epochs(6).seed(seed).threads(2);
        search_single(&app, &candidates, &data.train, &data.test, &config, 0.3, &mut NullObserver)
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.chosen, b.chosen, "chosen unit must match");
    assert_eq!(a.probabilities, b.probabilities, "gate probabilities must match");
    assert_eq!(
        a.quality.to_bits(),
        b.quality.to_bits(),
        "final quality must be bit-identical"
    );
}
