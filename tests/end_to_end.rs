//! Cross-crate integration tests: the full LAC loop from dataset through
//! hardware models, autodiff training, and quality metrics.
//!
//! Sizes are kept small so the suite stays fast in debug builds; the
//! paper-scale runs live in `lac-bench`.

use lac::apps::{FilterApp, FilterKind, InverseK2jApp, JpegApp, JpegMode, Kernel, StageMode};
use lac::core::{search_single, train_fixed, NullObserver, TrainConfig};
use lac::data::{IkDataset, ImageDataset};
use lac::hw::catalog;
use lac::hw::LutMultiplier;

fn small_images() -> ImageDataset {
    ImageDataset::generate(6, 3, 32, 32, 123)
}

fn cfg(epochs: usize, lr: f64) -> TrainConfig {
    TrainConfig::new().epochs(epochs).learning_rate(lr).threads(4).seed(7)
}

#[test]
fn fixed_lac_rescues_etm_blur() {
    // The paper's marquee behaviour: ETM is almost unusable for the
    // unaltered Gaussian blur (small coefficients fall into the estimated
    // path) and LAC training rescues it.
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let mult = app.adapt(&LutMultiplier::maybe_wrap(catalog::by_name("ETM8-k4").unwrap()));
    let data = small_images();
    let result = train_fixed(&app, &mult, &data.train, &data.test, &cfg(100, 2.0)).expect("training");
    assert!(result.before < 0.5, "untrained ETM blur should be poor, got {}", result.before);
    assert!(result.after > 0.8, "trained ETM blur should be good, got {}", result.after);
}

#[test]
fn fixed_lac_rescues_operand_masking_blur() {
    // mul8s_1KR3 zeroes low operand bits: original taps {1,2,4} vanish,
    // trained taps must become multiples of 8 (up to quantized wobble).
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let mult = app.adapt(&LutMultiplier::maybe_wrap(catalog::by_name("mul8s_1KR3").unwrap()));
    let data = small_images();
    let result = train_fixed(&app, &mult, &data.train, &data.test, &cfg(60, 2.0)).expect("training");
    assert!(result.before < 0.1, "masked blur should start broken, got {}", result.before);
    assert!(result.after > 0.7, "masked blur should be trainable, got {}", result.after);
}

#[test]
fn training_is_deterministic() {
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let mult = app.adapt(&LutMultiplier::maybe_wrap(catalog::by_name("mul8u_FTA").unwrap()));
    let data = small_images();
    let a = train_fixed(&app, &mult, &data.train, &data.test, &cfg(10, 2.0)).expect("training");
    let b = train_fixed(&app, &mult, &data.train, &data.test, &cfg(10, 2.0)).expect("training");
    assert_eq!(a.before, b.before);
    assert_eq!(a.after, b.after);
    for (ca, cb) in a.coeffs.iter().zip(&b.coeffs) {
        assert_eq!(ca.data(), cb.data());
    }
}

#[test]
fn nas_search_prefers_accurate_hardware_end_to_end() {
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let candidates: Vec<_> = ["mul8u_JV3", "mul8u_185Q"]
        .iter()
        .map(|n| app.adapt(&LutMultiplier::maybe_wrap(catalog::by_name(n).unwrap())))
        .collect();
    let data = small_images();
    let result = search_single(
        &app,
        &candidates,
        &data.train,
        &data.test,
        &cfg(20, 2.0),
        2.0,
        &mut NullObserver,
    );
    assert_eq!(result.chosen_name(), "mul8u_185Q");
    assert!(result.quality > 0.95, "185Q blur should be near-perfect, got {}", result.quality);
}

#[test]
fn jpeg_pipeline_end_to_end_with_exact_hardware() {
    let app = JpegApp::new(JpegMode::Single);
    let mult = app.adapt(&catalog::by_name("exact16u").unwrap());
    let data = ImageDataset::generate(2, 2, 32, 32, 5);
    let result = train_fixed(&app, &mult, &data.train, &data.test, &cfg(2, 1.0)).expect("training");
    // The integer pipeline with exact multipliers is already close to the
    // float reference; training must not break it.
    assert!(result.before > 35.0, "exact JPEG PSNR {}", result.before);
    assert!(result.after >= result.before);
}

#[test]
fn inversek2j_end_to_end() {
    let app = InverseK2jApp::new();
    let mult = app.adapt(&catalog::by_name("DRUM16-4").unwrap());
    let data = IkDataset::generate(64, 32, 3);
    let result = train_fixed(&app, &mult, &data.train, &data.test, &cfg(25, 50.0)).expect("training");
    // Relative error: lower is better, and training must not make it worse.
    assert!(result.after <= result.before);
    assert!(result.after < 0.5, "DRUM16-4 IK error {}", result.after);
}

#[test]
fn trained_coefficients_respect_bounds() {
    let app = FilterApp::new(FilterKind::EdgeDetection, StageMode::Single);
    let mult = app.adapt(&LutMultiplier::maybe_wrap(catalog::by_name("mul8s_1KVL").unwrap()));
    let data = small_images();
    let result = train_fixed(&app, &mult, &data.train, &data.test, &cfg(15, 3.0)).expect("training");
    let bounds = app.coeff_bounds(std::slice::from_ref(&mult));
    for (coeff, (lo, hi)) in result.coeffs.iter().zip(bounds) {
        let v = coeff.item().round().clamp(lo, hi);
        assert!((lo..=hi).contains(&v));
    }
}
