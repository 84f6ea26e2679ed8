//! Cross-crate integration tests of the trained-hardware (NAS) flows.

use std::sync::Arc;

use lac::apps::{FilterApp, FilterKind, FirApp, FirKind, FirStageMode, Kernel, StageMode};
use lac::core::{
    greedy_multi, mean_area, prune, search_accuracy_constrained, search_multi, Constraint,
    MultiObjective, NullObserver, TrainConfig,
};
use lac::data::{ImageDataset, SignalDataset};
use lac::hw::{catalog, LutMultiplier, Multiplier};

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig::new().epochs(epochs).learning_rate(2.0).threads(4).seed(11)
}

fn adapt<K: Kernel>(app: &K, names: &[&str]) -> Vec<Arc<dyn Multiplier>> {
    names
        .iter()
        .map(|n| app.adapt(&LutMultiplier::maybe_wrap(catalog::by_name(n).unwrap())))
        .collect()
}

#[test]
fn constraint_pruning_composes_with_search() {
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let candidates = adapt(&app, &["mul8u_JV3", "mul8u_FTA", "mul8u_185Q", "DRUM16-6"]);
    // An area budget of 0.1 admits JV3 (0.03) and FTA (0.07) only.
    let admitted = prune(&candidates, Constraint::Area(0.1));
    let names: Vec<&str> = admitted.iter().map(|m| m.name()).collect();
    assert_eq!(names, vec!["mul8u_JV3", "mul8u_FTA"]);

    let data = ImageDataset::generate(6, 3, 32, 32, 2);
    let result = lac::core::search_single(
        &app,
        &admitted,
        &data.train,
        &data.test,
        &cfg(30),
        2.0,
        &mut NullObserver,
    );
    // FTA trains to near-perfect blur; JV3 cannot.
    assert_eq!(result.chosen_name(), "mul8u_FTA");
}

#[test]
fn accuracy_constrained_search_respects_target() {
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let candidates = adapt(&app, &["mul8u_FTA", "mul8u_185Q"]);
    let data = ImageDataset::generate(8, 4, 32, 32, 3);
    let result = search_accuracy_constrained(
        &app,
        &candidates,
        &data.train,
        &data.test,
        &cfg(40),
        2.0,
        0.997, // only 185Q reaches this
        200.0,
        &mut NullObserver,
    );
    assert_eq!(result.chosen_name(), "mul8u_185Q");
    assert!(result.quality >= 0.997, "quality {}", result.quality);
}

#[test]
fn parallel_multi_hardware_respects_mean_area_budget() {
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
    let candidates = adapt(&app, &["mul8u_JV3", "mul8u_FTA", "DRUM16-6"]);
    let data = ImageDataset::generate(5, 3, 32, 32, 4);
    let result = search_multi(
        &app,
        &candidates,
        &data.train,
        &data.test,
        &cfg(60),
        1.0,
        MultiObjective::AreaConstrained { area_threshold: 0.08, gamma: 0.9, delta: 10.0 },
        &mut NullObserver,
    );
    assert_eq!(result.choices.len(), 9);
    assert!(
        result.area <= 0.12,
        "mean area {} far above the 0.08 budget: {:?}",
        result.area,
        result.assignment()
    );
    assert_eq!(result.area, mean_area(&candidates, &result.choices));
}

#[test]
fn greedy_and_nas_both_produce_valid_fir_assignments() {
    let app = FirApp::new(FirKind::LowPass9, FirStageMode::PerTap);
    let candidates = adapt(&app, &["mul8u_FTA", "DRUM16-4"]);
    let data = SignalDataset::generate(4, 2, 128, 5);
    let objective =
        MultiObjective::AreaConstrained { area_threshold: 0.2, gamma: 1.0, delta: 1.0 };
    let nas = search_multi(
        &app,
        &candidates,
        &data.train,
        &data.test,
        &cfg(20),
        1.0,
        objective,
        &mut NullObserver,
    );
    let greedy = greedy_multi(
        &app,
        &candidates,
        &data.train,
        &data.test,
        &cfg(3),
        objective,
        &mut NullObserver,
    );
    for r in [&nas, &greedy] {
        assert_eq!(r.choices.len(), 9);
        assert!(r.quality.is_finite());
        assert!(r.choices.iter().all(|&c| c < candidates.len()));
    }
}

#[test]
fn multi_nas_is_deterministic_per_seed() {
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
    let candidates = adapt(&app, &["mul8u_FTA", "mul8u_185Q"]);
    let data = ImageDataset::generate(4, 2, 32, 32, 8);
    let objective =
        MultiObjective::AreaConstrained { area_threshold: 0.1, gamma: 1.0, delta: 1.0 };
    let a = search_multi(
        &app,
        &candidates,
        &data.train,
        &data.test,
        &cfg(15),
        1.0,
        objective,
        &mut NullObserver,
    );
    let b = search_multi(
        &app,
        &candidates,
        &data.train,
        &data.test,
        &cfg(15),
        1.0,
        objective,
        &mut NullObserver,
    );
    assert_eq!(a.choices, b.choices);
    assert_eq!(a.quality, b.quality);
}
