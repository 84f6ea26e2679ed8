//! Observer telemetry: every trainer/search entry point must emit
//! per-epoch events through the engine's `TrainObserver` hook.

use std::sync::Arc;

use lac::apps::{FilterApp, FilterKind, Kernel, StageMode};
use lac::core::{
    brute_force, greedy_multi, search_accuracy_constrained, search_multi, search_single,
    train_fixed_multistart, train_fixed_observed, JsonlObserver, MemoryObserver, MultiObjective,
    NullObserver, TrainConfig, TrainObserver,
};
use lac::data::{synth_image, GrayImage};
use lac::hw::{catalog, Multiplier};
use lac::tensor::Tensor;

fn images(range: std::ops::Range<u64>) -> Vec<GrayImage> {
    range.map(|i| synth_image(32, 32, i)).collect()
}

fn adapt(app: &FilterApp, names: &[&str]) -> Vec<Arc<dyn Multiplier>> {
    names.iter().map(|n| app.adapt(&catalog::by_name(n).unwrap())).collect()
}

fn count_run(obs: &MemoryObserver, run: &str) -> usize {
    let tag = format!("\"run\":\"{run}\"");
    obs.lines.iter().filter(|l| l.contains(&tag)).count()
}

#[test]
fn all_entry_points_emit_per_epoch_events() {
    let train = images(0..6);
    let test = images(40..42);
    let single = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let per_tap = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
    let mult = single.adapt(&catalog::by_name("mul8u_FTA").unwrap());
    let candidates = adapt(&single, &["mul8u_FTA", "DRUM16-4"]);
    let tap_candidates = adapt(&per_tap, &["mul8u_FTA", "DRUM16-4"]);
    let cfg = TrainConfig::new().epochs(6).learning_rate(2.0).minibatch(3).threads(2).seed(1);
    let objective = MultiObjective::AreaConstrained { area_threshold: 0.3, gamma: 0.9, delta: 1.0 };

    let mut obs = MemoryObserver::new();
    let _ = train_fixed_observed(&single, &mult, &train, &test, &cfg, &mut obs);
    assert_eq!(count_run(&obs, "fixed"), 6, "train_fixed must emit one event per epoch");

    let mut obs = MemoryObserver::new();
    let _ = train_fixed_multistart(&single, &mult, &train, &test, &cfg, &[0, 3], &mut obs)
        .expect("training");
    assert_eq!(count_run(&obs, "fixed"), 12, "multistart must emit events for every restart");
    assert!(obs.lines.iter().any(|l| l.contains("+restart1")), "restarts must be labeled");

    let mut obs = MemoryObserver::new();
    let _ = search_single(&single, &candidates, &train, &test, &cfg, 2.0, &mut obs);
    assert_eq!(count_run(&obs, "search-single"), 6);
    assert!(obs.lines.iter().all(|l| l.contains("\"gate_probs\":[[")), "events carry gate probs");

    let mut obs = MemoryObserver::new();
    let _ = search_accuracy_constrained(
        &single,
        &candidates,
        &train,
        &test,
        &cfg,
        2.0,
        0.7,
        10.0,
        &mut obs,
    );
    assert_eq!(count_run(&obs, "search-accuracy"), 6);

    let mut obs = MemoryObserver::new();
    let _ = search_multi(
        &per_tap,
        &tap_candidates,
        &train,
        &test,
        &cfg,
        0.8,
        objective,
        &mut obs,
    );
    assert_eq!(count_run(&obs, "search-multi"), 6);
    assert!(count_run(&obs, "fine-tune") > 0, "verification fine-tunes must be observed");

    let mut obs = MemoryObserver::new();
    let _ = brute_force(&single, &candidates, &train, &test, &cfg, &mut obs);
    assert_eq!(count_run(&obs, "fixed"), 12, "brute force trains every candidate");

    let greedy_cfg = TrainConfig::new().epochs(2).learning_rate(2.0).minibatch(3).threads(2);
    let mut obs = MemoryObserver::new();
    let _ = greedy_multi(
        &per_tap,
        &tap_candidates,
        &train,
        &test,
        &greedy_cfg,
        objective,
        &mut obs,
    );
    // 9 stages × 2 candidates × 2 epochs of per-option training.
    assert_eq!(count_run(&obs, "greedy"), 36);
    assert!(obs.lines.iter().any(|l| l.contains("stage0:")), "greedy details name the stage");
    assert_eq!(count_run(&obs, "fine-tune"), 2, "final polish runs config.epochs");
}

#[test]
fn events_are_valid_json_lines() {
    let train = images(0..4);
    let test = images(40..42);
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let mult = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
    let cfg = TrainConfig::new().epochs(3).learning_rate(2.0).threads(2);
    let mut obs = MemoryObserver::new();
    let _ = train_fixed_observed(&app, &mult, &train, &test, &cfg, &mut obs);
    for line in &obs.lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
        for key in ["\"run\":", "\"detail\":", "\"epoch\":", "\"loss\":", "\"seconds\":"] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(!line.contains('\n'), "event spans multiple lines");
    }
}

#[test]
fn jsonl_observer_writes_run_log() {
    let train = images(0..4);
    let test = images(40..42);
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let mult = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
    let cfg = TrainConfig::new().epochs(4).learning_rate(2.0).threads(2);
    let dir = std::env::temp_dir().join("lac-telemetry-test");
    let path = dir.join("runs").join("fixed.jsonl");
    {
        let mut obs = JsonlObserver::create(&path).expect("create run log");
        let _ = train_fixed_observed(&app, &mult, &train, &test, &cfg, &mut obs);
    }
    let text = std::fs::read_to_string(&path).expect("read run log");
    assert_eq!(text.lines().count(), 4);
    assert!(text.lines().all(|l| l.contains("\"run\":\"fixed\"")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observed_and_plain_entry_points_agree() {
    // The observer hook must be pure telemetry: same bits with and
    // without it.
    let train = images(0..6);
    let test = images(40..42);
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let mult = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
    let cfg = TrainConfig::new().epochs(5).learning_rate(2.0).minibatch(3).threads(2);
    let plain = lac::core::train_fixed(&app, &mult, &train, &test, &cfg).expect("training");
    let mut obs = MemoryObserver::new();
    let observed = train_fixed_observed(&app, &mult, &train, &test, &cfg, &mut obs).expect("training");
    assert_eq!(plain.after.to_bits(), observed.after.to_bits());
    for (a, b) in plain.coeffs.iter().zip(&observed.coeffs) {
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    let candidates = adapt(&app, &["mul8u_JV3", "mul8u_FTA", "DRUM16-4"]);
    let cfg = cfg.seed(4);
    let quiet = search_single(&app, &candidates, &train, &test, &cfg, 2.0, &mut NullObserver);
    let mut obs = MemoryObserver::new();
    let watched = search_single(&app, &candidates, &train, &test, &cfg, 2.0, &mut obs);
    assert!(!obs.is_empty());
    assert_eq!(quiet.chosen, watched.chosen);
    assert_eq!(quiet.quality.to_bits(), watched.quality.to_bits());
    assert_eq!(bits(&quiet.probabilities), bits(&watched.probabilities));
    assert_eq!(coeff_bits(&quiet.coeffs), coeff_bits(&watched.coeffs));

    let per_tap = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
    let candidates = adapt(&per_tap, &["mul8u_FTA", "DRUM16-4"]);
    let objective = MultiObjective::AreaConstrained { area_threshold: 0.3, gamma: 0.9, delta: 1.0 };
    let search = |obs: &mut dyn TrainObserver| {
        search_multi(&per_tap, &candidates, &train, &test, &cfg, 0.8, objective, obs)
    };
    let quiet = search(&mut NullObserver);
    let mut obs = MemoryObserver::new();
    let watched = search(&mut obs);
    assert!(!obs.is_empty());
    assert_eq!(quiet.choices, watched.choices);
    assert_eq!(quiet.quality.to_bits(), watched.quality.to_bits());
    assert_eq!(quiet.area.to_bits(), watched.area.to_bits());
    assert_eq!(coeff_bits(&quiet.coeffs), coeff_bits(&watched.coeffs));
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn coeff_bits(coeffs: &[Tensor]) -> Vec<Vec<u64>> {
    coeffs.iter().map(|t| bits(t.data())).collect()
}

#[test]
fn patience_limits_fixed_training_epochs() {
    let train = images(0..6);
    let test = images(40..42);
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    // Exact hardware: loss is zero from the first step, so nothing ever
    // improves after epoch 0 and patience must cut the run short.
    let mult = app.adapt(&catalog::by_name("exact16u").unwrap());
    let cfg = TrainConfig::new().epochs(40).threads(2).patience(2);
    let r = lac::core::train_fixed(&app, &mult, &train, &test, &cfg).expect("training");
    assert_eq!(r.loss_history.len(), 3, "1 improving epoch + 2 stale epochs");
}

// Silence unused-import warnings for trait method resolution.
#[allow(dead_code)]
fn _assert_observer_is_object_safe(_: &mut dyn TrainObserver) {}
