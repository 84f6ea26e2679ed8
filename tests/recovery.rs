//! Recovery and fault-injection integration tests: checkpoint/resume
//! bit-exactness, divergence rollback through the public API, and the
//! seeded fault models end to end.

use std::time::Instant;

use lac::apps::{FilterApp, FilterKind, JpegApp, JpegMode, Kernel, StageMode};
use lac::core::{
    train_fixed, train_fixed_resumable, HardwarePlan, MemoryObserver, NullObserver, RunScope,
    SessionCheckpoint, TrainConfig, TrainError, TrainSession,
};
use lac::data::ImageDataset;
use lac::hw::{catalog, LutMultiplier};

fn blur_setup() -> (FilterApp, std::sync::Arc<dyn lac::hw::Multiplier>, ImageDataset) {
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let mult = app.adapt(&LutMultiplier::maybe_wrap(catalog::by_name("mul8u_FTA").unwrap()));
    let data = ImageDataset::generate(6, 3, 32, 32, 123);
    (app, mult, data)
}

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig::new().epochs(epochs).learning_rate(2.0).threads(4).seed(7).minibatch(2)
}

fn coeff_bits(coeffs: &[lac::tensor::Tensor]) -> Vec<Vec<u64>> {
    coeffs.iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
}

/// An interrupted-and-resumed training must reproduce the uninterrupted
/// run bit for bit: train 12 epochs straight, then 6 + 6 through a
/// checkpoint file, and compare every coefficient bit.
#[test]
fn resume_from_checkpoint_matches_uninterrupted_run() {
    let (app, mult, data) = blur_setup();
    let full =
        train_fixed(&app, &mult, &data.train, &data.test, &cfg(12)).expect("uninterrupted");

    let dir = std::env::temp_dir().join("lac-recovery-resume-test");
    let _ = std::fs::remove_dir_all(&dir);
    let ck = dir.join("ck.json");
    // Leg 1 stops after 6 epochs (simulating an interruption); leg 2
    // picks the checkpoint up and finishes the remaining 6.
    let leg1 = train_fixed_resumable(
        &app,
        &mult,
        &data.train,
        &data.test,
        &cfg(6),
        &ck,
        4,
        &mut NullObserver,
    )
    .expect("leg 1");
    assert!(ck.exists(), "leg 1 must leave a checkpoint behind");
    let leg2 = train_fixed_resumable(
        &app,
        &mult,
        &data.train,
        &data.test,
        &cfg(12),
        &ck,
        4,
        &mut NullObserver,
    )
    .expect("leg 2");

    assert_eq!(leg2.after.to_bits(), full.after.to_bits(), "final quality must be bit-equal");
    assert_eq!(coeff_bits(&leg2.coeffs), coeff_bits(&full.coeffs));
    // Leg 1 genuinely stopped early (it is a different, shorter run).
    assert_eq!(leg1.loss_history.len(), 6);
    assert_eq!(leg2.loss_history.len(), 12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write a 4-epoch blur/`mul8u_FTA` checkpoint into a fresh directory
/// named `name` under the system temp dir; returns (dir, checkpoint).
fn blur_checkpoint(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let (app, mult, data) = blur_setup();
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let ck = dir.join("ck.json");
    train_fixed_resumable(&app, &mult, &data.train, &data.test, &cfg(4), &ck, 4, &mut NullObserver)
        .expect("checkpointing run");
    (dir, ck)
}

/// The checkpoint error's reason, or a failure naming what came back.
fn checkpoint_reason(result: Result<lac::core::FixedResult, TrainError>) -> String {
    match result {
        Err(TrainError::Checkpoint { reason, .. }) => reason,
        other => panic!("expected a Checkpoint error, got {other:?}"),
    }
}

/// Resuming another multiplier's checkpoint must be refused, not
/// silently continued: the file records which run wrote it.
#[test]
fn resume_rejects_a_checkpoint_from_another_multiplier() {
    let (app, _, data) = blur_setup();
    let (dir, ck) = blur_checkpoint("lac-recovery-other-mult-test");
    let drum = app.adapt(&LutMultiplier::maybe_wrap(catalog::by_name("DRUM16-4").unwrap()));
    let result = train_fixed_resumable(
        &app,
        &drum,
        &data.train,
        &data.test,
        &cfg(8),
        &ck,
        4,
        &mut NullObserver,
    );
    let reason = checkpoint_reason(result);
    assert!(reason.contains("mul8u_FTA") && reason.contains("DRUM16-4"), "{reason}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming another kernel's checkpoint must be refused before any
/// forward pass sees the wrong coefficients — by the recorded model
/// identity, and by the coefficient shapes when no identity was recorded.
#[test]
fn resume_rejects_a_checkpoint_of_another_kernel() {
    let (blur, _, data) = blur_setup();
    let (dir, ck) = blur_checkpoint("lac-recovery-other-kernel-test");
    let jpeg = JpegApp::new(JpegMode::Single);
    let mult = jpeg.adapt(&LutMultiplier::maybe_wrap(catalog::by_name("mul8u_FTA").unwrap()));
    let resume = |jpeg: &JpegApp| {
        train_fixed_resumable(
            jpeg,
            &mult,
            &data.train,
            &data.test,
            &cfg(8),
            &ck,
            4,
            &mut NullObserver,
        )
    };
    let reason = checkpoint_reason(resume(&jpeg));
    assert!(reason.contains(blur.name()) && reason.contains(jpeg.name()), "{reason}");

    // The same blur session saved without its model identity.
    let plan = HardwarePlan::uniform(&blur.adapt(&catalog::by_name("mul8u_FTA").unwrap()));
    let session = TrainSession::new(blur.init_coeffs(&plan.materialize(1)), 2.0);
    SessionCheckpoint::capture(&session, 0, 2, &[]).save(&ck).expect("save");
    let reason = checkpoint_reason(resume(&jpeg));
    assert!(reason.contains("shapes") && reason.contains(jpeg.name()), "{reason}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Poisoned training references make every epoch's loss NaN: the engine
/// must roll back to the best iterate, burn its rollback budget, and
/// return a structured `Diverged` error — never a panic, and never
/// NaN-contaminated coefficients.
#[test]
fn poisoned_training_diverges_with_rollback_events() {
    let (app, mult, data) = blur_setup();
    let plan = HardwarePlan::uniform(&mult);
    let init = app.init_coeffs(&plan.materialize(1));
    let init_bits = coeff_bits(&init);
    let poisoned: Vec<Vec<f64>> =
        data.train.iter().map(|_| vec![f64::NAN; 32 * 32]).collect();

    let config = cfg(8).rollbacks(2);
    let mut session = TrainSession::new(init, config.lr);
    let mut obs = MemoryObserver::new();
    let scope = RunScope { run: "recovery-test", detail: "poisoned", start: Instant::now() };
    let err = session
        .run(&app, &plan, &data.train, &poisoned, &config, 2, scope, &mut obs)
        .expect_err("all-NaN references must diverge");
    match err {
        TrainError::Diverged { epoch, ref history, .. } => {
            assert_eq!(epoch, 0, "no epoch can complete on all-NaN references");
            assert!(history.is_empty());
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
    // The rollback budget produced observer events, then one error event.
    let rollbacks =
        obs.lines.iter().filter(|l| l.contains("\"rollback\":true")).count();
    assert_eq!(rollbacks, 2, "one event per consumed rollback");
    assert!(obs.lines.last().expect("events").contains("\"error\":"));
    // Coefficients rolled back to the (initial) best iterate, bit-exact.
    assert_eq!(coeff_bits(session.coeffs()), init_bits);
}

/// The seeded fault wrapper is a pure function of (seed, a, b): two
/// independently constructed instances agree on every product, and a
/// nonzero flip rate really perturbs some products.
#[test]
fn fault_injection_is_deterministic_end_to_end() {
    let spec = "mul8u_FTA!seed=9,flip=0.02";
    let m1 = catalog::by_spec(spec).expect("spec");
    let m2 = catalog::by_spec(spec).expect("spec");
    let clean = catalog::by_name("mul8u_FTA").unwrap();
    let mut perturbed = 0u32;
    for a in (0..256).step_by(7) {
        for b in (0..256).step_by(11) {
            let p1 = m1.multiply_raw(a, b);
            assert_eq!(p1, m2.multiply_raw(a, b), "same seed must agree at ({a},{b})");
            if p1 != clean.multiply_raw(a, b) {
                perturbed += 1;
            }
        }
    }
    assert!(perturbed > 0, "a 2% flip rate must perturb some products");
    // A different seed gives a different (but equally deterministic) unit.
    let other = catalog::by_spec("mul8u_FTA!seed=10,flip=0.02").expect("spec");
    let differs = (0..256)
        .step_by(7)
        .flat_map(|a| (0..256).step_by(11).map(move |b| (a, b)))
        .any(|(a, b)| other.multiply_raw(a, b) != m1.multiply_raw(a, b));
    assert!(differs, "different fault seeds must not alias");
}
