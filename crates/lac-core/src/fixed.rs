//! Fixed-hardware LAC (Sections II–III of the paper): train an
//! application's coefficients for one given approximate multiplier.
//!
//! The trainer mirrors Fig. 2: inputs flow through an accurate branch
//! (original coefficients, exact arithmetic — precomputed references) and
//! an approximate branch (trainable coefficients, behavioral hardware
//! models); the difference drives Adam through straight-through-estimator
//! quantization.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lac_apps::Kernel;
use lac_hw::Multiplier;
use lac_tensor::Tensor;

use crate::config::TrainConfig;
use crate::engine::checkpoint::RestoredSession;
use crate::engine::{
    HardwarePlan, NullObserver, RunScope, SessionCheckpoint, TrainError, TrainObserver,
    TrainSession,
};
use crate::eval::{batch_references, quality};

/// Outcome of fixed-hardware training for one (application, multiplier)
/// pair — one bar pair of Fig. 3.
#[derive(Debug, Clone)]
pub struct FixedResult {
    /// Multiplier name.
    pub multiplier: String,
    /// Test-set quality with the original coefficients (before LAC).
    pub before: f64,
    /// Test-set quality with the trained coefficients (after LAC).
    pub after: f64,
    /// The trained coefficient tensors (float master copies; quantize with
    /// the kernel's bounds for deployment).
    pub coeffs: Vec<Tensor>,
    /// Mean training loss per epoch.
    pub loss_history: Vec<f64>,
    /// Wall-clock training time in seconds.
    pub seconds: f64,
}

impl FixedResult {
    /// Quality improvement (`after - before`); positive means LAC helped
    /// for higher-is-better metrics.
    pub fn improvement(&self) -> f64 {
        self.after - self.before
    }
}

/// Train a kernel's coefficients for one fixed multiplier.
///
/// `mult` must already be adapted via [`Kernel::adapt`]. The same unit is
/// used for every stage of multi-stage kernels.
///
/// The result's `after` quality is guaranteed not to be worse than
/// `before`: training keeps the best coefficients seen, falling back to
/// the originals (LAC can always decline to change the application).
///
/// # Errors
///
/// [`TrainError::Diverged`] when training hits non-finite numerics and
/// exhausts the [`TrainConfig::rollbacks`] recovery budget.
///
/// # Examples
///
/// ```no_run
/// use lac_apps::{FilterApp, FilterKind, Kernel, StageMode};
/// use lac_core::{train_fixed, TrainConfig};
/// use lac_data::ImageDataset;
/// use lac_hw::catalog;
///
/// let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
/// let mult = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
/// let data = ImageDataset::paper_split(42);
/// let result = train_fixed(
///     &app,
///     &mult,
///     &data.train,
///     &data.test,
///     &TrainConfig::new().epochs(60),
/// )
/// .expect("training");
/// assert!(result.after >= result.before);
/// ```
pub fn train_fixed<K: Kernel + Sync>(
    kernel: &K,
    mult: &Arc<dyn Multiplier>,
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
) -> Result<FixedResult, TrainError> {
    train_fixed_observed(kernel, mult, train, test, config, &mut NullObserver)
}

/// [`train_fixed`] with per-epoch telemetry: emits one
/// [`EpochEvent`](crate::EpochEvent) per optimizer epoch (run `"fixed"`,
/// detail = multiplier name).
///
/// Every other trainer takes its observer as a trailing argument and has
/// no plain twin; fixed training keeps both forms as the crate's
/// shortest entry point.
pub fn train_fixed_observed<K: Kernel + Sync>(
    kernel: &K,
    mult: &Arc<dyn Multiplier>,
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
    observer: &mut dyn TrainObserver,
) -> Result<FixedResult, TrainError> {
    let mults: Vec<Arc<dyn Multiplier>> = vec![Arc::clone(mult); kernel.num_stages()];
    let init = kernel.init_coeffs(&mults);
    train_fixed_from(kernel, mult, vec![init], train, test, config, None, observer)
}

/// Fixed-hardware training with multiple restarts: the original
/// coefficients scaled by each power of two in `scale_bits`, each clamped
/// to the coefficient bounds, trained independently; the best test-set
/// quality wins. Each restart's events carry detail
/// `"<multiplier>+restart<run>"` (the first restart is plain
/// `"<multiplier>"`).
///
/// Pure gradient descent cannot discover a uniform rescaling of the
/// coefficients (the exact-product surrogate makes it a flat direction
/// once the output shift compensates), yet rescaled coefficients often
/// dodge an approximate unit's high-error region entirely. Multi-start
/// recovers the global exploration a surrogate-based solver would do, at
/// `scale_bits.len()` times the training cost.
///
/// # Panics
///
/// Panics if `scale_bits` is empty.
pub fn train_fixed_multistart<K: Kernel + Sync>(
    kernel: &K,
    mult: &Arc<dyn Multiplier>,
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
    scale_bits: &[u32],
    observer: &mut dyn TrainObserver,
) -> Result<FixedResult, TrainError> {
    assert!(!scale_bits.is_empty(), "multistart needs at least one scale");
    let mults: Vec<Arc<dyn Multiplier>> = vec![Arc::clone(mult); kernel.num_stages()];
    let base = kernel.init_coeffs(&mults);
    let bounds = kernel.coeff_bounds(&mults);
    let inits: Vec<Vec<Tensor>> = scale_bits
        .iter()
        .map(|&s| {
            base.iter()
                .zip(&bounds)
                .map(|(t, &(lo, hi))| {
                    t.map(|v| (v * 2f64.powi(s as i32)).clamp(lo, hi))
                })
                .collect()
        })
        .collect();
    train_fixed_from(kernel, mult, inits, train, test, config, None, observer)
}

/// [`train_fixed`] with session checkpointing: training pauses every
/// `checkpoint_every` epochs to write a [`SessionCheckpoint`] to
/// `checkpoint_path`, and a later call with the same arguments resumes
/// from the file instead of starting over. The resumed run reproduces an
/// uninterrupted [`train_fixed`] bit for bit — coefficients, loss
/// history, and best iterate (wall-clock `seconds` excepted) — and
/// re-emits events only for the epochs it actually executes.
///
/// The checkpoint file is left in place on success so callers can
/// archive it; delete it to start fresh.
///
/// # Errors
///
/// [`TrainError::Diverged`] as in [`train_fixed`], and
/// [`TrainError::Checkpoint`] when the checkpoint file cannot be
/// written, read, or decoded, or when it belongs to a different run (its
/// recorded kernel and multiplier, or its coefficient shapes, differ
/// from this call's).
#[allow(clippy::too_many_arguments)]
pub fn train_fixed_resumable<K: Kernel + Sync>(
    kernel: &K,
    mult: &Arc<dyn Multiplier>,
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
    checkpoint_path: &Path,
    checkpoint_every: usize,
    observer: &mut dyn TrainObserver,
) -> Result<FixedResult, TrainError> {
    let mults: Vec<Arc<dyn Multiplier>> = vec![Arc::clone(mult); kernel.num_stages()];
    let init = kernel.init_coeffs(&mults);
    let checkpoint = Some((checkpoint_path, checkpoint_every));
    train_fixed_from(kernel, mult, vec![init], train, test, config, checkpoint, observer)
}

/// Shared driver: train from each provided initialization, keep the best
/// test-set quality, and fall back to the first (original) initialization
/// when no run improves on it.
///
/// With a `checkpoint` of `(path, every)` (single-initialization callers
/// only), a run resumes from `path` when the file exists and saves its
/// session there every `every` epochs; without one, each run is a single
/// span of `config.epochs`.
#[allow(clippy::too_many_arguments)]
fn train_fixed_from<K: Kernel + Sync>(
    kernel: &K,
    mult: &Arc<dyn Multiplier>,
    inits: Vec<Vec<Tensor>>,
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
    checkpoint: Option<(&Path, usize)>,
    observer: &mut dyn TrainObserver,
) -> Result<FixedResult, TrainError> {
    let start = Instant::now();
    let plan = HardwarePlan::uniform(mult);
    let mults = plan.materialize(kernel.num_stages());
    let threads = config.effective_threads();
    let direction = kernel.metric().direction();

    let train_refs = batch_references(kernel, train);
    let test_refs = batch_references(kernel, test);

    let original = inits.first().expect("at least one initialization").clone();
    let before = quality(kernel, &original, &mults, test, &test_refs, threads);

    let mut after = before;
    let mut chosen = original.clone();
    let mut first_history = Vec::new();
    let scope = RunScope { run: "fixed", detail: mult.name(), start };
    let span = checkpoint.map_or(config.epochs, |(_, every)| every.max(1));

    for (run, init) in inits.into_iter().enumerate() {
        let detail;
        let run_scope = if run == 0 {
            scope
        } else {
            detail = format!("{}+restart{run}", mult.name());
            scope.with_detail(&detail)
        };
        let (mut session, mut stale, mut rollbacks_left, mut history) = match checkpoint {
            Some((path, _)) if path.exists() => {
                let restored = restore_checkpoint(kernel, mult, &init, path)?;
                (restored.session, restored.stale, restored.rollbacks_left, restored.history)
            }
            _ => (TrainSession::new(init, config.lr), 0, config.rollbacks, Vec::new()),
        };
        while history.len() < config.epochs {
            let to_epoch = (history.len() + span).min(config.epochs);
            let stopped = session.run_span(
                kernel,
                &plan,
                train,
                &train_refs,
                config,
                threads,
                run_scope,
                observer,
                to_epoch,
                &mut stale,
                &mut rollbacks_left,
                &mut history,
            )?;
            if let Some((path, _)) = checkpoint {
                SessionCheckpoint::capture(&session, stale, rollbacks_left, &history)
                    .with_model(kernel.name(), mult.name())
                    .save(path)?;
            }
            if stopped {
                break;
            }
        }
        // Score the final coefficients too: the last step may be the best.
        session.consider_final(kernel, &plan, train, &train_refs, threads);
        if run == 0 {
            first_history = history;
        }

        let best_coeffs = session.into_best();
        let trained_quality = quality(kernel, &best_coeffs, &mults, test, &test_refs, threads);
        if direction.is_better(trained_quality, after) {
            after = trained_quality;
            chosen = best_coeffs;
        }
    }

    Ok(FixedResult {
        multiplier: mult.name().to_owned(),
        before,
        after,
        coeffs: chosen,
        loss_history: first_history,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Load the checkpoint at `path` for the run training `kernel` on `mult`
/// from `init`, refusing a file that another run wrote: its recorded
/// model identity (when present) and its coefficient shapes must match.
fn restore_checkpoint<K: Kernel>(
    kernel: &K,
    mult: &Arc<dyn Multiplier>,
    init: &[Tensor],
    path: &Path,
) -> Result<RestoredSession, TrainError> {
    let reject =
        |reason: String| TrainError::Checkpoint { path: path.display().to_string(), reason };
    let checkpoint = SessionCheckpoint::load(path)?;
    let this_run = format!("{} on {}", kernel.name(), mult.name());
    if let Some((app, spec)) = checkpoint.model().filter(|&m| m != (kernel.name(), mult.name())) {
        return Err(reject(format!("written by {app} on {spec}, not by this run ({this_run})")));
    }
    let restored = checkpoint.restore().map_err(&reject)?;
    let shapes = |coeffs: &[Tensor]| coeffs.iter().map(|t| t.shape().to_vec()).collect::<Vec<_>>();
    let (found, expected) = (shapes(restored.session.coeffs()), shapes(init));
    if found != expected || shapes(restored.session.best_coeffs()) != expected {
        return Err(reject(format!(
            "written by a run with coefficient shapes {found:?}, not by this run \
             ({this_run}, shapes {expected:?})"
        )));
    }
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_apps::{FilterApp, FilterKind, StageMode};
    use lac_data::{synth_image, GrayImage};
    use lac_hw::catalog;

    fn small_dataset() -> (Vec<GrayImage>, Vec<GrayImage>) {
        let train: Vec<GrayImage> = (0..8).map(|i| synth_image(32, 32, i)).collect();
        let test: Vec<GrayImage> = (100..104).map(|i| synth_image(32, 32, i)).collect();
        (train, test)
    }

    #[test]
    fn training_improves_blur_on_high_error_multiplier() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let mult = app.adapt(&catalog::by_name("mul8u_JV3").unwrap());
        let (train, test) = small_dataset();
        let cfg = TrainConfig::new().epochs(40).learning_rate(2.0).threads(4);
        let result = train_fixed(&app, &mult, &train, &test, &cfg).expect("training");
        assert!(
            result.improvement() > 0.05,
            "expected a clear SSIM gain on mul8u_JV3, got {} -> {}",
            result.before,
            result.after
        );
    }

    #[test]
    fn exact_hardware_needs_no_training() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let mult = app.adapt(&catalog::by_name("exact16u").unwrap());
        let (train, test) = small_dataset();
        let cfg = TrainConfig::new().epochs(3).threads(2);
        let result = train_fixed(&app, &mult, &train, &test, &cfg).expect("training");
        assert!((result.before - 1.0).abs() < 1e-12);
        assert_eq!(result.after, result.before);
    }

    #[test]
    fn after_never_worse_than_before() {
        let app = FilterApp::new(FilterKind::EdgeDetection, StageMode::Single);
        let (train, test) = small_dataset();
        for name in ["mul8s_1KR3", "DRUM16-4"] {
            let mult = app.adapt(&catalog::by_name(name).unwrap());
            let cfg = TrainConfig::new().epochs(10).threads(4);
            let result = train_fixed(&app, &mult, &train, &test, &cfg).expect("training");
            assert!(result.after >= result.before, "{name}: {result:?}");
        }
    }

    #[test]
    fn multistart_never_loses_to_plain_training() {
        let app = FilterApp::new(FilterKind::EdgeDetection, StageMode::Single);
        let mult = app.adapt(&catalog::by_name("mul16s_GAT").unwrap());
        let (train, test) = small_dataset();
        let cfg = TrainConfig::new().epochs(20).learning_rate(2.0).threads(4);
        let plain = train_fixed(&app, &mult, &train, &test, &cfg).expect("training");
        let multi =
            train_fixed_multistart(&app, &mult, &train, &test, &cfg, &[0, 3, 6], &mut NullObserver)
                .expect("training");
        assert!(multi.after >= plain.after, "{} vs {}", multi.after, plain.after);
        assert_eq!(multi.before, plain.before);
    }

    #[test]
    #[should_panic(expected = "at least one scale")]
    fn multistart_requires_scales() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let mult = app.adapt(&catalog::by_name("exact8u").unwrap());
        let (train, test) = small_dataset();
        let cfg = TrainConfig::new().epochs(1);
        let _ = train_fixed_multistart(&app, &mult, &train, &test, &cfg, &[], &mut NullObserver);
    }

    #[test]
    fn loss_history_has_epoch_entries_and_decreases() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let mult = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
        let (train, test) = small_dataset();
        let cfg = TrainConfig::new().epochs(30).learning_rate(2.0).threads(4);
        let result = train_fixed(&app, &mult, &train, &test, &cfg).expect("training");
        assert_eq!(result.loss_history.len(), 30);
        // The trajectory may spike when the datapath's output shift jumps
        // (the trainer keeps the best coefficients seen), but the best loss
        // must not exceed the starting loss.
        let first = result.loss_history[0];
        let best = result.loss_history.iter().fold(f64::INFINITY, |m, &l| m.min(l));
        assert!(best <= first, "best loss {best} above initial {first}");
    }
}
