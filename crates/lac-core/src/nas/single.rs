//! Trained-hardware LAC with a single binarized gate (Section IV,
//! Figs. 5–7): search over multiplier candidates while training a
//! per-candidate coefficient set.
//!
//! Each iteration samples two paths from the gate, trains both paths'
//! coefficients on the dual-branch loss, and updates the gate from the
//! pair of losses — the paper's two-path scheme that "allows NAS results
//! to reach brute-force search results" without the `k × n` cost of
//! training every candidate to convergence.

use std::sync::Arc;
use std::time::Instant;

use lac_apps::Kernel;
use lac_hw::Multiplier;
use lac_rt::rng::{SeedableRng, StdRng};
use lac_tensor::Tensor;

use crate::config::TrainConfig;
use crate::constraints::accuracy_hinge;
use crate::engine::{metric_loss, minibatch, EpochEvent, HardwarePlan, TrainObserver, TrainSession};
use crate::eval::{batch_outputs, batch_references, quality};
use crate::nas::gate::BinaryGate;

/// Outcome of a single-gate hardware search.
#[derive(Debug, Clone)]
pub struct NasResult {
    /// Candidate names, aligned with `probabilities`.
    pub candidates: Vec<String>,
    /// Index of the selected candidate.
    pub chosen: usize,
    /// Final gate probabilities.
    pub probabilities: Vec<f64>,
    /// Test-set quality of the selected candidate with its trained
    /// coefficients.
    pub quality: f64,
    /// Normalized area of the selected candidate.
    pub area: f64,
    /// Trained coefficients of the selected candidate.
    pub coeffs: Vec<Tensor>,
    /// Wall-clock search time in seconds.
    pub seconds: f64,
}

impl NasResult {
    /// Name of the selected candidate.
    pub fn chosen_name(&self) -> &str {
        &self.candidates[self.chosen]
    }
}

/// Per-candidate training state: the candidate's uniform hardware plan,
/// its original coefficients, and the engine session training them.
struct Path {
    mult: Arc<dyn Multiplier>,
    plan: HardwarePlan,
    init: Vec<Tensor>,
    session: TrainSession,
}

fn make_paths<K: Kernel>(
    kernel: &K,
    candidates: &[Arc<dyn Multiplier>],
    lr: f64,
) -> Vec<Path> {
    candidates
        .iter()
        .map(|m| {
            let plan = HardwarePlan::uniform(m);
            let init = kernel.init_coeffs(&plan.materialize(kernel.num_stages()));
            Path {
                mult: Arc::clone(m),
                plan,
                session: TrainSession::new(init.clone(), lr),
                init,
            }
        })
        .collect()
}

fn finish<K: Kernel + Sync>(
    kernel: &K,
    gate: &BinaryGate,
    paths: Vec<Path>,
    test: &[K::Sample],
    test_refs: &[Vec<f64>],
    threads: usize,
    start: Instant,
) -> NasResult {
    let chosen = gate.best();
    let path = &paths[chosen];
    let mults = path.plan.materialize(kernel.num_stages());
    // As in fixed-hardware training, LAC can always decline to alter the
    // application: deploy whichever of {best-seen, original} coefficients
    // scores higher on the test set.
    let q_trained = quality(kernel, path.session.best_coeffs(), &mults, test, test_refs, threads);
    let q_init = quality(kernel, &path.init, &mults, test, test_refs, threads);
    let direction = kernel.metric().direction();
    let (q, coeffs) = if direction.is_better(q_trained, q_init) {
        (q_trained, path.session.best_coeffs().to_vec())
    } else {
        (q_init, path.init.clone())
    };
    NasResult {
        candidates: paths.iter().map(|p| p.mult.name().to_owned()).collect(),
        chosen,
        probabilities: gate.probabilities(),
        quality: q,
        area: path.mult.metadata().area,
        coeffs,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Train the lone candidate like fixed-hardware training, emitting one
/// event per epoch (the gate has nothing to decide).
fn run_sole_candidate<K: Kernel + Sync>(
    run: &str,
    kernel: &K,
    paths: &mut [Path],
    train: &[K::Sample],
    train_refs: &[Vec<f64>],
    config: &TrainConfig,
    threads: usize,
    start: Instant,
    observer: &mut dyn TrainObserver,
) {
    let sampled = [0usize];
    let path = &mut paths[0];
    for epoch in 0..config.epochs {
        let loss = path.session.step(kernel, &path.plan, train, train_refs, config, threads);
        observer.on_epoch(&EpochEvent {
            run,
            detail: path.mult.name(),
            epoch,
            loss: Some(loss),
            area: Some(path.plan.mean_area()),
            delay: path.plan.mean_delay(),
            sampled: &sampled,
            seconds: start.elapsed().as_secs_f64(),
            ..Default::default()
        });
    }
}

/// Quality-driven single-gate search (Fig. 7): find the candidate with the
/// best post-training quality.
///
/// `candidates` must already be adapted via [`Kernel::adapt`] and, for
/// constrained searches (Figs. 8–9), pre-pruned with
/// [`crate::constraints::prune`].
///
/// Each main-loop iteration emits one event (run `"search-single"`)
/// carrying the sampled path pair, the mean of their training losses,
/// and the gate probabilities after the update. Warmup steps are silent.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn search_single<K: Kernel + Sync>(
    kernel: &K,
    candidates: &[Arc<dyn Multiplier>],
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
    gate_lr: f64,
    observer: &mut dyn TrainObserver,
) -> NasResult {
    assert!(!candidates.is_empty(), "hardware search needs at least one candidate");
    let start = Instant::now();
    let threads = config.effective_threads();
    let train_refs = batch_references(kernel, train);
    let test_refs = batch_references(kernel, test);

    let mut paths = make_paths(kernel, candidates, config.lr);
    let mut gate = BinaryGate::new(candidates.len(), gate_lr);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5ac5_ac5a);

    if candidates.len() == 1 {
        run_sole_candidate(
            "search-single",
            kernel,
            &mut paths,
            train,
            &train_refs,
            config,
            threads,
            start,
            observer,
        );
        return finish(kernel, &gate, paths, test, &test_refs, threads, start);
    }

    // Warmup: give every path the same amount of pre-training before the
    // gate starts comparing losses, so early sampling noise cannot
    // snowball into selecting an under-trained-but-lucky path.
    let warmup = warmup_steps(config.epochs, candidates.len());
    for _ in 0..warmup {
        for path in paths.iter_mut() {
            path.session.step(kernel, &path.plan, train, &train_refs, config, threads);
        }
    }

    let metric = kernel.metric();
    for step in 0..config.epochs {
        let (i, j) = gate.sample_two(&mut rng);
        let [li_train, lj_train] = [i, j].map(|k| {
            let path = &mut paths[k];
            path.session.step(kernel, &path.plan, train, &train_refs, config, threads)
        });
        // The gate compares the application's *quality metric* (Eq. 1's
        // L(·) is SSIM/PSNR/…), evaluated for both paths on the same
        // batch; raw MSE can favor degenerate outputs on sparse targets.
        let (batch, refs) = minibatch(config, step, train, &train_refs);
        let loss_of = |path: &Path| {
            // Judge the path by its best-achieved coefficients — the state
            // that would actually be deployed — not the optimizer's
            // current (possibly wandering) iterate.
            let mults = path.plan.materialize(kernel.num_stages());
            let outputs =
                batch_outputs(kernel, path.session.best_coeffs(), &mults, &batch, threads);
            metric_loss(metric, metric.evaluate(&outputs, &refs))
        };
        let loss_i = loss_of(&paths[i]);
        let loss_j = loss_of(&paths[j]);
        gate.update_two_path(i, j, loss_i, loss_j);
        let sampled = [i, j];
        let probs = [gate.probabilities()];
        observer.on_epoch(&EpochEvent {
            run: "search-single",
            detail: kernel.name(),
            epoch: step,
            loss: Some(0.5 * (li_train + lj_train)),
            area: Some(0.5 * (paths[i].plan.mean_area() + paths[j].plan.mean_area())),
            sampled: &sampled,
            gate_probs: &probs,
            seconds: start.elapsed().as_secs_f64(),
            ..Default::default()
        });
    }
    finish(kernel, &gate, paths, test, &test_refs, threads, start)
}

/// Warmup steps per path: a small slice of the iteration budget spread
/// over all candidates (at least two steps each).
fn warmup_steps(epochs: usize, k: usize) -> usize {
    (epochs / (4 * k.max(1))).max(2)
}

/// Accuracy-constrained single-gate search (Fig. 10 / Eqs. 4–5): minimize
/// area subject to a quality target. Coefficients still train on the
/// dual-branch loss; the gate minimizes
/// `area + δ · max(0, target - quality)` evaluated on the training batch.
///
/// Each main-loop iteration emits one event (run `"search-accuracy"`)
/// carrying the sampled pair, the mean of their Eq. 4 gate losses, and
/// the gate probabilities after the update. Warmup steps are silent.
///
/// # Panics
///
/// Panics if `candidates` is empty.
#[allow(clippy::too_many_arguments)]
pub fn search_accuracy_constrained<K: Kernel + Sync>(
    kernel: &K,
    candidates: &[Arc<dyn Multiplier>],
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
    gate_lr: f64,
    quality_target: f64,
    delta: f64,
    observer: &mut dyn TrainObserver,
) -> NasResult {
    assert!(!candidates.is_empty(), "hardware search needs at least one candidate");
    let start = Instant::now();
    let threads = config.effective_threads();
    let train_refs = batch_references(kernel, train);
    let test_refs = batch_references(kernel, test);
    let direction = kernel.metric().direction();

    let mut paths = make_paths(kernel, candidates, config.lr);
    let mut gate = BinaryGate::new(candidates.len(), gate_lr);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xacc0_4a11);

    let gate_loss = |kernel: &K,
                         path: &Path,
                         batch: &[K::Sample],
                         refs: &[Vec<f64>],
                         threads: usize| {
        let mults = path.plan.materialize(kernel.num_stages());
        let outputs = batch_outputs(kernel, path.session.coeffs(), &mults, batch, threads);
        let q = kernel.metric().evaluate(&outputs, refs);
        path.mult.metadata().area + delta * accuracy_hinge(q, quality_target, direction)
    };

    if candidates.len() == 1 {
        run_sole_candidate(
            "search-accuracy",
            kernel,
            &mut paths,
            train,
            &train_refs,
            config,
            threads,
            start,
            observer,
        );
        return finish(kernel, &gate, paths, test, &test_refs, threads, start);
    }

    let warmup = warmup_steps(config.epochs, candidates.len());
    for _ in 0..warmup {
        for path in paths.iter_mut() {
            path.session.step(kernel, &path.plan, train, &train_refs, config, threads);
        }
    }

    for step in 0..config.epochs {
        let (i, j) = gate.sample_two(&mut rng);
        for k in [i, j] {
            let path = &mut paths[k];
            path.session.step(kernel, &path.plan, train, &train_refs, config, threads);
        }
        let (batch, refs) = minibatch(config, step, train, &train_refs);
        let li = gate_loss(kernel, &paths[i], &batch, &refs, threads);
        let lj = gate_loss(kernel, &paths[j], &batch, &refs, threads);
        gate.update_two_path(i, j, li, lj);
        let sampled = [i, j];
        let probs = [gate.probabilities()];
        observer.on_epoch(&EpochEvent {
            run: "search-accuracy",
            detail: kernel.name(),
            epoch: step,
            loss: Some(0.5 * (li + lj)),
            area: Some(0.5 * (paths[i].plan.mean_area() + paths[j].plan.mean_area())),
            sampled: &sampled,
            gate_probs: &probs,
            seconds: start.elapsed().as_secs_f64(),
            ..Default::default()
        });
    }

    // Final selection (the "Selector" of Fig. 5): the gate steered the
    // training budget, but the deployed configuration is the path with the
    // best Eq. 4 objective on the *full* training set — minibatch noise in
    // the quality estimate must not pick a budget-violating unit.
    let train_all: Vec<K::Sample> = train.to_vec();
    let mut best = (f64::INFINITY, 0usize);
    for (idx, path) in paths.iter().enumerate() {
        let mults = path.plan.materialize(kernel.num_stages());
        let outputs =
            batch_outputs(kernel, path.session.best_coeffs(), &mults, &train_all, threads);
        let q = kernel.metric().evaluate(&outputs, &train_refs);
        let score =
            path.mult.metadata().area + delta * accuracy_hinge(q, quality_target, direction);
        let better = score < best.0
            || (score == best.0 && path.mult.metadata().area < paths[best.1].mult.metadata().area);
        if better {
            best = (score, idx);
        }
    }
    let mut verified_gate = gate;
    gate_force_choice(&mut verified_gate, best.1);
    finish(kernel, &verified_gate, paths, test, &test_refs, threads, start)
}

/// Pin a gate's argmax to `choice` (used by the final selector).
fn gate_force_choice(gate: &mut BinaryGate, choice: usize) {
    let bump = gate.weights().iter().fold(0f64, |m, &w| m.max(w.abs())) + 1.0;
    gate.nudge(choice, bump * 2.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_apps::{FilterApp, FilterKind, StageMode};
    use lac_data::{synth_image, GrayImage};
    use lac_hw::catalog;

    use crate::NullObserver;

    fn dataset() -> (Vec<GrayImage>, Vec<GrayImage>) {
        let train: Vec<GrayImage> = (0..6).map(|i| synth_image(32, 32, i)).collect();
        let test: Vec<GrayImage> = (50..53).map(|i| synth_image(32, 32, i)).collect();
        (train, test)
    }

    fn blur_candidates(app: &FilterApp, names: &[&str]) -> Vec<Arc<dyn Multiplier>> {
        names.iter().map(|n| app.adapt(&catalog::by_name(n).unwrap())).collect()
    }

    #[test]
    fn search_finds_the_obviously_better_multiplier() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        // DRUM16-6 is near-exact for blur; mul8u_JV3 is catastrophic.
        let candidates = blur_candidates(&app, &["mul8u_JV3", "DRUM16-6"]);
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(30).learning_rate(2.0).threads(4).seed(1);
        let result = search_single(&app, &candidates, &train, &test, &cfg, 2.0, &mut NullObserver);
        assert_eq!(result.chosen_name(), "DRUM16-6", "probs {:?}", result.probabilities);
        assert!(result.quality > 0.9, "quality {}", result.quality);
    }

    #[test]
    fn single_candidate_degenerates_to_fixed_training() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let candidates = blur_candidates(&app, &["mul8u_FTA"]);
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(10).learning_rate(2.0).threads(4);
        let result = search_single(&app, &candidates, &train, &test, &cfg, 1.0, &mut NullObserver);
        assert_eq!(result.chosen, 0);
        assert_eq!(result.probabilities, vec![1.0]);
    }

    #[test]
    fn result_is_seed_deterministic() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let candidates = blur_candidates(&app, &["mul8u_JV3", "mul8u_FTA", "DRUM16-4"]);
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(12).learning_rate(2.0).threads(2).seed(9);
        let a = search_single(&app, &candidates, &train, &test, &cfg, 2.0, &mut NullObserver);
        let b = search_single(&app, &candidates, &train, &test, &cfg, 2.0, &mut NullObserver);
        assert_eq!(a.chosen, b.chosen);
        assert_eq!(a.quality, b.quality);
    }

    #[test]
    fn observer_sees_one_event_per_main_loop_step() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let candidates = blur_candidates(&app, &["mul8u_JV3", "mul8u_FTA"]);
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(8).learning_rate(2.0).threads(2).seed(3);
        let mut obs = crate::MemoryObserver::new();
        let _ = search_single(&app, &candidates, &train, &test, &cfg, 2.0, &mut obs);
        assert_eq!(obs.len(), 8);
        assert!(obs.lines[0].contains("\"run\":\"search-single\""), "{}", obs.lines[0]);
        assert!(obs.lines[0].contains("\"gate_probs\":[["), "{}", obs.lines[0]);
    }

    #[test]
    fn accuracy_constrained_search_prefers_smallest_satisfying_unit() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        // FTA (area 0.07) achieves decent blur SSIM after training;
        // DRUM16-6 (area 0.39) is better but much larger. With a modest
        // quality target, the search should prefer the smaller unit.
        let candidates = blur_candidates(&app, &["mul8u_FTA", "DRUM16-6"]);
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(30).learning_rate(2.0).threads(4).seed(5);
        let result = search_accuracy_constrained(
            &app,
            &candidates,
            &train,
            &test,
            &cfg,
            2.0,
            0.7,
            10.0,
            &mut NullObserver,
        );
        assert_eq!(result.chosen_name(), "mul8u_FTA", "probs {:?}", result.probabilities);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidate_list_panics() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(1);
        let _ = search_single(&app, &[], &train, &test, &cfg, 1.0, &mut NullObserver);
    }
}
