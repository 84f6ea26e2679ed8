//! Multi-hardware NAS (Section IV, Figs. 11–12): one binarized gate per
//! application stage, so different parts of the application can use
//! different approximate multipliers.
//!
//! * *Parallel* layering (Gaussian blur): the kernel's nine coefficient
//!   taps each carry a gate — instantiate the kernel with
//!   `StageMode::PerTap`.
//! * *Serial* layering (JPEG): the three pipeline stages each carry a gate
//!   — instantiate with `JpegMode::ThreeStage`.
//!
//! Per iteration a single path is sampled per gate (the paper's
//! single-path backpropagation for multi-hardware setups), the shared
//! application coefficients take one Adam step on the dual-branch loss,
//! and every gate receives a score-function update from the total loss —
//! Eq. 2's accuracy + area-hinge objective, or Eq. 4's inverted
//! area-minimization objective, both scored through the engine's
//! [`ConstraintSet`].

use std::sync::Arc;
use std::time::Instant;

use lac_apps::Kernel;
use lac_hw::Multiplier;
use lac_rt::rng::{RngExt, SeedableRng, StdRng};
use lac_tensor::Tensor;

use crate::config::TrainConfig;
use crate::engine::{
    minibatch, ConstraintSet, EpochEvent, HardwarePlan, RunScope, TrainObserver, TrainSession,
};
use crate::eval::{batch_outputs, batch_references, quality};
use crate::nas::gate::BinaryGate;

/// The search objective for multi-hardware NAS.
#[derive(Debug, Clone, Copy)]
pub enum MultiObjective {
    /// Eq. 2–3: maximize quality subject to a (mean) area budget, enforced
    /// by a hinge with safety factor `gamma` and weight `delta` (the paper
    /// uses `γ = 0.9, δ = 1.0` for blur and `γ = 1.0, δ = 300` for JPEG).
    AreaConstrained {
        /// Mean-area budget `a_th`.
        area_threshold: f64,
        /// Hinge safety factor `γ`.
        gamma: f64,
        /// Hinge weight `δ`.
        delta: f64,
    },
    /// Eq. 4–5: minimize mean area subject to a quality floor (`γ = 1`).
    AccuracyConstrained {
        /// Quality target `l_target` in the kernel's metric.
        quality_target: f64,
        /// Hinge weight `δ`.
        delta: f64,
    },
}

/// Outcome of a multi-hardware search.
#[derive(Debug, Clone)]
pub struct MultiNasResult {
    /// Stage labels from the kernel.
    pub stage_names: Vec<String>,
    /// Candidate names shared by every gate.
    pub candidates: Vec<String>,
    /// Selected candidate index per stage.
    pub choices: Vec<usize>,
    /// Final per-gate probabilities.
    pub gate_probabilities: Vec<Vec<f64>>,
    /// Mean normalized area of the selected configuration (the paper's
    /// "average of multipliers as the overall area").
    pub area: f64,
    /// Test-set quality of the selected configuration.
    pub quality: f64,
    /// Trained shared coefficients.
    pub coeffs: Vec<Tensor>,
    /// Wall-clock search time in seconds.
    pub seconds: f64,
}

impl MultiNasResult {
    /// `(stage, candidate-name)` pairs of the selected configuration.
    pub fn assignment(&self) -> Vec<(String, String)> {
        self.stage_names
            .iter()
            .zip(&self.choices)
            .map(|(s, &c)| (s.clone(), self.candidates[c].clone()))
            .collect()
    }
}

/// Mean normalized area of a per-stage assignment.
pub fn mean_area(candidates: &[Arc<dyn Multiplier>], choices: &[usize]) -> f64 {
    assert!(!choices.is_empty(), "empty stage assignment");
    choices.iter().map(|&c| candidates[c].metadata().area).sum::<f64>() / choices.len() as f64
}

/// The [`HardwarePlan`] of a per-stage candidate assignment, labeled
/// `PerTap`, `PerLayer` or `PerStage` by the kernel's layering.
pub(crate) fn assignment_plan<K: Kernel>(
    kernel: &K,
    candidates: &[Arc<dyn Multiplier>],
    choices: &[usize],
) -> HardwarePlan {
    let mults: Vec<Arc<dyn Multiplier>> =
        choices.iter().map(|&c| Arc::clone(&candidates[c])).collect();
    if kernel.stages_are_parallel() {
        HardwarePlan::PerTap(mults)
    } else if kernel.stages_are_layers() {
        HardwarePlan::PerLayer(mults)
    } else {
        HardwarePlan::PerStage(mults)
    }
}

/// Run a multi-hardware search over `kernel` (one gate per kernel stage).
///
/// `candidates` must already be adapted via [`Kernel::adapt`]; per the
/// paper, no performance pruning is applied here because mixing units
/// above and below the budget can still satisfy the *average* constraint.
///
/// Every supernet epoch emits one event (run `"search-multi"`) carrying
/// the coefficient-step loss and — once gate updates begin — the sampled
/// assignment, its batch quality and mean area, and all gate
/// probabilities. The verification and polish fine-tunes emit
/// `"fine-tune"` events.
///
/// # Panics
///
/// Panics if `candidates` is empty or the kernel has no stages.
#[allow(clippy::too_many_arguments)]
pub fn search_multi<K: Kernel + Sync>(
    kernel: &K,
    candidates: &[Arc<dyn Multiplier>],
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
    gate_lr: f64,
    objective: MultiObjective,
    observer: &mut dyn TrainObserver,
) -> MultiNasResult {
    assert!(!candidates.is_empty(), "hardware search needs at least one candidate");
    let n_stages = kernel.num_stages();
    assert!(n_stages >= 1, "kernel has no stages");
    let start = Instant::now();
    let threads = config.effective_threads();
    let metric = kernel.metric();
    let constraint: ConstraintSet = objective.into();

    let train_refs = batch_references(kernel, train);
    let test_refs = batch_references(kernel, test);

    // Shared coefficients: initialized against a representative assignment
    // (all stages on candidate 0). Multi-stage kernels pin their
    // coefficient scale to the shared 8-bit convention, so the choice of
    // representative does not matter.
    let rep: Vec<Arc<dyn Multiplier>> = vec![Arc::clone(&candidates[0]); n_stages];
    let mut session = TrainSession::new(kernel.init_coeffs(&rep), config.lr);
    let mut gates: Vec<BinaryGate> =
        (0..n_stages).map(|_| BinaryGate::new(candidates.len(), gate_lr)).collect();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0417_1e5a);

    // The shared coefficients train on *uniformly* sampled configurations
    // (single-path-one-shot style): training them on the gates' own
    // samples lets the coefficients co-adapt to whatever the gates favored
    // early, which self-reinforces arbitrary choices. Gate updates start
    // after a warmup so early quality estimates are not pure noise.
    let warmup = config.epochs / 4;
    for step in 0..config.epochs {
        let (batch, refs) = minibatch(config, step, train, &train_refs);

        // Coefficient step on a uniformly sampled configuration.
        let uniform: Vec<usize> =
            (0..n_stages).map(|_| rng.random_range(0..candidates.len())).collect();
        let uni_plan = assignment_plan(kernel, candidates, &uniform);
        let mse = session.step_on(kernel, &uni_plan, &batch, &refs, threads);

        if step < warmup {
            observer.on_epoch(&EpochEvent {
                run: "search-multi",
                detail: kernel.name(),
                epoch: step,
                loss: Some(mse),
                area: Some(uni_plan.mean_area()),
                seconds: start.elapsed().as_secs_f64(),
                ..Default::default()
            });
            continue;
        }

        // Gate signal: single-path sampling per gate, scored by the total
        // objective on the same batch.
        let sampled: Vec<usize> = gates.iter().map(|g| g.sample_one(&mut rng)).collect();
        let mults: Vec<Arc<dyn Multiplier>> =
            sampled.iter().map(|&c| Arc::clone(&candidates[c])).collect();
        let outputs = batch_outputs(kernel, session.coeffs(), &mults, &batch, threads);
        let q = metric.evaluate(&outputs, &refs);
        let area = mean_area(candidates, &sampled);
        let total = constraint.score(metric, q, area);
        for (gate, &choice) in gates.iter_mut().zip(&sampled) {
            gate.update_single_path(choice, total);
        }
        let probs: Vec<Vec<f64>> = gates.iter().map(BinaryGate::probabilities).collect();
        observer.on_epoch(&EpochEvent {
            run: "search-multi",
            detail: kernel.name(),
            epoch: step,
            loss: Some(mse),
            quality: Some(q),
            area: Some(area),
            sampled: &sampled,
            gate_probs: &probs,
            seconds: start.elapsed().as_secs_f64(),
            ..Default::default()
        });
    }
    let coeffs = session.into_coeffs();

    // Candidate configurations for the final selector: the gates' argmax
    // plus every uniform (single-unit) assignment. The paper observes that
    // near a single-multiplier Pareto point the serial NAS "will converge
    // to the trained-hardware solution"; verifying uniform configurations
    // explicitly makes that guaranteed rather than probabilistic, while
    // mixed assignments still win wherever they are genuinely better.
    let gate_choices: Vec<usize> = gates.iter().map(BinaryGate::best).collect();
    let mut proposals: Vec<Vec<usize>> = vec![gate_choices];
    for c in 0..candidates.len() {
        proposals.push(vec![c; n_stages]);
    }
    // For few-stage kernels, also expand the cartesian product of each
    // gate's top-two candidates (≤ 2^n assignments) so mixed
    // configurations between the gates' favorites get verified too.
    if n_stages <= 5 {
        let top2: Vec<[usize; 2]> = gates
            .iter()
            .map(|g| {
                let p = g.probabilities();
                let mut idx: Vec<usize> = (0..p.len()).collect();
                idx.sort_by(|&a, &b| p[b].total_cmp(&p[a]));
                [idx[0], *idx.get(1).unwrap_or(&idx[0])]
            })
            .collect();
        for mask in 0..(1usize << n_stages) {
            let combo: Vec<usize> =
                (0..n_stages).map(|s| top2[s][(mask >> s) & 1]).collect();
            if !proposals.contains(&combo) {
                proposals.push(combo);
            }
        }
    }
    let verify_cfg = {
        let mut v = config.clone();
        v.epochs = (config.epochs / 6).max(1);
        v
    };
    let scope = RunScope { run: "fine-tune", detail: "verify", start };
    let mut best: Option<(f64, Vec<usize>, Vec<Tensor>)> = None;
    let init_coeffs = kernel.init_coeffs(&rep);
    for proposal in proposals {
        let plan = assignment_plan(kernel, candidates, &proposal);
        let mults = plan.materialize(n_stages);
        let tuned = fine_tune(
            kernel,
            coeffs.clone(),
            &plan,
            train,
            &train_refs,
            &verify_cfg,
            threads,
            scope,
            observer,
        );
        // Some assignments train better from the original coefficients
        // than from the supernet-pretrained ones (different basins), so
        // verify a from-scratch fine-tune as well.
        let tuned_init = fine_tune(
            kernel,
            init_coeffs.clone(),
            &plan,
            train,
            &train_refs,
            &verify_cfg,
            threads,
            scope,
            observer,
        );
        let area = mean_area(candidates, &proposal);
        // Score the fine-tuned sets and the original (unaltered)
        // coefficients: LAC may always decline to change the application.
        for cand_coeffs in [&tuned, &tuned_init, &init_coeffs] {
            let outputs = batch_outputs(kernel, cand_coeffs, &mults, train, threads);
            let q = metric.evaluate(&outputs, &train_refs);
            let score = constraint.score(metric, q, area);
            if best.as_ref().is_none_or(|(s, _, _)| score < *s) {
                best = Some((score, proposal.clone(), cand_coeffs.clone()));
            }
        }
    }
    let (_, choices, coeffs) = best.expect("at least one proposal");
    let final_plan = assignment_plan(kernel, candidates, &choices);
    let final_mults = final_plan.materialize(n_stages);

    // Final polish of the winner.
    let polish_cfg = {
        let mut v = config.clone();
        v.epochs = (config.epochs / 2).max(1);
        v
    };
    let coeffs = fine_tune(
        kernel,
        coeffs,
        &final_plan,
        train,
        &train_refs,
        &polish_cfg,
        threads,
        scope.with_detail("polish"),
        observer,
    );

    // LAC can always decline to alter the application: fall back to the
    // original coefficients when training left the shared set worse off
    // for the selected configuration.
    let q_trained = quality(kernel, &coeffs, &final_mults, test, &test_refs, threads);
    let init = kernel.init_coeffs(&rep);
    let q_init = quality(kernel, &init, &final_mults, test, &test_refs, threads);
    let (q, coeffs) = if metric.direction().is_better(q_trained, q_init) {
        (q_trained, coeffs)
    } else {
        (q_init, init)
    };

    MultiNasResult {
        stage_names: kernel.stage_names(),
        candidates: candidates.iter().map(|m| m.name().to_owned()).collect(),
        choices: choices.clone(),
        gate_probabilities: gates.iter().map(BinaryGate::probabilities).collect(),
        area: mean_area(candidates, &choices),
        quality: q,
        coeffs,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Coefficient-only training of a frozen stage assignment, keeping the
/// best-loss iterate (shared by the NAS fine-tune phase and the greedy
/// baseline's final polish).
#[allow(clippy::too_many_arguments)]
pub(crate) fn fine_tune<K: Kernel + Sync>(
    kernel: &K,
    start_coeffs: Vec<Tensor>,
    plan: &HardwarePlan,
    train: &[K::Sample],
    train_refs: &[Vec<f64>],
    config: &TrainConfig,
    threads: usize,
    scope: RunScope<'_>,
    observer: &mut dyn TrainObserver,
) -> Vec<Tensor> {
    let mut session = TrainSession::new(start_coeffs, config.lr);
    // On divergence the session keeps its best finite checkpoint, which
    // is exactly what fine-tuning deploys — degrade gracefully instead
    // of aborting a whole search over one bad polish.
    let _ = session.run(kernel, plan, train, train_refs, config, threads, scope, observer);
    session.into_best()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_apps::{FilterApp, FilterKind, StageMode};
    use lac_data::{synth_image, GrayImage};
    use lac_hw::catalog;

    use crate::NullObserver;

    fn dataset() -> (Vec<GrayImage>, Vec<GrayImage>) {
        let train: Vec<GrayImage> = (0..5).map(|i| synth_image(32, 32, i)).collect();
        let test: Vec<GrayImage> = (60..63).map(|i| synth_image(32, 32, i)).collect();
        (train, test)
    }

    #[test]
    fn parallel_blur_search_runs_and_reports_consistent_area() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
        let candidates: Vec<Arc<dyn Multiplier>> = ["mul8u_FTA", "DRUM16-4"]
            .iter()
            .map(|n| app.adapt(&catalog::by_name(n).unwrap()))
            .collect();
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(15).learning_rate(2.0).threads(4).seed(2);
        let result = search_multi(
            &app,
            &candidates,
            &train,
            &test,
            &cfg,
            0.5,
            MultiObjective::AreaConstrained { area_threshold: 0.3, gamma: 0.9, delta: 1.0 },
            &mut NullObserver,
        );
        assert_eq!(result.choices.len(), 9);
        assert_eq!(result.gate_probabilities.len(), 9);
        let expect = mean_area(&candidates, &result.choices);
        assert!((result.area - expect).abs() < 1e-12);
        assert!(result.quality > 0.0, "SSIM {}", result.quality);
    }

    #[test]
    fn tight_area_budget_pushes_gates_to_cheap_units() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
        // JV3 area 0.03, GK2 area 1.01 (signed 16, adapted for unsigned use
        // is not allowed — use DRUM16-6 at 0.39 instead).
        let candidates: Vec<Arc<dyn Multiplier>> = ["mul8u_FTA", "DRUM16-6"]
            .iter()
            .map(|n| app.adapt(&catalog::by_name(n).unwrap()))
            .collect();
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(60).learning_rate(2.0).threads(4).seed(3);
        let result = search_multi(
            &app,
            &candidates,
            &train,
            &test,
            &cfg,
            0.8,
            // Budget below DRUM16-6's area: the mean must be pulled down
            // by choosing FTA nearly everywhere.
            MultiObjective::AreaConstrained { area_threshold: 0.1, gamma: 1.0, delta: 20.0 },
            &mut NullObserver,
        );
        let fta_picks = result.choices.iter().filter(|&&c| c == 0).count();
        assert!(fta_picks >= 6, "only {fta_picks}/9 taps picked the cheap unit: {result:?}");
    }

    #[test]
    fn accuracy_constrained_objective_minimizes_area() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
        let candidates: Vec<Arc<dyn Multiplier>> = ["mul8u_185Q", "DRUM16-6"]
            .iter()
            .map(|n| app.adapt(&catalog::by_name(n).unwrap()))
            .collect();
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(150).learning_rate(2.0).threads(4).seed(4);
        let result = search_multi(
            &app,
            &candidates,
            &train,
            &test,
            &cfg,
            1.0,
            // A very loose quality floor: area should dominate, favoring
            // the cheaper 185Q (0.13 vs 0.39).
            MultiObjective::AccuracyConstrained { quality_target: 0.2, delta: 5.0 },
            &mut NullObserver,
        );
        let cheap_picks = result.choices.iter().filter(|&&c| c == 0).count();
        assert!(cheap_picks >= 6, "only {cheap_picks}/9 taps picked the cheap unit");
    }

    #[test]
    fn observer_sees_supernet_and_fine_tune_events() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
        let candidates: Vec<Arc<dyn Multiplier>> = ["mul8u_FTA", "DRUM16-4"]
            .iter()
            .map(|n| app.adapt(&catalog::by_name(n).unwrap()))
            .collect();
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(8).learning_rate(2.0).threads(2).seed(2);
        let mut obs = crate::MemoryObserver::new();
        let _ = search_multi(
            &app,
            &candidates,
            &train,
            &test,
            &cfg,
            0.5,
            MultiObjective::AreaConstrained { area_threshold: 0.3, gamma: 0.9, delta: 1.0 },
            &mut obs,
        );
        let supernet = obs.lines.iter().filter(|l| l.contains("\"run\":\"search-multi\"")).count();
        assert_eq!(supernet, 8);
        assert!(obs.lines.iter().any(|l| l.contains("\"run\":\"fine-tune\"")));
        // Post-warmup events carry a sampled assignment per gate.
        assert!(obs.lines.iter().any(|l| l.contains("\"sampled\":[") && !l.contains("\"sampled\":[]")));
    }

    #[test]
    fn assignment_pairs_names() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
        let candidates: Vec<Arc<dyn Multiplier>> =
            vec![app.adapt(&catalog::by_name("mul8u_FTA").unwrap())];
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(3).threads(2);
        let result = search_multi(
            &app,
            &candidates,
            &train,
            &test,
            &cfg,
            0.5,
            MultiObjective::AreaConstrained { area_threshold: 1.0, gamma: 1.0, delta: 1.0 },
            &mut NullObserver,
        );
        let assignment = result.assignment();
        assert_eq!(assignment.len(), 9);
        assert!(assignment.iter().all(|(_, m)| m == "mul8u_FTA"));
    }
}
