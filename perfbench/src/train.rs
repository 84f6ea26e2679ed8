//! `train-jpeg`: the paper's core flow (Fig. 3) as a closed offline loop.
//!
//! Repeated `train_fixed` calls on the single-DCT JPEG kernel behind the
//! signed mul8u_FTA table, at paper sizing (100 train / 20 test 32×32
//! images), minibatch 8, one thread. Every call trains from the same
//! initial coefficients, so every call must return the same bits; at
//! the default seed those bits are pinned.

use std::sync::Arc;
use std::time::Instant;

use lac_apps::{JpegApp, JpegMode, Kernel, ServeApp};
use lac_core::{train_fixed_observed, EpochEvent, FixedResult, TrainConfig, TrainObserver};
use lac_data::ImageDataset;
use lac_hw::{catalog, Multiplier};
use lac_rt::json::Value;

use crate::probe::{self, LR, UNIT};
use crate::report::{peak_rss_mb, Outcome};
use crate::serve::Daemon;
use crate::stats::quantile;
use crate::trace::Tracer;
use crate::{Opts, SetupClock};

const MINIBATCH: usize = 8;

/// Set-ups timed after every `train_fixed` call of an untraced run (one
/// set-up is about 3% of a call).
const SETUPS_PER_CALL: usize = 2;

/// Seed whose result bits are pinned.
pub const DEFAULT_SEED: u64 = 42;

/// Fingerprint of the final coefficient bits and before/after quality
/// of one `train_fixed` call at [`DEFAULT_SEED`] and paper sizing.
const PINNED: &str = "d4afc49b110981be";

struct Sizes {
    train: usize,
    test: usize,
    steps: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            train: 16,
            test: 4,
            steps: 10,
        }
    } else {
        Sizes {
            train: 100,
            test: 20,
            steps: 100,
        }
    }
}

struct Setup {
    data: ImageDataset,
    mult: Arc<dyn Multiplier>,
}

fn setup(seed: u64, s: &Sizes, tr: Option<&mut Tracer>) -> Setup {
    let app = JpegApp::new(JpegMode::Single);
    let raw = catalog::by_name(UNIT).expect("mul8u_FTA is in the catalog");
    let t = Instant::now();
    let data = ImageDataset::generate(s.train, s.test, 32, 32, seed);
    let gen = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mult = app.adapt(&raw);
    let adapt = t.elapsed().as_secs_f64();
    if let Some(tr) = tr {
        tr.set("lac-data.generate_ms", gen * 1e3);
        tr.set("lac-hw.adapt_ms", adapt * 1e3);
        tr.set(
            "lac-hw.lut_bytes",
            probe::lut_bytes(std::slice::from_ref(&mult)),
        );
    }
    Setup { data, mult }
}

/// Records the wall-clock length of every optimizer step from the
/// engine's per-step event timestamps.
#[derive(Default)]
struct StepClock {
    last: Option<f64>,
    steps_ms: Vec<f64>,
}

impl TrainObserver for StepClock {
    fn on_epoch(&mut self, e: &EpochEvent<'_>) {
        // The first event's timestamp also covers the references and the
        // initial quality evaluation, so it only starts the clock.
        if let Some(prev) = self.last {
            self.steps_ms.push((e.seconds - prev) * 1e3);
        }
        self.last = Some(e.seconds);
    }
}

fn fingerprint(r: &FixedResult) -> String {
    let mut bytes = Vec::new();
    for t in &r.coeffs {
        for v in t.data() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    bytes.extend_from_slice(&r.before.to_bits().to_le_bytes());
    bytes.extend_from_slice(&r.after.to_bits().to_le_bytes());
    lac_rt::hash::fnv1a_64_hex(&bytes)
}

/// One checked `train_fixed` call; returns its wall-clock seconds.
fn train_once(
    opts: &Opts,
    s: &Sizes,
    su: &Setup,
    clock: &mut StepClock,
    first: &mut Option<String>,
    out: &mut Outcome,
) -> (f64, Option<FixedResult>) {
    let app = JpegApp::new(JpegMode::Single);
    let cfg = TrainConfig::new()
        .epochs(s.steps)
        .learning_rate(LR)
        .minibatch(MINIBATCH)
        .seed(opts.seed)
        .threads(1);
    clock.last = None;
    let t = Instant::now();
    let r = train_fixed_observed(&app, &su.mult, &su.data.train, &su.data.test, &cfg, clock);
    let wall = t.elapsed().as_secs_f64();
    out.attempt(1);
    let r = match r {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("train_fixed: {e}"));
            return (wall, None);
        }
    };
    let fp = fingerprint(&r);
    let direction = app.metric().direction();
    if direction.is_better(r.before, r.after) {
        out.fail(format!("LAC lowered quality: {} -> {}", r.before, r.after));
    } else if first.get_or_insert_with(|| fp.clone()) != &fp {
        out.fail(format!(
            "train_fixed is not deterministic: {fp} != {first:?}"
        ));
    } else if opts.seed == DEFAULT_SEED && !opts.smoke && fp != PINNED {
        out.fail(format!("fingerprint {fp} differs from the pinned {PINNED}"));
    }
    (wall, Some(r))
}

/// Run the workload.
pub fn run(opts: &Opts, out: &mut Outcome, tracer: Option<Tracer>) {
    let s = sizes(opts.smoke);
    let mut clock = StepClock::default();
    let mut first = None;
    match tracer {
        None => {
            let mut setups = SetupClock::default();
            let one = || setup(opts.seed, &s, None);
            let su = setups.time(one);
            let start = Instant::now();
            let mut walls = Vec::new();
            let mut rss_mb = 0.0;
            while walls.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
                walls.push(train_once(opts, &s, &su, &mut clock, &mut first, out).0);
                // The timed set-ups below briefly hold a second set-up;
                // the footprint is read before the first of them.
                if walls.len() == 1 {
                    rss_mb = peak_rss_mb();
                }
                setups.repeat(SETUPS_PER_CALL, one, drop);
            }
            // Totals, not medians over calls: the box's speed swings
            // within seconds, and a total weighs every stretch of the run
            // by its length where a median picks the majority state.
            let samples = (walls.len() * s.steps * MINIBATCH) as f64;
            let total: f64 = walls.iter().sum();
            let call_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
            let sps: Vec<f64> = walls
                .iter()
                .map(|w| (s.steps * MINIBATCH) as f64 / w)
                .collect();
            out.named("setup_s", "s", setups.value(), setups.secs.clone());
            out.named("samples_per_s", "1/s", samples / total, sps.clone());
            out.set("setup_s", setups.value(), setups.secs);
            out.set("throughput_per_s", samples / total, sps);
            out.detail("call_ms_p50", Value::Num(quantile(&call_ms, 0.5)));
            out.detail("step_ms_p50", Value::Num(quantile(&clock.steps_ms, 0.5)));
            out.detail("step_ms_p99", Value::Num(quantile(&clock.steps_ms, 0.99)));
            out.detail("steps", Value::Num(clock.steps_ms.len() as f64));
            out.detail("fingerprint", Value::Str(first.unwrap_or_default()));
            out.named("rss_mb", "MiB", rss_mb, Vec::new());
            out.set("rss_mb", rss_mb, Vec::new());
        }
        Some(mut tr) => {
            let su = setup(opts.seed, &s, Some(&mut tr));
            let start = Instant::now();
            let mut last = None;
            while last.is_none() || start.elapsed().as_secs_f64() < opts.seconds / 2.0 {
                let (_, r) = train_once(opts, &s, &su, &mut clock, &mut first, out);
                last = r.or(last);
                if out.failed > 0 && last.is_none() {
                    break;
                }
            }
            tr.set("lac-core.step_ms_p50", quantile(&clock.steps_ms, 0.5));
            tr.set("lac-core.step_ms_p99", quantile(&clock.steps_ms, 0.99));
            probe::serve_app_layers(&mut tr, ServeApp::Jpeg, opts.seed, 1.0);
            probe::matmul_layer(&mut tr);
            if let Some(r) = last {
                if let Err(e) = serve_trained(opts, &mut tr, &r) {
                    out.fail(format!("serving probe: {e}"));
                }
            }
            tr.finish(out);
        }
    }
}

/// Serving-side layers for the freshly trained JPEG coefficients.
fn serve_trained(opts: &Opts, tr: &mut Tracer, r: &FixedResult) -> Result<(), String> {
    let daemon = Daemon::start_single(opts, ServeApp::Jpeg, r.coeffs.clone())?;
    let model = daemon.model.clone();
    let res = probe::serving_layers(
        tr,
        &model,
        &daemon.ckpt,
        daemon.port(),
        opts.seed,
        1.0,
        true,
    );
    daemon.stop();
    res
}
