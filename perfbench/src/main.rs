//! The LAC repository benchmark.
//!
//! ```text
//! perfbench --workload <train-jpeg|sweep-cnn|serve-blur|serve-mix>
//!           --seed N --seconds S --trace 0|1
//!           [--smoke] [--rustc STR] [--revision STR] [--source STR]
//! ```
//!
//! Untraced (`--trace 0`) runs measure the end-to-end metrics; traced
//! runs time the benchmark's calls into each layer and report the
//! per-layer metrics. `metrics.json` lists both sets. `run.py` builds
//! this program and is the way to run it; see `README.md`.

mod probe;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;
mod train;

use std::path::PathBuf;

use report::{Host, Outcome};

/// Set-ups timed over a run; `setup_s` is their median of means (see
/// [`stats::median_of_means`]). Untraced runs repeat their set-up between
/// the measured units, so the figure samples the whole run, as the run's
/// other metrics do: the reference box's speed drifts within a run, and a
/// burst of set-ups at its start sees only the first second.
#[derive(Debug, Default)]
pub struct SetupClock {
    /// Seconds of every set-up so far.
    pub secs: Vec<f64>,
}

impl SetupClock {
    /// Run and time one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = std::time::Instant::now();
        let v = setup();
        self.secs.push(t.elapsed().as_secs_f64());
        v
    }

    /// Time `setup` `reps` times, handing each result to `discard`.
    pub fn repeat<T>(
        &mut self,
        reps: usize,
        mut setup: impl FnMut() -> T,
        mut discard: impl FnMut(T),
    ) {
        for _ in 0..reps {
            let v = self.time(&mut setup);
            discard(v);
        }
    }

    /// `setup_s`: the median of `SETUP_GROUPS` group means, in seconds.
    pub fn value(&self) -> f64 {
        stats::median_of_means(&self.secs, SETUP_GROUPS)
    }
}

/// Groups of the set-up median of means.
const SETUP_GROUPS: usize = 5;

/// Workload names, in `metrics.json` order.
pub const WORKLOADS: [&str; 4] = ["train-jpeg", "sweep-cnn", "serve-blur", "serve-mix"];

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    /// Smoke sizes (self-tests only).
    pub smoke: bool,
    /// Scratch directory for checkpoints and sweep artifacts.
    pub work: PathBuf,
    /// Host identity passed in by `run.py`.
    pub host: Host,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Opts {
    let mut opts = Opts {
        seed: 42,
        seconds: 10.0,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value(),
            "--seed" => {
                let v = value();
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--seed: `{v}` is not an integer")));
            }
            "--seconds" => {
                let v = value();
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| {
                        usage(&format!("--seconds: `{v}` is not a positive number"))
                    });
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--rustc" => opts.host.rustc = value(),
            "--revision" => opts.host.revision = value(),
            "--source" => opts.host.source = value(),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        usage(&format!("unknown workload `{}`", opts.workload));
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = parse(&args);
    opts.work =
        PathBuf::from(".perfbench-work").join(format!("{}-{}", opts.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("perfbench: create {}: {e}", opts.work.display());
        std::process::exit(1);
    }

    let mut out = Outcome::default();
    let tracer = opts.trace.then(trace::Tracer::new);
    match opts.workload.as_str() {
        "train-jpeg" => train::run(&opts, &mut out, tracer),
        "sweep-cnn" => sweep::run(&opts, &mut out, tracer),
        "serve-blur" => serve::run(&opts, &mut out, tracer, serve::Traffic::Blur),
        "serve-mix" => serve::run(&opts, &mut out, tracer, serve::Traffic::Mix),
        _ => unreachable!("workload validated by parse"),
    }
    let _ = std::fs::remove_dir_all(&opts.work);
    let _ = std::fs::remove_dir(".perfbench-work");

    let printed: Vec<String> = out.metrics.keys().cloned().collect();
    let mut want = report::expected_names(opts.trace);
    want.sort();
    if printed != want {
        out.attempt(1);
        out.fail(format!(
            "metric set {printed:?} differs from metrics.json {want:?}"
        ));
    }
    for f in &out.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    report::print(&opts, &out);
}
