//! `sweep-cnn`: the `cnn_frontier` job list on the sweep orchestrator.
//!
//! 11 untrained uniform cells, 11 trained uniform cells and 5 per-layer
//! NAS cells through `lac_bench::sched::Sweep` with 2 workers and the
//! result cache off, artifacts in the run's scratch directory. At the
//! default seed the frontier document must reproduce the committed
//! `results/bench/BENCH_cnn.json` byte for byte; at other seeds LAC must
//! never lower accuracy and every per-layer plan must meet its budget.

use std::time::Instant;

use lac_apps::{CnnApp, Kernel};
use lac_bench::driver;
use lac_bench::sched::{Job, JobOutcome, Sweep, UnitJob};
use lac_data::CnnDataset;
use lac_hw::catalog;
use lac_rt::json::Value;

use crate::probe;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::train::DEFAULT_SEED;
use crate::{Opts, SetupClock};

/// The committed frontier the default seed must reproduce.
const COMMITTED: &str = "results/bench/BENCH_cnn.json";
/// Sweep workers.
const WORKERS: usize = 2;
/// Per-layer NAS knobs of `cnn_frontier`.
const BUDGETS: [f64; 5] = [0.04, 0.05, 0.06, 0.08, 0.12];
const EPOCH_FACTOR: usize = 4;
const GAMMA: f64 = 0.9;
const DELTA: f64 = 8.0;
/// Set-ups timed after every job list of an untraced run (about 0.4 s
/// each time).
const SETUPS_PER_LIST: usize = 16;

fn units() -> Vec<(String, f64)> {
    catalog::paper_multipliers()
        .iter()
        .map(|m| (m.name().to_owned(), m.metadata().area))
        .collect()
}

fn jobs() -> Vec<Job> {
    let units = units();
    let mut jobs = Vec::new();
    for (u, _) in &units {
        jobs.push(Job::new(
            format!("untrained:{u}"),
            UnitJob::CnnUntrained { spec: u.clone() },
        ));
    }
    for (u, _) in &units {
        jobs.push(Job::new(
            format!("trained:{u}"),
            UnitJob::CnnFixed { spec: u.clone() },
        ));
    }
    for &budget in &BUDGETS {
        jobs.push(Job::new(
            format!("per-layer:area<={budget:.2}"),
            UnitJob::CnnPerLayerNas {
                epoch_factor: EPOCH_FACTOR,
                area_threshold: budget,
                gamma: GAMMA,
                delta: DELTA,
            },
        ));
    }
    jobs
}

fn num(o: &JobOutcome, key: &str) -> f64 {
    o.num(key).unwrap_or(f64::NAN)
}

/// The `BENCH_cnn.json` document `cnn_frontier` writes for these outcomes.
fn frontier_doc(outcomes: &[JobOutcome]) -> Value {
    let units = units();
    let n = units.len();
    let (untrained, rest) = outcomes.split_at(n);
    let (trained, per_layer) = rest.split_at(n);
    let mut best: Option<(usize, f64)> = None;
    for (i, o) in trained.iter().enumerate() {
        let after = num(o, "after");
        let better = match best {
            None => true,
            Some((j, q)) => after > q || (after == q && units[i].1 < units[j].1),
        };
        if better {
            best = Some((i, after));
        }
    }
    let (bi, bq) = best.expect("paper catalog is non-empty");
    let ba = units[bi].1;
    let mut benches = Vec::new();
    for (i, (u, area)) in units.iter().enumerate() {
        benches.push(Value::Obj(vec![
            ("id".into(), Value::Str(format!("cnn/uniform/{u}"))),
            ("kind".into(), Value::Str("uniform".into())),
            ("spec".into(), Value::Str(u.clone())),
            ("area".into(), Value::Num(*area)),
            (
                "untrained".into(),
                Value::Num(num(&untrained[i], "quality")),
            ),
            ("trained".into(), Value::Num(num(&trained[i], "after"))),
        ]));
    }
    for (o, &budget) in per_layer.iter().zip(&BUDGETS) {
        let quality = num(o, "quality");
        let area = num(o, "area");
        let assignment: Vec<Value> = match o.ok().and_then(|v| v.get("assignment")) {
            Some(Value::Arr(items)) => items
                .iter()
                .filter_map(|m| m.as_str().map(|s| Value::Str(s.to_owned())))
                .collect(),
            _ => Vec::new(),
        };
        let dominates = (quality >= bq && area < ba) || (quality > bq && area <= ba);
        benches.push(Value::Obj(vec![
            (
                "id".into(),
                Value::Str(format!("cnn/per-layer/area{budget:.2}")),
            ),
            ("kind".into(), Value::Str("per-layer".into())),
            ("area_threshold".into(), Value::Num(budget)),
            ("assignment".into(), Value::Arr(assignment)),
            ("area".into(), Value::Num(area)),
            ("quality".into(), Value::Num(quality)),
            ("dominates_best_uniform".into(), Value::Bool(dominates)),
        ]));
    }
    let (sizing, lr) = driver::cnn_sizing();
    Value::Obj(vec![
        ("suite".into(), Value::Str("cnn".into())),
        ("app".into(), Value::Str("cnn-classifier".into())),
        ("train".into(), Value::Num(sizing.train as f64)),
        ("test".into(), Value::Num(sizing.test as f64)),
        ("epochs".into(), Value::Num(sizing.epochs as f64)),
        ("minibatch".into(), Value::Num(sizing.minibatch as f64)),
        ("lr".into(), Value::Num(lr)),
        ("seed".into(), Value::Num(lac_bench::seed() as f64)),
        ("epoch_factor".into(), Value::Num(EPOCH_FACTOR as f64)),
        ("gamma".into(), Value::Num(GAMMA)),
        ("delta".into(), Value::Num(DELTA)),
        (
            "best_uniform".into(),
            Value::Obj(vec![
                ("spec".into(), Value::Str(units[bi].0.clone())),
                ("area".into(), Value::Num(ba)),
                ("quality".into(), Value::Num(bq)),
            ]),
        ),
        ("benches".into(), Value::Arr(benches)),
    ])
}

/// Check one job list's outcomes.
fn check(opts: &Opts, outcomes: &[JobOutcome], out: &mut Outcome) {
    let n = units().len();
    out.attempt(outcomes.len() as u64);
    for o in outcomes {
        if let Err(e) = &o.value {
            out.fail(format!("cell {}: {e}", o.detail));
        }
        if o.cached {
            out.fail(format!("cell {} was served from the cache", o.detail));
        }
    }
    if out.failed > 0 {
        return;
    }
    if opts.seed == DEFAULT_SEED && !opts.smoke {
        let mut text = frontier_doc(outcomes).to_json();
        text.push('\n');
        match std::fs::read(COMMITTED) {
            Ok(bytes) if bytes == text.as_bytes() => {}
            Ok(_) => out.fail(format!("frontier differs from {COMMITTED}")),
            Err(e) => out.fail(format!("read {COMMITTED}: {e}")),
        }
        return;
    }
    for i in 0..n {
        let before = num(&outcomes[i], "quality");
        let after = num(&outcomes[n + i], "after");
        if after.is_nan() || after < before {
            out.fail(format!(
                "{}: LAC lowered accuracy {before} -> {after}",
                outcomes[n + i].detail
            ));
        }
    }
    for (o, &budget) in outcomes[2 * n..].iter().zip(&BUDGETS) {
        let area = num(o, "area");
        if area.is_nan() || area > budget + 1e-12 {
            out.fail(format!("{}: plan area {area} exceeds its budget", o.detail));
        }
    }
}

fn kind(detail: &str) -> &str {
    detail.split(':').next().unwrap_or_default()
}

/// Optimizer-step lengths from the trained cells' run logs.
fn step_ms(outcomes: &[JobOutcome]) -> Vec<f64> {
    let mut steps = Vec::new();
    for o in outcomes.iter().filter(|o| kind(&o.detail) == "trained") {
        let mut last: Option<f64> = None;
        for line in &o.log {
            let Ok(v) = Value::parse(line) else { continue };
            let Some(secs) = v.get("seconds").and_then(Value::as_f64) else {
                continue;
            };
            if let Some(prev) = last {
                steps.push((secs - prev) * 1e3);
            }
            last = Some(secs);
        }
    }
    steps
}

/// Run the workload.
pub fn run(opts: &Opts, out: &mut Outcome, tracer: Option<Tracer>) {
    // The cells read their seed and sizing from the environment, as the
    // `cnn_frontier` binary does; no other thread runs yet.
    std::env::set_var("LAC_SEED", opts.seed.to_string());
    if opts.smoke {
        std::env::set_var("LAC_QUICK", "1");
    }
    let (sizing, _) = driver::cnn_sizing();
    let kernel = CnnApp::paper();
    // One set-up: the dataset and the adapted catalog, timed apart for
    // the traced run's per-layer figures.
    let one = || {
        let t = Instant::now();
        let data = CnnDataset::generate(sizing.train, sizing.test, 16, 16, opts.seed);
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let units = lac_bench::adapted_catalog(&kernel);
        (data, units, gen_s, t.elapsed().as_secs_f64())
    };
    let mut setups = SetupClock::default();
    let (data, catalog_units, gen_s, adapt_s) = setups.time(one);
    let reps = if tracer.is_some() { 0 } else { SETUPS_PER_LIST };

    let jobs = jobs();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut cells: Vec<JobOutcome> = Vec::new();
    let mut rss_mb = 0.0;
    loop {
        let t = Instant::now();
        let outcomes = Sweep::new("cnn_frontier", jobs.clone())
            .workers(WORKERS)
            .cache(false)
            .results_dir(opts.work.join("results"))
            .run();
        let wall = t.elapsed().as_secs_f64();
        check(opts, &outcomes, out);
        walls.push(wall);
        cells.extend(outcomes);
        // A second job list and the timed set-ups only grow the
        // allocator's heap; the peak of the first job list is the
        // sweep's footprint.
        if walls.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        setups.repeat(reps, one, drop);
        // Start another job list only if it fits in the measured time.
        let elapsed = start.elapsed().as_secs_f64();
        if tracer.is_some() || elapsed + wall > opts.seconds {
            break;
        }
    }
    let cell_ms: Vec<f64> = cells.iter().map(|o| o.seconds * 1e3).collect();
    out.detail("job_lists", Value::Num(walls.len() as f64));

    match tracer {
        None => {
            let per_s: Vec<f64> = walls.iter().map(|w| jobs.len() as f64 / w).collect();
            let total: f64 = walls.iter().sum();
            out.named("setup_s", "s", setups.value(), setups.secs.clone());
            out.named("run_s", "s", total / walls.len() as f64, walls.clone());
            out.named("rss_mb", "MiB", rss_mb, Vec::new());
            out.set("setup_s", setups.value(), setups.secs);
            out.set(
                "throughput_per_s",
                (walls.len() * jobs.len()) as f64 / total,
                per_s,
            );
            out.detail("cell_ms_p99", Value::Num(quantile(&cell_ms, 0.99)));
            out.set("rss_mb", rss_mb, Vec::new());
        }
        Some(mut tr) => {
            tr.set("lac-data.generate_ms", gen_s * 1e3);
            tr.set(
                "lac-hw.adapt_ms",
                adapt_s * 1e3 / catalog_units.len().max(1) as f64,
            );
            tr.set("lac-hw.lut_bytes", probe::lut_bytes(&catalog_units));
            let secs_of = |k: &str| -> Vec<f64> {
                cells
                    .iter()
                    .filter(|o| kind(&o.detail) == k)
                    .map(|o| o.seconds)
                    .collect()
            };
            for (k, name) in [
                ("untrained", "lac-bench.sched.cell_s.untrained"),
                ("trained", "lac-bench.sched.cell_s.trained"),
                ("per-layer", "lac-bench.sched.cell_s.per-layer"),
            ] {
                tr.set(name, secs_of(k).iter().sum());
            }
            tr.set("lac-core.search_cell_s", median(&secs_of("per-layer")));
            let longest = cells.iter().map(|o| o.seconds).fold(0.0, f64::max);
            tr.set("lac-bench.sched.longest_cell_s", longest);
            let busy: f64 = cells.iter().map(|o| o.seconds).sum();
            let wall: f64 = walls.iter().sum();
            tr.set("lac-bench.sched.busy_frac", busy / (WORKERS as f64 * wall));
            tr.set(
                "lac-bench.sched.cache_hits",
                cells.iter().filter(|o| o.cached).count() as f64,
            );
            let steps = step_ms(&cells);
            tr.set("lac-core.step_ms_p50", quantile(&steps, 0.5));
            tr.set("lac-core.step_ms_p99", quantile(&steps, 0.99));
            let fta = catalog::by_name(probe::UNIT).expect("mul8u_FTA is in the catalog");
            let mults = vec![kernel.adapt(&fta); kernel.num_stages()];
            probe::cnn_layers(&mut tr, &data, &mults);
            probe::matmul_layer(&mut tr);
            tr.finish(out);
        }
    }
}
