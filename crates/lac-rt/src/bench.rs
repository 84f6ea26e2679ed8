//! A lightweight warmup + median micro-benchmark harness.
//!
//! Replaces the criterion benches with a zero-dependency harness that
//! writes machine-readable JSON next to the human-readable report, so
//! future PRs can diff performance numbers mechanically.
//!
//! # Protocol
//!
//! For each benchmark the harness:
//!
//! 1. calibrates — doubles the iteration count until one batch takes at
//!    least the target batch time (default 10 ms);
//! 2. warms up — runs a few calibrated batches untimed;
//! 3. samples — times `samples` batches (default 11) and records the
//!    per-iteration nanoseconds of each;
//! 4. reports the **median**, mean, and minimum per-iteration time.
//!
//! Set `LAC_BENCH_FAST=1` to collapse the protocol to a smoke run (one
//! iteration, one sample) — used by tests that only check the plumbing.
//! `LAC_BENCH_SAMPLES=<n>` overrides the sample count.
//!
//! # Output
//!
//! [`Harness::finish`] writes `BENCH_<suite>.json` in the current
//! directory (for `cargo bench`, the crate root of the bench target):
//!
//! ```json
//! {"suite":"matmul_kernels","benches":[
//!   {"id":"matmul_kernels/8x8/gather","median_ns":1707.7,
//!    "mean_ns":1713.4,"min_ns":1664.4,"samples":11,"iters_per_sample":8192}]}
//! ```
//!
//! # Usage
//!
//! ```no_run
//! use lac_rt::bench::Harness;
//!
//! let mut h = Harness::new("example");
//! let mut g = h.group("sums");
//! g.bench_function("naive", |b| b.iter(|| (0..1000u64).sum::<u64>()));
//! g.finish();
//! h.finish();
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One recorded benchmark result.
#[derive(Debug, Clone)]
pub struct Record {
    /// Full id, `<group>/<name>`.
    pub id: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Minimum per-iteration time in nanoseconds.
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
}

/// A benchmark suite; owns the records and writes the JSON report.
#[derive(Debug)]
pub struct Harness {
    suite: String,
    records: Vec<Record>,
    samples: usize,
    batch_target: Duration,
    fast: bool,
}

impl Harness {
    /// Create a suite named `suite` (controls the JSON file name).
    pub fn new(suite: &str) -> Self {
        let fast = std::env::var("LAC_BENCH_FAST").is_ok_and(|v| v != "0" && !v.is_empty());
        let samples = std::env::var("LAC_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(if fast { 1 } else { 11 });
        Harness {
            suite: suite.to_string(),
            records: Vec::new(),
            samples,
            batch_target: Duration::from_millis(10),
            fast,
        }
    }

    /// Start a named group; benchmark ids become `<group>/<name>`.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group { harness: self, name: name.to_string() }
    }

    /// The records collected so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Write `BENCH_<suite>.json` in the current directory and print a
    /// closing line. Returns the path written.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn finish(&self) -> std::path::PathBuf {
        let path = std::path::PathBuf::from(format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.to_json()).expect("write bench JSON");
        println!("[bench] wrote {} ({} results)", path.display(), self.records.len());
        path
    }

    /// The JSON report as a string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"suite\":");
        push_json_string(&mut out, &self.suite);
        out.push_str(",\"benches\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            push_json_string(&mut out, &r.id);
            out.push_str(&format!(
                ",\"median_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"samples\":{},\"iters_per_sample\":{}}}",
                json_f64(r.median_ns),
                json_f64(r.mean_ns),
                json_f64(r.min_ns),
                r.samples,
                r.iters_per_sample
            ));
        }
        out.push_str("]}\n");
        out
    }

    fn record(&mut self, id: String, per_iter_ns: Vec<f64>, iters: u64) {
        let mut sorted = per_iter_ns.clone();
        sorted.sort_by(f64::total_cmp);
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            0.5 * (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2])
        };
        let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
        let min = sorted[0];
        println!("[bench] {id:<48} median {median:>12.1} ns/iter ({} x {iters} iters)", sorted.len());
        self.records.push(Record {
            id,
            median_ns: median,
            mean_ns: mean,
            min_ns: min,
            samples: per_iter_ns.len(),
            iters_per_sample: iters,
        });
    }
}

/// A named benchmark group borrowed from a [`Harness`].
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
}

impl Group<'_> {
    /// Run one benchmark; `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] exactly once.
    pub fn bench_function(&mut self, name: impl AsRef<str>, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut f = f;
        let id = format!("{}/{}", self.name, name.as_ref());
        let (samples, batch_target, fast) =
            (self.harness.samples, self.harness.batch_target, self.harness.fast);

        // Calibrate: find an iteration count whose batch exceeds the
        // target time (criterion-style doubling).
        let mut iters: u64 = 1;
        if !fast {
            loop {
                let mut b = Bencher { iters, elapsed: Duration::ZERO };
                f(&mut b);
                if b.elapsed >= batch_target || iters >= 1 << 30 {
                    break;
                }
                iters *= 2;
            }
            // One warmup batch at the calibrated count.
            let mut b = Bencher { iters, elapsed: Duration::ZERO };
            f(&mut b);
        }

        let mut per_iter = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut b = Bencher { iters, elapsed: Duration::ZERO };
            f(&mut b);
            per_iter.push(b.elapsed.as_nanos() as f64 / iters as f64);
        }
        self.harness.record(id, per_iter, iters);
        self
    }

    /// No-op, kept for call-site symmetry with the old criterion groups.
    pub fn finish(&mut self) {}
}

/// Times the closure handed to [`Group::bench_function`].
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `iters` invocations of `f`; the return value is passed
    /// through [`black_box`] so the work is not optimized away.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format a float as JSON (finite values only; NaN/inf become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_harness(name: &str) -> Harness {
        // Build a harness with the fast path forced on, without relying
        // on process-global env vars (tests run concurrently).
        let mut h = Harness::new(name);
        h.fast = true;
        h.samples = 3;
        h
    }

    #[test]
    fn records_and_json_shape() {
        let mut h = fast_harness("unit");
        let mut g = h.group("g");
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
        assert_eq!(h.records().len(), 1);
        let r = &h.records()[0];
        assert_eq!(r.id, "g/sum");
        assert!(r.median_ns >= 0.0);
        assert_eq!(r.samples, 3);
        let json = h.to_json();
        assert!(json.starts_with("{\"suite\":\"unit\""), "{json}");
        assert!(json.contains("\"id\":\"g/sum\""), "{json}");
        assert!(json.contains("\"median_ns\":"), "{json}");
    }

    #[test]
    fn median_of_even_and_odd_sample_counts() {
        let mut h = fast_harness("m");
        h.record("a".into(), vec![3.0, 1.0, 2.0], 1);
        assert_eq!(h.records()[0].median_ns, 2.0);
        h.record("b".into(), vec![4.0, 1.0, 2.0, 3.0], 1);
        assert_eq!(h.records()[1].median_ns, 2.5);
    }

    #[test]
    fn json_escapes_strings() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn finish_writes_file() {
        let dir = std::env::temp_dir().join("lac_rt_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let cwd = std::env::current_dir().unwrap();
        // Serialize cwd mutation against other tests in this binary.
        let _guard = CWD_LOCK.lock().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let mut h = fast_harness("filetest");
        let mut g = h.group("g");
        g.bench_function("noop", |b| b.iter(|| 1u32));
        let path = h.finish();
        let body = std::fs::read_to_string(&path).unwrap();
        std::env::set_current_dir(cwd).unwrap();
        assert!(body.contains("\"suite\":\"filetest\""));
    }

    static CWD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
