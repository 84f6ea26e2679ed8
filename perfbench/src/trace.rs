//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A traced run times every call it makes into a layer's public
//! functions and reports the per-layer metrics. A span is two clock
//! reads; what it adds to a call is measured by timing the same calls
//! with and without spans, so the run reports its own overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::report::Outcome;

/// Per-layer values of one traced run.
#[derive(Debug)]
pub struct Tracer {
    values: BTreeMap<String, f64>,
}

impl Tracer {
    /// A tracer with every per-layer metric at 0 ("not exercised").
    pub fn new() -> Self {
        let values = crate::report::expected_names(true)
            .into_iter()
            .map(|n| (n, 0.0))
            .collect();
        Tracer { values }
    }

    /// Run `f` inside a span; returns its value and seconds.
    pub fn span<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let v = f();
        (v, t.elapsed().as_secs_f64())
    }

    /// The median seconds of `f` over at least `min_reps` spans and up
    /// to `budget_s` seconds.
    pub fn median_span(&mut self, min_reps: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
        let start = Instant::now();
        let mut secs = Vec::new();
        while secs.len() < min_reps
            || (secs.len() < 10_000 && start.elapsed().as_secs_f64() < budget_s)
        {
            secs.push(self.span(&mut f).1);
        }
        crate::stats::median(&secs)
    }

    /// Set per-layer metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric `{name}`"));
        *slot = value;
    }

    /// Add `value` to per-layer metric `name` (weighted mixes).
    pub fn add(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric `{name}`"));
        *slot += value;
    }

    /// What spans add to `f`, as a share of its bare cost: rounds of
    /// `CALLS` calls timed as one block, against `CALLS` calls each in
    /// a span of its own, in alternating order. The median over rounds
    /// of spanned / bare - 1; noise can make it negative.
    pub fn overhead_on(&mut self, mut f: impl FnMut()) -> f64 {
        const ROUNDS: usize = 7;
        const CALLS: usize = 10;
        let mut shares = Vec::new();
        for round in 0..ROUNDS {
            let mut bare = 0.0;
            let mut spanned = 0.0;
            for pass in 0..2 {
                let t = Instant::now();
                if (pass + round) % 2 == 0 {
                    for _ in 0..CALLS {
                        f();
                    }
                    bare = t.elapsed().as_secs_f64();
                } else {
                    for _ in 0..CALLS {
                        self.span(&mut f);
                    }
                    spanned = t.elapsed().as_secs_f64();
                }
            }
            shares.push(spanned / bare - 1.0);
        }
        crate::stats::median(&shares)
    }

    /// Close the run: move every per-layer value into `out`.
    pub fn finish(self, out: &mut Outcome) {
        for (name, value) in self.values {
            out.set(&name, value, Vec::new());
        }
    }
}
