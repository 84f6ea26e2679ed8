//! Resilience sweep: overload × chaos cells through the deterministic
//! in-process harness ([`lac_serve::run_resilience`]).
//!
//! Each cell replays a seeded arrival stream (real wire frames through
//! a real frame reader) into the daemon's own dispatch core — bounded
//! batch queue, deadline pass, real serving model — on a mock clock,
//! with the storm cells additionally
//! injecting seeded dispatcher panics, oversized frames, dropped
//! connections, fragmented writes and corrupt checkpoint swaps. The
//! report — goodput, shed rate, deadline expiries, restart counts, the
//! error taxonomy and a response-byte fingerprint — is wall-clock free
//! and byte-identical for every `--jobs` value and worker count, so
//! `scripts/bench_check.sh` gates `BENCH_resilience.json` by byte
//! comparison against fresh runs at two different `--jobs` values.
//!
//! Run with: `cargo run --release -p lac-bench --bin resilience_sweep
//! [--jobs N] [--threads N] [--out PATH]`

use std::path::Path;

use lac_serve::{run_resilience_sweep, write_bench};

fn usage_error(msg: &str) -> ! {
    eprintln!("resilience_sweep: {msg}");
    eprintln!("usage: resilience_sweep [--jobs N] [--threads N] [--out PATH]");
    std::process::exit(2);
}

fn parse_count(flag: &str, value: &str) -> usize {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: `{value}` is not a valid integer")))
}

/// Keep injected dispatcher panics (the whole point of the chaos
/// cells) from spraying backtraces over the report; real panics still
/// print through the default hook.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected dispatcher panic") {
            default_hook(info);
        }
    }));
}

fn main() {
    silence_injected_panics();
    let mut jobs = 0usize; // 0 = all cores; the output is jobs-invariant
    let mut threads = 2usize;
    let mut out = "results/bench/BENCH_resilience.json".to_owned();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                let value = it.next().unwrap_or_else(|| usage_error("--jobs needs a value"));
                jobs = parse_count("--jobs", value);
            }
            "--threads" => {
                let value = it.next().unwrap_or_else(|| usage_error("--threads needs a value"));
                threads = parse_count("--threads", value);
                if threads == 0 {
                    usage_error("--threads must be positive");
                }
            }
            "--out" => {
                out = it.next().unwrap_or_else(|| usage_error("--out needs a path")).clone();
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }

    let doc = match run_resilience_sweep(jobs, threads) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("resilience_sweep: {e}");
            std::process::exit(1);
        }
    };

    if let Some(benches) = doc.get("benches").and_then(|b| b.as_arr()) {
        println!(
            "{:<24} {:>8} {:>10} {:>6} {:>8} {:>9} {:>9}",
            "cell", "offered", "completed", "shed", "expired", "restarts", "goodput"
        );
        for b in benches {
            let id = b.get("id").and_then(|v| v.as_str()).unwrap_or("?");
            let num = |k: &str| b.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
            println!(
                "{:<24} {:>8.0} {:>10.0} {:>6.0} {:>8.0} {:>9.0} {:>9.3}",
                id,
                num("offered"),
                num("completed"),
                num("shed"),
                num("expired"),
                num("restarts"),
                num("goodput")
            );
        }
    }

    if let Err(e) = write_bench(&doc, Path::new(&out)) {
        eprintln!("resilience_sweep: write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}
