//! Sweep-orchestrator guard: experiment binaries declare
//! `sched::UnitJob` lists, and only `lac_bench::sched` executes cells. A
//! direct call from `src/bin` to a lac-core trainer, to the batch
//! gradient/output helpers, or to a `driver` cell function means a sweep
//! loop grew outside the orchestrator — unparallel, uncached,
//! nondeterministic.

use std::fs;
use std::path::{Path, PathBuf};

/// lac-core's nine trainer entry points and its two batch helpers.
const CORE_FUNCTIONS: [&str; 11] = [
    "train_fixed",
    "train_fixed_observed",
    "train_fixed_multistart",
    "train_fixed_resumable",
    "search_single",
    "search_accuracy_constrained",
    "search_multi",
    "brute_force",
    "greedy_multi",
    "batch_grads",
    "batch_outputs",
];

/// The one `driver` function binaries may call: it sizes a workload, it
/// does not run a cell.
const DRIVER_ALLOWED: [&str; 1] = ["cnn_sizing"];

fn crate_path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// Every top-level `pub fn` in `driver.rs` except [`DRIVER_ALLOWED`].
fn driver_cells() -> Vec<String> {
    let source = fs::read_to_string(crate_path("src/driver.rs")).expect("read driver.rs");
    source
        .lines()
        .filter_map(|line| line.strip_prefix("pub fn "))
        .map(|rest| rest.chars().take_while(|&c| is_ident(c)).collect::<String>())
        .filter(|name| !DRIVER_ALLOWED.contains(&name.as_str()))
        .collect()
}

fn forbidden() -> Vec<String> {
    let mut names: Vec<String> = CORE_FUNCTIONS.iter().map(|&n| n.to_owned()).collect();
    names.extend(driver_cells());
    names
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The names in `forbidden` that `line` calls: a whole identifier
/// followed (after optional spaces) by `(` or a `::<` turbofish.
/// Everything after a `//` is a comment and is ignored.
fn calls(line: &str, forbidden: &[String]) -> Vec<String> {
    let mut rest = line.split("//").next().unwrap_or("");
    let mut found = Vec::new();
    while let Some(start) = rest.find(is_ident) {
        let tail = &rest[start..];
        let (name, after) = tail.split_at(tail.find(|c| !is_ident(c)).unwrap_or(tail.len()));
        rest = after.trim_start();
        let called = rest.starts_with('(') || rest.starts_with("::<");
        if called && forbidden.iter().any(|f| f == name) {
            found.push(name.to_owned());
        }
    }
    found
}

#[test]
fn scanner_finds_calls_and_ignores_look_alikes() {
    let forbidden = forbidden();
    for cell in ["fixed_spec", "nas_accuracy", "cnn_per_layer_nas", "untrained_spec"] {
        assert!(forbidden.iter().any(|n| n == cell), "driver cell `{cell}` not collected");
    }
    assert!(!forbidden.iter().any(|n| n == "cnn_sizing" || n == "all"));

    let sample = "let r = lac_core::search_single (&k, &c, t, v, &cfg, 2.0, obs); \
                  driver::fixed_spec(app, spec, 1, obs); batch_grads::<K>(a)";
    assert_eq!(calls(sample, &forbidden), ["search_single", "fixed_spec", "batch_grads"]);
    let benign = "let (sizing, lr) = driver::cnn_sizing(); brute_force_min_area(&r); \
                  cols(\"brute_force_sec\"); AppId::all() // train_fixed(&k)";
    assert!(calls(benign, &forbidden).is_empty(), "{:?}", calls(benign, &forbidden));
}

#[test]
fn binaries_leave_cell_execution_to_the_scheduler() {
    let forbidden = forbidden();
    let mut scanned = 0;
    let mut violations = Vec::new();
    for entry in fs::read_dir(crate_path("src/bin")).expect("read src/bin") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        scanned += 1;
        let source = fs::read_to_string(&path).expect("read binary source");
        for (n, line) in source.lines().enumerate() {
            for name in calls(line, &forbidden) {
                violations.push(format!("{}:{}: {name}", path.display(), n + 1));
            }
        }
    }
    assert!(scanned > 0, "no binaries scanned");
    assert!(
        violations.is_empty(),
        "direct trainer/driver calls in src/bin (declare a sched::UnitJob instead):\n{}",
        violations.join("\n")
    );
}
