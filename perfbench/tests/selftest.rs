//! Self-tests of the benchmark: seeds reproduce inputs and outputs, the
//! forwarding wrappers change nothing, and both run modes report every
//! metric `BENCHMARK.json` declares.

use perfbench::runner::{run_scaled, Args};
use perfbench::spans;
use perfbench::workloads::{Scale, Workload};
use std::sync::Mutex;

/// The workloads pin process-global knobs (the telemetry level above
/// all), so tests that run them must not overlap.
static KNOBS: Mutex<()> = Mutex::new(());

fn pinned<R>(w: Workload, f: impl FnOnce() -> R) -> R {
    let _guard = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    w.knobs().pin();
    f()
}

#[test]
fn same_seed_reproduces_inputs_and_digest() {
    for w in Workload::ALL {
        pinned(w, || {
            let a = w.setup(7, Scale::Small);
            let b = w.setup(7, Scale::Small);
            assert_eq!(a.digest(), b.digest(), "{w:?} inputs");
            let (x, y) = (a.batch(false), b.batch(false));
            assert_eq!(x.digest, y.digest, "{w:?} output digest");
            assert!(x.runs.iter().all(|r| r.ok), "{w:?} checks failed");
        });
    }
}

#[test]
fn new_seed_changes_inputs_and_digest() {
    for w in Workload::ALL {
        pinned(w, || {
            let a = w.setup(7, Scale::Small);
            let b = w.setup(8, Scale::Small);
            assert_ne!(a.digest(), b.digest(), "{w:?} inputs");
            assert_ne!(
                a.batch(false).digest,
                b.batch(false).digest,
                "{w:?} output digest"
            );
        });
    }
}

#[test]
fn forwarding_wrappers_leave_the_digest_unchanged() {
    for w in Workload::ALL {
        pinned(w, || {
            let inputs = w.setup(3, Scale::Small);
            let plain = inputs.batch(false);
            spans::begin();
            let traced = inputs.batch(true);
            let profile = spans::end();
            assert_eq!(plain.digest, traced.digest, "{w:?}");
            assert!(profile.attributed_s() > 0.0, "{w:?} recorded no span");
        });
    }
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

fn reported(result: &str) -> Vec<String> {
    // `"name": {"value": …` — each name ends the piece before a value.
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    let pieces: Vec<&str> = metrics.split("{\"value\"").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|s| s.rsplit('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn both_modes_report_every_declared_metric() {
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = pinned(w, || {
                run_scaled(
                    Args {
                        workload: w,
                        seed: 5,
                        seconds: 0.05,
                        trace,
                    },
                    Scale::Small,
                )
            });
            assert!(report.correct, "{w:?} trace={trace}: {}", report.result);
            assert!(report.manifest.starts_with("{\"manifest\""));
            assert_eq!(
                reported(&report.result),
                declared(section),
                "{w:?} {section}"
            );
        }
    }
}
