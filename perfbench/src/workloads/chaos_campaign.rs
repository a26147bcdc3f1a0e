//! `chaos_campaign`: a seeded `ChaosCase::generate` corpus through
//! `pps_chaos::run_case`, with telemetry at `Full` as `ppslab chaos` sets
//! it. Cases fan out over the public sweep executor at a worker budget of
//! every core.
//!
//! Why: four engines run in lockstep with every oracle and event-stream
//! oracle armed, plus faults and Zipf/MMPP/on-off traffic at small N.
//! Oracles and telemetry recording are heavy here and absent from the
//! other workloads, and this is the one workload where a parallelism
//! change can show. A run is one case; a batch is the whole corpus.

use super::{Batch, RunOutcome, Scale};
use crate::digest::Digest;
use crate::manifest::json_str;
use crate::spans::{count, span, Counter, Layer};
use pps_chaos::report::case_line;
use pps_chaos::{run_case, ChaosCase, RunOpts};
use pps_core::sweep::SweepPlan;
use pps_core::telemetry;
use pps_core::Slot;
use std::time::Instant;

/// Arrival horizon of every case (`ppslab chaos --budget-slots`).
pub const BUDGET_SLOTS: Slot = 256;

/// Cases per corpus.
pub fn cases(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1024,
        Scale::Small => 24,
    }
}

/// The generated corpus.
pub struct Inputs {
    seed: u64,
    cases: Vec<ChaosCase>,
}

impl Inputs {
    pub(crate) fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cases", self.cases.len().to_string()),
            ("budget_slots", BUDGET_SLOTS.to_string()),
            ("master_seed", self.seed.to_string()),
            ("run_opts", json_str("default")),
        ]
    }

    pub(crate) fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for c in &self.cases {
            d.text(&format!("{c:?}"));
        }
        d.value()
    }
}

/// Generate the corpus from `seed`.
pub fn setup(seed: u64, scale: Scale) -> Inputs {
    let cases = span(Layer::Materialize, || {
        (0..cases(scale))
            .map(|i| ChaosCase::generate(seed, i, BUDGET_SLOTS))
            .collect()
    });
    Inputs { seed, cases }
}

/// What one case reports back from its worker.
struct CaseResult {
    line: String,
    violations: u64,
    failed: bool,
    cells: u64,
    secs: f64,
}

/// The whole corpus once. The batch's clock runs over the case sweep.
pub fn batch(inp: &Inputs) -> Batch {
    let indices: Vec<usize> = (0..inp.cases.len()).collect();
    let start = Instant::now();
    let results = span(Layer::Chaos, || {
        SweepPlan::new("perfbench-chaos", indices).run(|pt| {
            let case = &inp.cases[*pt.params];
            let start = Instant::now();
            let out = run_case(case, RunOpts::default());
            let line = case_line(case, &out);
            CaseResult {
                line,
                violations: out.violations.len() as u64 + u64::from(out.engine_error.is_some()),
                failed: out.failed(),
                cells: out.cells as u64,
                secs: start.elapsed().as_secs_f64(),
            }
        })
    });
    let body_s = start.elapsed().as_secs_f64();
    // The sweep hands each case's (empty) outer event log to the process
    // bundle; drop them so batches do not accumulate memory.
    drop(telemetry::take_absorbed());
    count(Counter::ChaosCases, results.len() as u64);
    count(
        Counter::ChaosViolations,
        results.iter().map(|r| r.violations).sum(),
    );
    let mut d = Digest::default();
    let runs = results
        .iter()
        .map(|r| {
            d.text(&r.line);
            RunOutcome {
                secs: r.secs,
                cells: r.cells,
                ok: !r.failed,
            }
        })
        .collect();
    Batch {
        runs,
        body_s,
        digest: d.value(),
    }
}
