//! `heavy_uniform`: one seeded uniform Bernoulli trace at ρ = 0.95
//! through a bufferless and an input-buffered round-robin PPS (each
//! against the shadow OQ, as experiment e20 runs them) and a QPS-r VOQ
//! crossbar, then the relative-delay join and tail quantiles.
//!
//! Why: this is the busy-slot regime of heavy traffic, where skip-ahead
//! elides almost nothing and per-slot plane service, resequencing, the
//! OQ and matching do all the work. A run is one pass of the whole
//! pipeline over the trace; a batch is one run.

use super::{Batch, RunOutcome, Scale};
use crate::digest::Digest;
use crate::layers;
use crate::manifest::json_str;
use crate::spans::{count, span, Counter, Layer};
use crate::wrappers::TracedScheduler;
use pps_analysis::{compare_buffered, compare_bufferless, relative_delays, TailQuantiles};
use pps_core::prelude::*;
use pps_core::stepping;
use pps_crossbar::{run_crossbar_with, QpsRScheduler};
use pps_switch::demux::{BufferedRoundRobinDemux, RoundRobinDemux};
use pps_workload::WorkloadSpec;
use std::time::Instant;

/// Ports.
pub const N: usize = 16;
/// Center-stage planes.
pub const K: usize = 8;
/// Internal slowdown (speedup S = K / r' = 2).
pub const R_PRIME: usize = 4;
/// Per-input buffer of the buffered PPS.
pub const BUFFER: usize = 64;
/// Offered load per input.
pub const LOAD: f64 = 0.95;
/// QPS-r accept rounds.
pub const QPS_ROUNDS: usize = 3;

/// Arrival slots per trace.
pub fn horizon(scale: Scale) -> Slot {
    match scale {
        Scale::Full => 20_000,
        Scale::Small => 300,
    }
}

/// The materialized trace and the spec it came from.
pub struct Inputs {
    seed: u64,
    spec: String,
    trace: Trace,
}

impl Inputs {
    pub(crate) fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("spec", json_str(&self.spec)),
            ("k", K.to_string()),
            ("r_prime", R_PRIME.to_string()),
            ("buffer", BUFFER.to_string()),
            ("qps_rounds", QPS_ROUNDS.to_string()),
            ("cells", self.trace.len().to_string()),
        ]
    }

    pub(crate) fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for a in self.trace.arrivals() {
            d.word(a.slot);
            d.word(u64::from(a.input.0));
            d.word(u64::from(a.output.0));
        }
        d.value()
    }
}

/// Materialize the trace from `seed`.
pub fn setup(seed: u64, scale: Scale) -> Inputs {
    let spec = format!(
        "uniform:n={N},load={LOAD},seed={seed},horizon={}",
        horizon(scale)
    );
    let trace = span(Layer::Materialize, || {
        WorkloadSpec::parse(&spec)
            .expect("well-formed spec")
            .trace()
            .expect("uniform traces materialize")
    });
    count(Counter::Cells, trace.len() as u64);
    Inputs { seed, spec, trace }
}

/// Everything one run outputs.
struct Outputs {
    bufferless: RunLog,
    buffered: RunLog,
    oq: [RunLog; 2],
    crossbar: RunLog,
    /// Relative-delay tails: bufferless, buffered, crossbar.
    tails: Vec<Option<TailQuantiles>>,
}

/// One run: the whole pipeline once.
pub fn batch(inp: &Inputs, traced: bool) -> Batch {
    let start = Instant::now();
    let out = if traced {
        traced_run(inp)
    } else {
        plain_run(inp)
    };
    let secs = start.elapsed().as_secs_f64();
    let (ok, digest) = verify(out);
    Batch {
        runs: vec![RunOutcome {
            secs,
            cells: inp.trace.len() as u64,
            ok,
        }],
        body_s: secs,
        digest,
    }
}

fn plain_run(inp: &Inputs) -> Outputs {
    let trace = &inp.trace;
    let bl = compare_bufferless(
        PpsConfig::bufferless(N, K, R_PRIME),
        RoundRobinDemux::new(N, K),
        trace,
    )
    .expect("bufferless round robin is model-legal");
    let bf = compare_buffered(
        PpsConfig::buffered(N, K, R_PRIME, BUFFER),
        BufferedRoundRobinDemux::new(N, K),
        trace,
    )
    .expect("buffered round robin is model-legal");
    let (crossbar, _) = run_crossbar_with(
        trace,
        QpsRScheduler::new(N, QPS_ROUNDS, inp.seed),
        stepping::process_default(),
    );
    join(bl.pps.log, bf.pps.log, [bl.oq, bf.oq], crossbar)
}

fn traced_run(inp: &Inputs) -> Outputs {
    let trace = &inp.trace;
    let (bl, ()) = layers::bufferless(
        PpsConfig::bufferless(N, K, R_PRIME),
        RoundRobinDemux::new(N, K),
        trace,
        |_| (),
    )
    .expect("bufferless round robin is model-legal");
    let bl_oq = layers::oq(trace, N);
    let bf = layers::buffered(
        PpsConfig::buffered(N, K, R_PRIME, BUFFER),
        BufferedRoundRobinDemux::new(N, K),
        trace,
    )
    .expect("buffered round robin is model-legal");
    let bf_oq = layers::oq(trace, N);
    let (crossbar, _) = span(Layer::CrossbarRun, || {
        run_crossbar_with(
            trace,
            TracedScheduler(QpsRScheduler::new(N, QPS_ROUNDS, inp.seed)),
            stepping::process_default(),
        )
    });
    join(bl.log, bf.log, [bl_oq, bf_oq], crossbar)
}

fn join(bufferless: RunLog, buffered: RunLog, oq: [RunLog; 2], crossbar: RunLog) -> Outputs {
    let tails = span(Layer::Join, || {
        [
            (&bufferless, &oq[0]),
            (&buffered, &oq[1]),
            (&crossbar, &oq[0]),
        ]
        .into_iter()
        .map(|(sw, shadow)| TailQuantiles::from(&relative_delays(sw, shadow)))
        .collect()
    });
    Outputs {
        bufferless,
        buffered,
        oq,
        crossbar,
        tails,
    }
}

/// Checks: every engine delivers every cell, and the PPS relative-delay
/// p99.9 stays under the fully-distributed worst case `(r' − 1)(N − 1)`,
/// as e20 asserts.
fn verify(out: Outputs) -> (bool, u64) {
    let logs = [
        &out.bufferless,
        &out.buffered,
        &out.oq[0],
        &out.oq[1],
        &out.crossbar,
    ];
    let mut ok = logs.iter().all(|l| l.undelivered() == 0);
    let ceiling = ((R_PRIME - 1) * (N - 1)) as i64;
    ok &= out.tails[..2]
        .iter()
        .all(|t| t.as_ref().is_some_and(|t| t.p999 < ceiling));
    let mut d = Digest::default();
    for log in logs {
        d.departures(log);
    }
    for t in &out.tails {
        match t {
            Some(t) => {
                d.word(t.count as u64);
                d.word(t.mean.to_bits());
                d.signed(t.p99);
                d.signed(t.p999);
                d.signed(t.max);
            }
            None => d.word(u64::MAX),
        }
    }
    ok &= out.tails[2].is_some();
    (ok, d.value())
}
