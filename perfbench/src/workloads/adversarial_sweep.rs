//! `adversarial_sweep`: the paper's own lower-bound traffic. Each run
//! builds an attack trace, certifies its leaky-bucket premise with
//! `min_burstiness`, runs it through a bufferless PPS and the shadow OQ,
//! and asserts the theorem bound the matching experiment asserts:
//!
//! | demux            | traffic                              | check (as in) |
//! |------------------|--------------------------------------|---------------|
//! | round robin      | Thm 6 / Cor 7 concentration          | all inputs aligned, delay and jitter ≥ exact bound, B = 0 (e1, e2, e12) |
//! | per-flow RR      | Thm 6 concentration                  | exact bound ≤ delay ≤ N·r', B = 0 (e11) |
//! | seeded random    | seed-aware concentration             | delay ≥ exact bound − 2(r' − 1), B = 0 (e14) |
//! | CPA (GlobalFcfs) | the round-robin concentration trace  | zero relative delay, no deadline miss (e10) |
//! | stale least-load | Thm 10 `urt_burst_attack`            | delay and jitter ≥ exact bound, B ≤ premise (e4, e5) |
//!
//! Why: the traces are sparse with long quiescent gaps, so skip-ahead,
//! demux cost and engine construction dominate instead of steady-state
//! service. A batch is 8 seeded rounds over every (N, demux) pair.

use super::{Batch, RunOutcome, Scale};
use crate::digest::Digest;
use crate::layers;
use crate::manifest::json_str;
use crate::spans::{span, Layer};
use crate::wrappers::ProbedDemux;
use pps_analysis::lockstep::Comparison;
use pps_analysis::{compare_bufferless, RelativeDelay};
use pps_core::prelude::*;
use pps_core::rng::SplitMix64;
use pps_reference::oq::run_oq;
use pps_switch::demux::{
    CpaDemux, PerFlowRoundRobinDemux, RandomDemux, RoundRobinDemux, StaleLeastLoadedDemux,
};
use pps_switch::engine::BufferlessPps;
use pps_traffic::adversary::{concentration_attack_on, urt_burst_attack, ConcentrationAttack};
use pps_traffic::min_burstiness;
use std::time::Instant;

/// Planes.
pub const K: usize = 8;
/// Internal slowdown of the concentration runs (S = 2).
pub const R_PRIME: usize = 4;
/// Internal slowdown of the Theorem 10 runs (S = 1, as e4/e5).
pub const STALE_R_PRIME: usize = 8;

/// The demultiplexors under attack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// `RoundRobinDemux`.
    RoundRobin,
    /// `PerFlowRoundRobinDemux`.
    PerFlowRr,
    /// `RandomDemux`, seeded per run.
    Random,
    /// `CpaDemux` under the GlobalFcfs discipline.
    Cpa,
    /// `StaleLeastLoadedDemux` with a per-run information delay.
    Stale,
}

impl Algo {
    const ALL: [Algo; 5] = [
        Algo::RoundRobin,
        Algo::PerFlowRr,
        Algo::Random,
        Algo::Cpa,
        Algo::Stale,
    ];

    fn name(self) -> &'static str {
        match self {
            Algo::RoundRobin => "rr",
            Algo::PerFlowRr => "per-flow-rr",
            Algo::Random => "random",
            Algo::Cpa => "cpa",
            Algo::Stale => "stale",
        }
    }
}

/// Switch sizes swept.
pub fn sizes(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Full => &[64, 128, 256, 512, 1024],
        Scale::Small => &[16, 32],
    }
}

/// Seeded rounds over every (N, demux) pair per batch.
pub fn rounds(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Small => 1,
    }
}

/// One attack run, fully determined by the seed.
#[derive(Clone, Debug)]
pub struct Run {
    algo: Algo,
    n: usize,
    /// Hot output of the concentration attacks.
    hot: u32,
    /// Candidate concentrating inputs: a seeded permutation of `0..n`.
    inputs: Vec<u32>,
    /// Seed of the random demux.
    demux_seed: u64,
    /// Information delay of the stale demux.
    u: Slot,
}

/// The batch's run list.
pub struct Inputs {
    seed: u64,
    scale: Scale,
    runs: Vec<Run>,
}

impl Inputs {
    pub(crate) fn params(&self) -> Vec<(&'static str, String)> {
        let algos: Vec<String> = Algo::ALL.iter().map(|a| json_str(a.name())).collect();
        let sizes: Vec<String> = sizes(self.scale).iter().map(|n| n.to_string()).collect();
        vec![
            ("runs", self.runs.len().to_string()),
            ("rounds", rounds(self.scale).to_string()),
            ("n", format!("[{}]", sizes.join(", "))),
            ("demux", format!("[{}]", algos.join(", "))),
            ("k", K.to_string()),
            ("r_prime", R_PRIME.to_string()),
            ("stale_r_prime", STALE_R_PRIME.to_string()),
            ("seed", self.seed.to_string()),
        ]
    }

    pub(crate) fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in &self.runs {
            d.text(r.algo.name());
            d.word(r.n as u64);
            d.word(u64::from(r.hot));
            for &i in &r.inputs {
                d.word(u64::from(i));
            }
            d.word(r.demux_seed);
            d.word(r.u);
        }
        d.value()
    }
}

/// Draw the run list from `seed`.
pub fn setup(seed: u64, scale: Scale) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let mut runs = Vec::new();
    for _ in 0..rounds(scale) {
        for &n in sizes(scale) {
            for algo in Algo::ALL {
                let hot = rng.below(n as u64) as u32;
                let mut inputs: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    inputs.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let demux_seed = rng.next_u64();
                let u = 1 + rng.below(4);
                runs.push(Run {
                    algo,
                    n,
                    hot,
                    inputs,
                    demux_seed,
                    u,
                });
            }
        }
    }
    Inputs { seed, scale, runs }
}

/// Every run once, in order. A run's clock stops before its digest.
pub fn batch(inp: &Inputs, traced: bool) -> Batch {
    let mut digest = Digest::default();
    let mut body_s = 0.0;
    let runs = inp
        .runs
        .iter()
        .map(|run| {
            let start = Instant::now();
            let (rep, holds) = execute(run, traced);
            let secs = start.elapsed().as_secs_f64();
            body_s += secs;
            digest.text(run.algo.name());
            digest.word(run.n as u64);
            digest.signed(rep.rd.max);
            digest.signed(rep.jitter);
            digest.word(rep.burstiness);
            digest.departures(&rep.cmp.pps.log);
            digest.departures(&rep.cmp.oq);
            RunOutcome {
                secs,
                cells: rep.trace_cells,
                ok: holds && rep.rd.pps_undelivered == 0,
            }
        })
        .collect();
    Batch {
        runs,
        body_s,
        digest: digest.value(),
    }
}

/// What an attack run produced.
struct Report {
    trace_cells: u64,
    aligned: usize,
    /// The attack's model-exact lower bound, in slots.
    exact_bound: i64,
    burstiness: u64,
    cmp: Comparison,
    rd: RelativeDelay,
    jitter: i64,
}

/// Run the attack and return its report and whether its theorem bound
/// holds.
fn execute(run: &Run, traced: bool) -> (Report, bool) {
    let n = run.n;
    match run.algo {
        Algo::RoundRobin => {
            let r = concentration(run, RoundRobinDemux::new(n, K), 4 * K, traced);
            let holds = r.aligned == n && lower_bound_met(&r) && r.burstiness == 0;
            (r, holds)
        }
        Algo::PerFlowRr => {
            let r = concentration(run, PerFlowRoundRobinDemux::new(n, K), 4 * K, traced);
            let holds =
                r.rd.max >= r.exact_bound && r.rd.max <= (n * R_PRIME) as i64 && r.burstiness == 0;
            (r, holds)
        }
        Algo::Random => {
            let demux = RandomDemux::new(n, run.demux_seed);
            let r = concentration(run, demux, 32 * K, traced);
            let slack = 2 * (R_PRIME as i64 - 1);
            let holds = r.rd.max >= r.exact_bound - slack && r.burstiness == 0;
            (r, holds)
        }
        Algo::Cpa => {
            let (r, misses) = cpa(run, traced);
            let holds = r.rd.max <= 0 && misses == 0 && r.burstiness == 0;
            (r, holds)
        }
        Algo::Stale => {
            let (r, premise) = stale(run, traced);
            let holds = lower_bound_met(&r) && r.burstiness <= premise;
            (r, holds)
        }
    }
}

fn lower_bound_met(r: &Report) -> bool {
    r.rd.max >= r.exact_bound && r.jitter >= r.exact_bound
}

/// Build the Theorem 6 concentration trace against `demux` and run it.
fn concentration<D: ExplorableDemux>(run: &Run, demux: D, probes: usize, traced: bool) -> Report {
    let cfg = PpsConfig::bufferless(run.n, K, R_PRIME);
    let (atk, demux) = attack(run, &cfg, demux, probes, traced);
    let burstiness = lb_check(&atk.trace, run.n);
    let cmp = compare(cfg, demux, &atk.trace, traced);
    report(cmp, atk.d, atk.model_exact_bound, burstiness)
}

/// CPA on the round-robin concentration trace (e10); also returns CPA's
/// deadline misses.
fn cpa(run: &Run, traced: bool) -> (Report, u64) {
    let n = run.n;
    let attack_cfg = PpsConfig::bufferless(n, K, R_PRIME);
    let (atk, _) = attack(run, &attack_cfg, RoundRobinDemux::new(n, K), 4 * K, traced);
    let burstiness = lb_check(&atk.trace, n);
    let cfg = attack_cfg.with_discipline(OutputDiscipline::GlobalFcfs);
    let demux = CpaDemux::new(n, K, R_PRIME);
    // As e10 does, run the engine directly: the misses live in the demux.
    let (pps, misses) = if traced {
        layers::bufferless(cfg, demux, &atk.trace, CpaDemux::deadline_misses)
            .expect("model-legal CPA run")
    } else {
        let mut sw = BufferlessPps::new(cfg, demux).expect("valid CPA config");
        let pps = sw.run(&atk.trace).expect("model-legal CPA run");
        (pps, sw.demux().deadline_misses())
    };
    let oq = if traced {
        layers::oq(&atk.trace, n)
    } else {
        run_oq(&atk.trace, n)
    };
    let cmp = Comparison { pps, oq, n };
    (
        report(cmp, atk.d, atk.model_exact_bound, burstiness),
        misses,
    )
}

/// The Theorem 10 burst against the stale least-loaded demux; also
/// returns the burstiness premise.
fn stale(run: &Run, traced: bool) -> (Report, u64) {
    let cfg = PpsConfig::bufferless(run.n, K, STALE_R_PRIME);
    let atk = span(Layer::Adversary, || urt_burst_attack(&cfg, run.u));
    let burstiness = lb_check(&atk.trace, run.n);
    let demux = StaleLeastLoadedDemux::new(run.n, K, run.u);
    let cmp = compare(cfg, demux, &atk.trace, traced);
    let rep = report(cmp, atk.m, atk.model_exact_bound, burstiness);
    (rep, atk.predicted_burstiness)
}

/// The concentration attack on `run`'s hot output and inputs. Traced, the
/// adversary probes a counting wrapper; the demux comes back either way.
fn attack<D: ExplorableDemux>(
    run: &Run,
    cfg: &PpsConfig,
    demux: D,
    probes: usize,
    traced: bool,
) -> (ConcentrationAttack, D) {
    if traced {
        let probed = ProbedDemux(demux);
        let atk = span(Layer::Adversary, || {
            concentration_attack_on(&probed, cfg, &run.inputs, run.hot, probes)
        });
        (atk, probed.0)
    } else {
        let atk = concentration_attack_on(&demux, cfg, &run.inputs, run.hot, probes);
        (atk, demux)
    }
}

/// `compare_bufferless`, or its public constituents when traced.
fn compare<D: Demultiplexor>(cfg: PpsConfig, demux: D, trace: &Trace, traced: bool) -> Comparison {
    if traced {
        let (pps, ()) = layers::bufferless(cfg, demux, trace, |_| ()).expect("model-legal run");
        let oq = layers::oq(trace, cfg.n);
        Comparison { pps, oq, n: cfg.n }
    } else {
        compare_bufferless(cfg, demux, trace).expect("model-legal run")
    }
}

fn lb_check(trace: &Trace, n: usize) -> u64 {
    span(Layer::LbCheck, || min_burstiness(trace, n).overall())
}

fn report(cmp: Comparison, aligned: usize, exact_bound: u64, burstiness: u64) -> Report {
    let (rd, jitter) = span(Layer::Join, || {
        (cmp.relative_delay(), cmp.relative_jitter())
    });
    Report {
        trace_cells: cmp.oq.len() as u64,
        aligned,
        exact_bound: exact_bound as i64,
        burstiness,
        cmp,
        rd,
        jitter,
    }
}
