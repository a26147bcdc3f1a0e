//! The three workloads. Each is a closed batch: one calling thread issues
//! independent runs back to back, and a batch is repeated until the
//! measuring time is spent. Inputs come from the seed alone.

pub mod adversarial_sweep;
pub mod chaos_campaign;
pub mod heavy_uniform;

use crate::manifest::json_str;
use pps_core::stepping::{self, Stepping};
use pps_core::telemetry::{self, Level};
use pps_core::workers;

/// The process-global knobs a workload pins once, before any setup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Knobs {
    /// Telemetry recording level.
    pub telemetry: Level,
    /// Process default stepping mode.
    pub stepping: Stepping,
    /// Intra-run shard count.
    pub intra_jobs: usize,
    /// Worker budget of the sweep executor.
    pub jobs: usize,
}

impl Knobs {
    /// Set every knob.
    pub fn pin(&self) {
        telemetry::set_level(self.telemetry);
        stepping::set_process_default(self.stepping);
        workers::set_intra_jobs(self.intra_jobs);
        workers::set_jobs(self.jobs);
    }

    /// Manifest fields.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        let level = match self.telemetry {
            Level::Off => "off",
            Level::Counters => "counters",
            Level::Full => "full",
        };
        vec![
            ("telemetry", json_str(level)),
            ("stepping", json_str(self.stepping.name())),
            ("intra_jobs", self.intra_jobs.to_string()),
            ("jobs", self.jobs.to_string()),
        ]
    }
}

/// One independent run: its host latency (library calls only), the trace
/// cells it offered, and whether every correctness check passed.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Host seconds.
    pub secs: f64,
    /// Trace cells offered.
    pub cells: u64,
    /// Every check held.
    pub ok: bool,
}

/// One batch: its runs, the host time of its program calls, and the
/// digest of everything they output.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The runs, in issue order.
    pub runs: Vec<RunOutcome>,
    /// Host seconds spent in the library calls: the timed body. The
    /// benchmark's own checks and digest run outside it.
    pub body_s: f64,
    /// Output digest; identical for every batch of the same inputs.
    pub digest: u64,
}

/// Problem size: `Full` is the benchmark, `Small` keeps self-tests quick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Reduced sizes for the self-tests.
    Small,
}

/// A workload by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform Bernoulli at ρ=0.95 through two PPSes and a QPS-r crossbar.
    HeavyUniform,
    /// The paper's lower-bound traffic against five demultiplexors.
    AdversarialSweep,
    /// A seeded chaos corpus through the lockstep oracles.
    ChaosCampaign,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::HeavyUniform,
        Workload::AdversarialSweep,
        Workload::ChaosCampaign,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HeavyUniform => "heavy_uniform",
            Workload::AdversarialSweep => "adversarial_sweep",
            Workload::ChaosCampaign => "chaos_campaign",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The knobs this workload runs under.
    pub fn knobs(self) -> Knobs {
        let serial = Knobs {
            telemetry: Level::Off,
            stepping: Stepping::SkipAhead,
            intra_jobs: 1,
            jobs: 1,
        };
        match self {
            Workload::HeavyUniform | Workload::AdversarialSweep => serial,
            // `ppslab chaos` records every event for the stream oracles
            // and fans cases out over all cores.
            Workload::ChaosCampaign => Knobs {
                telemetry: Level::Full,
                jobs: crate::manifest::nproc(),
                ..serial
            },
        }
    }

    /// Materialize this workload's inputs from `seed`.
    pub fn setup(self, seed: u64, scale: Scale) -> Inputs {
        match self {
            Workload::HeavyUniform => Inputs::HeavyUniform(heavy_uniform::setup(seed, scale)),
            Workload::AdversarialSweep => {
                Inputs::AdversarialSweep(adversarial_sweep::setup(seed, scale))
            }
            Workload::ChaosCampaign => Inputs::ChaosCampaign(chaos_campaign::setup(seed, scale)),
        }
    }
}

/// A workload's materialized inputs.
pub enum Inputs {
    /// See [`heavy_uniform`].
    HeavyUniform(heavy_uniform::Inputs),
    /// See [`adversarial_sweep`].
    AdversarialSweep(adversarial_sweep::Inputs),
    /// See [`chaos_campaign`].
    ChaosCampaign(chaos_campaign::Inputs),
}

impl Inputs {
    /// Run one batch, through the forwarding wrappers and layer spans if
    /// `traced`.
    pub fn batch(&self, traced: bool) -> Batch {
        match self {
            Inputs::HeavyUniform(i) => heavy_uniform::batch(i, traced),
            Inputs::AdversarialSweep(i) => adversarial_sweep::batch(i, traced),
            // Only the case sweep as a whole is spanned: cases run on
            // every worker, and spans record on the calling thread.
            Inputs::ChaosCampaign(i) => chaos_campaign::batch(i),
        }
    }

    /// Workload parameters for the manifest.
    pub fn params(&self) -> Vec<(&'static str, String)> {
        match self {
            Inputs::HeavyUniform(i) => i.params(),
            Inputs::AdversarialSweep(i) => i.params(),
            Inputs::ChaosCampaign(i) => i.params(),
        }
    }

    /// A digest of the inputs themselves (the self-tests compare it
    /// across seeds).
    pub fn digest(&self) -> u64 {
        match self {
            Inputs::HeavyUniform(i) => i.digest(),
            Inputs::AdversarialSweep(i) => i.digest(),
            Inputs::ChaosCampaign(i) => i.digest(),
        }
    }
}
