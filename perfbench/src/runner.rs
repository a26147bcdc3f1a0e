//! One benchmark process: pin the knobs, set up, measure untraced (and
//! traced, with `--trace 1`), check the outputs, and render the result.

use crate::manifest::{self, json_object, json_str};
use crate::spans::{self, Counter, Layer, Profile};
use crate::workloads::{Batch, Inputs, RunOutcome, Scale, Workload};
use pps_core::telemetry;
use std::time::{Duration, Instant};

/// Setup blocks per process; `setup_s` is the median block's time per
/// setup.
pub const SETUP_BLOCKS: usize = 9;
/// A setup block repeats the setup until it has lasted this long, so
/// that sub-millisecond setups are timed over many repetitions.
pub const SETUP_BLOCK_S: f64 = 0.25;
/// Largest share of the traced wall time that may fall outside every
/// layer span before the traced run counts as failed.
pub const MAX_UNATTRIBUTED_FRAC: f64 = 0.10;

/// Parsed command line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut out = Args {
            workload: Workload::HeavyUniform,
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        bad(&names.join(" | "))
                    })?)
                }
                "--seed" => out.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    out.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        out.workload = workload.ok_or("--workload is required")?;
        Ok(out)
    }
}

/// Nearest-rank quantile `q` of `sorted` (non-empty, ascending).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One setup block: how many setups it ran, their host seconds and their
/// layer profile.
struct SetupBlock {
    reps: u32,
    secs: f64,
    profile: Profile,
}

impl SetupBlock {
    fn per_setup(&self, total: f64) -> f64 {
        total / f64::from(self.reps)
    }
}

/// The setup blocks of a process, and whether each block's last
/// repetition made the same inputs as the first setup.
struct Setups {
    workload: Workload,
    seed: u64,
    scale: Scale,
    /// Input digest of the first setup.
    digest: u64,
    blocks: Vec<SetupBlock>,
    inputs_repeat: bool,
}

impl Setups {
    /// Repeat the setup for at least [`SETUP_BLOCK_S`].
    fn block(&mut self) {
        spans::begin();
        let start = Instant::now();
        let mut reps = 0u32;
        let last = loop {
            let made = self.workload.setup(self.seed, self.scale);
            reps += 1;
            if start.elapsed().as_secs_f64() >= SETUP_BLOCK_S {
                break made;
            }
        };
        self.blocks.push(SetupBlock {
            reps,
            secs: start.elapsed().as_secs_f64(),
            profile: spans::end(),
        });
        self.inputs_repeat &= last.digest() == self.digest;
    }

    /// Median host seconds per setup over the blocks.
    fn median_s(&self) -> f64 {
        median(self.blocks.iter().map(|b| b.per_setup(b.secs)).collect())
    }

    /// The block with the median materialize time per setup.
    fn median_block(&self) -> &SetupBlock {
        let materialize = |b: &SetupBlock| b.per_setup(b.profile.self_s(Layer::Materialize));
        let mut sorted: Vec<&SetupBlock> = self.blocks.iter().collect();
        sorted.sort_by(|a, b| materialize(a).total_cmp(&materialize(b)));
        sorted[sorted.len() / 2]
    }
}

/// Batches repeated until the budget is spent (at least one batch).
struct Phase {
    batches: usize,
    /// Host seconds inside batches: the timed body.
    body_s: f64,
    runs: Vec<RunOutcome>,
    digests: Vec<u64>,
    /// Peak RSS of the process at the end of the phase.
    peak_rss_mb: f64,
}

/// Run batches for `budget`. Between batches, outside the timed body,
/// `setups` (if given) runs its blocks so that they spread evenly over
/// the phase and see the same host conditions as the batches.
fn measure(
    inputs: &Inputs,
    traced: bool,
    budget: Duration,
    mut setups: Option<&mut Setups>,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase {
        batches: 0,
        body_s: 0.0,
        runs: Vec::new(),
        digests: Vec::new(),
        peak_rss_mb: 0.0,
    };
    loop {
        let Batch {
            runs,
            body_s,
            digest,
        } = inputs.batch(traced);
        phase.body_s += body_s;
        phase.batches += 1;
        phase.runs.extend(runs);
        phase.digests.push(digest);
        let done = start.elapsed().as_secs_f64() / budget.as_secs_f64();
        if let Some(setups) = setups.as_deref_mut() {
            while (setups.blocks.len() as f64)
                < (SETUP_BLOCKS as f64 * done).min(SETUP_BLOCKS as f64)
            {
                setups.block();
            }
        }
        if done >= 1.0 {
            break;
        }
    }
    phase.peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    phase
}

/// Everything one process prints.
pub struct Report {
    /// Manifest line (printed first).
    pub manifest: String,
    /// Summary line: digest, batches, failed fraction.
    pub summary: String,
    /// The result object (printed last).
    pub result: String,
    /// `correct` of the result.
    pub correct: bool,
}

/// A metric value with its unit.
type Metric = (&'static str, f64, &'static str);

/// Run one benchmark process.
pub fn run(args: Args) -> Report {
    run_scaled(args, Scale::Full)
}

/// [`run`] at an explicit problem size (the self-tests use `Small`).
pub fn run_scaled(args: Args, scale: Scale) -> Report {
    let knobs = args.workload.knobs();
    knobs.pin();

    // The first setup makes the inputs; the untraced phase repeats it in
    // blocks. `setup_s` is the median block's time per setup, and every
    // block must materialize the same inputs as the first setup.
    let inputs = args.workload.setup(args.seed, scale);
    let mut setups = Setups {
        workload: args.workload,
        seed: args.seed,
        scale,
        digest: inputs.digest(),
        blocks: Vec::new(),
        inputs_repeat: true,
    };

    let mut fields = vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    fields.push(("params", json_object(&inputs.params())));
    fields.push(("knobs", json_object(&knobs.fields())));
    fields.push(("git_revision", json_str(&manifest::git_revision())));
    fields.push(("build_profile", json_str(manifest::profile())));
    fields.push(("nproc", manifest::nproc().to_string()));
    let manifest = json_object(&[("manifest", json_object(&fields))]);

    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let plain = measure(&inputs, false, budget, Some(&mut setups));
    let inputs_repeat = setups.inputs_repeat;
    let traced = args.trace.then(|| {
        spans::begin();
        let events = telemetry::events_recorded();
        let phase = measure(&inputs, true, budget, None);
        spans::count(
            Counter::TelemetryEvents,
            telemetry::events_recorded() - events,
        );
        (phase, spans::end())
    });

    let all_runs = plain
        .runs
        .iter()
        .chain(traced.iter().flat_map(|(p, _)| &p.runs));
    let attempted = all_runs.clone().count();
    let failed = all_runs.filter(|r| !r.ok).count();
    let mut digests = plain
        .digests
        .iter()
        .chain(traced.iter().flat_map(|(p, _)| &p.digests));
    let output_digest = *digests.next().expect("at least one batch");
    let digests_agree = digests.all(|&d| d == output_digest);

    let mut correct = failed == 0 && digests_agree && inputs_repeat;
    let metrics: Vec<Metric> = match &traced {
        None => end_to_end(&plain, setups.median_s()),
        Some((phase, profile)) => {
            let (metrics, attributed) = per_layer(&plain, phase, profile, &setups);
            correct &= attributed;
            metrics
        }
    };

    let summary = json_object(&[(
        "summary",
        json_object(&[
            ("output_digest", json_str(&format!("{output_digest:016x}"))),
            ("digests_agree", digests_agree.to_string()),
            ("inputs_repeat", inputs_repeat.to_string()),
            ("batches_untraced", plain.batches.to_string()),
            (
                "batches_traced",
                traced.as_ref().map_or(0, |(p, _)| p.batches).to_string(),
            ),
            (
                "runs_per_batch",
                (plain.runs.len() / plain.batches).to_string(),
            ),
            (
                "failed_frac",
                (failed as f64 / attempted as f64).to_string(),
            ),
        ]),
    )]);
    let metric_fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                json_object(&[("value", fmt_num(value)), ("unit", json_str(unit))]),
            )
        })
        .collect();
    let result = json_object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", json_object(&metric_fields)),
    ]);
    Report {
        manifest,
        summary,
        result,
        correct,
    }
}

/// A finite number as JSON (non-finite values cannot occur in the
/// metrics; they render as 0 rather than as invalid JSON).
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn end_to_end(plain: &Phase, setup_s: f64) -> Vec<Metric> {
    let cells: u64 = plain.runs.iter().map(|r| r.cells).sum();
    let mut ms: Vec<f64> = plain.runs.iter().map(|r| r.secs * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    vec![
        ("cells_per_s", cells as f64 / plain.body_s, "cells/s"),
        ("run_p50_ms", quantile(&ms, 0.50), "ms"),
        ("run_p95_ms", quantile(&ms, 0.95), "ms"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", plain.peak_rss_mb, "MiB"),
    ]
}

/// Per-layer metrics of the traced phase, per batch. Also returns whether
/// the layer spans cover all but [`MAX_UNATTRIBUTED_FRAC`] of the traced
/// wall time.
fn per_layer(plain: &Phase, traced: &Phase, p: &Profile, setups: &Setups) -> (Vec<Metric>, bool) {
    let per = |x: f64| x / traced.batches as f64;
    let count = |c: Counter| per(p.get(c) as f64);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let setup = setups.median_block();
    let mut m: Vec<Metric> = vec![
        (
            "workload.materialize_s",
            setup.per_setup(setup.profile.self_s(Layer::Materialize)),
            "s",
        ),
        (
            "workload.cells",
            setup.per_setup(setup.profile.get(Counter::Cells) as f64),
            "count",
        ),
    ];
    for layer in Layer::ALL.into_iter().filter(|&l| l != Layer::Materialize) {
        m.push((layer.metric(), per(p.self_s(layer)), "s"));
    }
    let (simulated, skipped) = (p.get(Counter::SlotsSimulated), p.get(Counter::SlotsSkipped));
    m.extend([
        (
            "traffic.adversary_probes",
            count(Counter::AdversaryProbes),
            "count",
        ),
        ("pps.constructs", count(Counter::Constructs), "count"),
        ("pps.demux_calls", count(Counter::DemuxCalls), "count"),
        (
            "pps.slots_simulated",
            count(Counter::SlotsSimulated),
            "count",
        ),
        ("pps.slots_skipped", count(Counter::SlotsSkipped), "count"),
        (
            "pps.skip_ratio",
            ratio(skipped, simulated + skipped),
            "ratio",
        ),
        (
            "pps.max_plane_queue",
            p.get(Counter::MaxPlaneQueue) as f64,
            "count",
        ),
        (
            "pps.max_output_held",
            p.get(Counter::MaxOutputHeld) as f64,
            "count",
        ),
        (
            "crossbar.schedule_calls",
            count(Counter::ScheduleCalls),
            "count",
        ),
        (
            "crossbar.match_ratio",
            ratio(p.get(Counter::Matched), p.get(Counter::MatchEligible)),
            "ratio",
        ),
        ("chaos.cases", count(Counter::ChaosCases), "count"),
        ("chaos.violations", count(Counter::ChaosViolations), "count"),
        (
            "core.telemetry_events",
            count(Counter::TelemetryEvents),
            "count",
        ),
    ]);
    let wall = per(traced.body_s);
    let unattributed = wall - per(p.attributed_s());
    let untraced = plain.body_s / plain.batches as f64;
    m.extend([
        ("traced_wall_s", wall, "s"),
        ("unattributed_s", unattributed, "s"),
        (
            "tracing_overhead_frac",
            (wall - untraced) / untraced,
            "ratio",
        ),
    ]);
    (m, unattributed <= MAX_UNATTRIBUTED_FRAC * wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = Args::parse(&strings(&[
            "--workload",
            "chaos_campaign",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::ChaosCampaign);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "heavy_uniform", "--trace", "2"],
            &["--workload", "heavy_uniform", "--seconds", "-1"],
            &["--workload", "heavy_uniform", "--seed"],
            &["--workload", "heavy_uniform", "--bogus", "1"],
        ] {
            assert!(Args::parse(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&[3.0], 0.95), 3.0);
    }
}
