//! Span and counter recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a library layer in
//! [`span`]. While recording is on, a span's *self time* — its duration
//! minus the part of it covered by nested spans — is added to its layer,
//! so the self times of all layers plus the time outside any span add up
//! to the wall time of the recorded body. Counters ([`count`], [`high`])
//! are recorded at the same boundaries.
//!
//! Recording is per thread and off by default; untraced batches run with
//! it off, and then [`span`] is a plain call.

use std::cell::RefCell;
use std::time::Instant;

/// A library layer the benchmark calls into, named after the module that
/// implements it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `pps-workload`: materializing a trace from a spec.
    Materialize,
    /// `pps-traffic`: building an adversarial trace (probing included).
    Adversary,
    /// `pps-traffic`: the leaky-bucket certificate (`min_burstiness`).
    LbCheck,
    /// `pps-switch`: engine construction.
    Construct,
    /// `pps-switch`: the fabric run, minus demux decisions.
    PpsRun,
    /// `pps-switch`: demultiplexor calls, through a forwarding wrapper.
    Demux,
    /// `pps-reference`: the shadow output-queued switch.
    Oq,
    /// `pps-crossbar`: the VOQ crossbar run, minus scheduling.
    CrossbarRun,
    /// `pps-crossbar`: `CrossbarScheduler::schedule`, through a wrapper.
    Schedule,
    /// `pps-analysis`: the relative-delay join and quantiles.
    Join,
    /// `pps-chaos`: lockstep cases with every oracle armed.
    Chaos,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Materialize,
        Layer::Adversary,
        Layer::LbCheck,
        Layer::Construct,
        Layer::PpsRun,
        Layer::Demux,
        Layer::Oq,
        Layer::CrossbarRun,
        Layer::Schedule,
        Layer::Join,
        Layer::Chaos,
    ];

    /// The per-layer metric reporting this layer's self time.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Materialize => "workload.materialize_s",
            Layer::Adversary => "traffic.adversary_s",
            Layer::LbCheck => "traffic.lb_check_s",
            Layer::Construct => "pps.construct_s",
            Layer::PpsRun => "pps.run_self_s",
            Layer::Demux => "pps.demux_s",
            Layer::Oq => "reference.oq_s",
            Layer::CrossbarRun => "crossbar.run_self_s",
            Layer::Schedule => "crossbar.schedule_s",
            Layer::Join => "analysis.join_s",
            Layer::Chaos => "chaos.case_s",
        }
    }
}

/// A counter recorded at a layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Cells materialized by the workload layer.
    Cells,
    /// Probe dispatches the adversary made against a demux copy.
    AdversaryProbes,
    /// PPS engines constructed.
    Constructs,
    /// Forwarded demultiplexor calls: decisions, per-slot hooks and
    /// buffered wake queries.
    DemuxCalls,
    /// `perf::slots_simulated` delta across PPS runs.
    SlotsSimulated,
    /// `perf::slots_skipped` delta across PPS runs.
    SlotsSkipped,
    /// Highest `FabricStats::max_plane_queue` seen (a maximum, not a sum).
    MaxPlaneQueue,
    /// Highest `FabricStats::max_output_held` seen (a maximum, not a sum).
    MaxOutputHeld,
    /// `CrossbarScheduler::schedule` calls.
    ScheduleCalls,
    /// Inputs matched by the scheduler.
    Matched,
    /// Inputs with a non-empty VOQ when the scheduler ran.
    MatchEligible,
    /// Chaos cases run.
    ChaosCases,
    /// Oracle violations plus engine errors across chaos cases.
    ChaosViolations,
    /// `telemetry::events_recorded` delta.
    TelemetryEvents,
}

const LAYERS: usize = Layer::ALL.len();
/// `TelemetryEvents` is the last counter.
const COUNTERS: usize = Counter::TelemetryEvents as usize + 1;

/// What one recording captured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Self nanoseconds per layer, indexed like [`Layer::ALL`].
    self_ns: [u64; LAYERS],
    /// Counter values, indexed by `Counter as usize`.
    counts: [u64; COUNTERS],
}

impl Profile {
    /// Self time of `layer`, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }

    /// Sum of every layer's self time, in seconds.
    pub fn attributed_s(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// A counter's value.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    /// Open spans: layer and nanoseconds already claimed by children.
    stack: Vec<(Layer, u64)>,
    profile: Profile,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Start recording on this thread, discarding anything recorded before.
pub fn begin() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "begin() inside an open span");
        r.on = true;
        r.profile = Profile::default();
    });
}

/// Stop recording on this thread and return what was recorded.
pub fn end() -> Profile {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "end() inside an open span");
        r.on = false;
        std::mem::take(&mut r.profile)
    })
}

fn recording() -> bool {
    RECORDER.with(|r| r.borrow().on)
}

/// Run `f` as a span of `layer`. A plain call when recording is off.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !recording() {
        return f();
    }
    RECORDER.with(|r| r.borrow_mut().stack.push((layer, 0)));
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let (layer, children) = r.stack.pop().expect("span stack underflow");
        r.profile.self_ns[layer as usize] += elapsed.saturating_sub(children);
        if let Some(parent) = r.stack.last_mut() {
            parent.1 += elapsed;
        }
    });
    out
}

/// Add `n` to a counter (no-op when recording is off).
pub fn count(counter: Counter, n: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            r.profile.counts[counter as usize] += n;
        }
    });
}

/// Raise a maximum-valued counter to at least `v` (no-op when off).
pub fn high(counter: Counter, v: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            let c = &mut r.profile.counts[counter as usize];
            *c = (*c).max(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_the_outer_span() {
        begin();
        let wall = Instant::now();
        span(Layer::PpsRun, || {
            busy(3);
            span(Layer::Demux, || busy(5));
        });
        let wall = wall.elapsed().as_secs_f64();
        let p = end();
        assert!(p.self_s(Layer::Demux) >= 0.005);
        assert!(p.self_s(Layer::PpsRun) >= 0.003);
        assert!(
            p.self_s(Layer::PpsRun) < 0.005,
            "child time leaked into parent"
        );
        assert!(p.attributed_s() <= wall);
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        span(Layer::Oq, || busy(1));
        count(Counter::Cells, 5);
        begin();
        assert_eq!(end(), Profile::default());
    }
}
