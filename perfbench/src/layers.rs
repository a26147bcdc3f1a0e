//! Traced calls into the switch layers, shared by the workloads. Each
//! helper calls the public constituents of a composite (`compare_*` is
//! engine construction, the fabric run and the shadow OQ) inside layer
//! spans and records the layer's counters.

use crate::spans::{count, high, span, Counter, Layer};
use crate::wrappers::TracedDemux;
use pps_core::perf;
use pps_core::prelude::*;
use pps_reference::oq::run_oq;
use pps_switch::engine::{BufferedPps, BufferlessPps, PpsRun};

/// Construct a bufferless PPS around a [`TracedDemux`] and run `trace`.
/// Returns the run and what `inspect` reads from the demux afterwards.
/// Engine teardown counts as construction: both scale with the engine's
/// size, not with the traffic.
pub fn bufferless<D: Demultiplexor, T>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    inspect: impl FnOnce(&D) -> T,
) -> Result<(PpsRun, T), ModelError> {
    count(Counter::Constructs, 1);
    let mut sw = span(Layer::Construct, || {
        BufferlessPps::new(cfg, TracedDemux(demux))
    })?;
    let run = fabric_run(|| sw.run(trace))?;
    let seen = inspect(&sw.demux().0);
    span(Layer::Construct, || drop(sw));
    Ok((run, seen))
}

/// Construct an input-buffered PPS around a [`TracedDemux`] and run
/// `trace`.
pub fn buffered<D: BufferedDemultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
) -> Result<PpsRun, ModelError> {
    count(Counter::Constructs, 1);
    let mut sw = span(Layer::Construct, || {
        BufferedPps::new(cfg, TracedDemux(demux))
    })?;
    let run = fabric_run(|| sw.run(trace))?;
    span(Layer::Construct, || drop(sw));
    Ok(run)
}

/// The shadow OQ switch on `trace`.
pub fn oq(trace: &Trace, n: usize) -> RunLog {
    span(Layer::Oq, || run_oq(trace, n))
}

fn fabric_run(run: impl FnOnce() -> Result<PpsRun, ModelError>) -> Result<PpsRun, ModelError> {
    let (simulated, skipped) = (perf::slots_simulated(), perf::slots_skipped());
    let out = span(Layer::PpsRun, run)?;
    count(Counter::SlotsSimulated, perf::slots_simulated() - simulated);
    count(Counter::SlotsSkipped, perf::slots_skipped() - skipped);
    high(Counter::MaxPlaneQueue, out.stats.max_plane_queue as u64);
    high(Counter::MaxOutputHeld, out.stats.max_output_held as u64);
    Ok(out)
}
