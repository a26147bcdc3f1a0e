//! Forwarding wrappers that time and count calls into a layer from the
//! outside. Each forwards every trait method to the wrapped value
//! unchanged, so a run through a wrapper produces the same departures as
//! a run without it (the self-tests pin this through the output digest).

use crate::spans::{count, span, Counter, Layer};
use pps_core::prelude::*;
use pps_crossbar::CrossbarScheduler;

/// Times every demultiplexor call as a [`Layer::Demux`] span.
#[derive(Clone, Debug)]
pub struct TracedDemux<D>(pub D);

impl<D: Demultiplexor> Demultiplexor for TracedDemux<D> {
    fn info_class(&self) -> InfoClass {
        self.0.info_class()
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        count(Counter::DemuxCalls, 1);
        span(Layer::Demux, || self.0.dispatch(cell, ctx))
    }

    fn on_slot(&mut self, now: Slot, global: Option<&GlobalSnapshot>) {
        count(Counter::DemuxCalls, 1);
        span(Layer::Demux, || self.0.on_slot(now, global))
    }

    fn next_activity(&self, now: Slot) -> Option<Slot> {
        self.0.next_activity(now)
    }

    fn reset(&mut self) {
        self.0.reset()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<D: BufferedDemultiplexor> BufferedDemultiplexor for TracedDemux<D> {
    fn info_class(&self) -> InfoClass {
        self.0.info_class()
    }

    fn slot_decision(
        &mut self,
        input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        count(Counter::DemuxCalls, 1);
        span(Layer::Demux, || {
            self.0.slot_decision(input, arrival, buffer, ctx, out)
        })
    }

    fn next_activity(&self, now: Slot) -> Option<Slot> {
        BufferedDemultiplexor::next_activity(&self.0, now)
    }

    fn buffered_next_activity(
        &self,
        input: PortId,
        head: &Cell,
        local: &LocalView<'_>,
    ) -> Option<Slot> {
        count(Counter::DemuxCalls, 1);
        span(Layer::Demux, || {
            self.0.buffered_next_activity(input, head, local)
        })
    }

    fn reset(&mut self) {
        BufferedDemultiplexor::reset(&mut self.0)
    }

    fn name(&self) -> &'static str {
        BufferedDemultiplexor::name(&self.0)
    }
}

/// Counts the probe dispatches an adversary makes against its working
/// copy of a demultiplexor. Untimed: probing is part of the enclosing
/// [`Layer::Adversary`] span.
#[derive(Clone, Debug)]
pub struct ProbedDemux<D>(pub D);

impl<D: Demultiplexor> Demultiplexor for ProbedDemux<D> {
    fn info_class(&self) -> InfoClass {
        self.0.info_class()
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        count(Counter::AdversaryProbes, 1);
        self.0.dispatch(cell, ctx)
    }

    fn on_slot(&mut self, now: Slot, global: Option<&GlobalSnapshot>) {
        self.0.on_slot(now, global)
    }

    fn next_activity(&self, now: Slot) -> Option<Slot> {
        self.0.next_activity(now)
    }

    fn reset(&mut self) {
        self.0.reset()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Times every `schedule` call as a [`Layer::Schedule`] span and counts
/// how many inputs with a non-empty VOQ it matched.
#[derive(Clone, Debug)]
pub struct TracedScheduler<S>(pub S);

impl<S: CrossbarScheduler> CrossbarScheduler for TracedScheduler<S> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn schedule(&mut self, now: Slot, lens: &[usize], out: &mut [Option<usize>]) {
        count(Counter::ScheduleCalls, 1);
        span(Layer::Schedule, || self.0.schedule(now, lens, out));
        let n = self.0.n();
        let eligible = lens.chunks(n).filter(|row| row.iter().any(|&l| l > 0));
        count(Counter::MatchEligible, eligible.count() as u64);
        count(Counter::Matched, out.iter().flatten().count() as u64);
    }

    fn next_activity(&self, now: Slot, backlog: usize) -> Option<Slot> {
        self.0.next_activity(now, backlog)
    }

    fn reset(&mut self) {
        self.0.reset()
    }

    fn state_digest(&self) -> u64 {
        self.0.state_digest()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}
