//! The PPS engines.
//!
//! [`BufferlessPps`] implements the base architecture (Definition 1: an
//! arriving cell is demultiplexed to a plane in its arrival slot);
//! [`BufferedPps`] implements the input-buffered variant of Iyer & McKeown
//! (Definition 2: the demultiplexor may hold arriving cells in a finite
//! input buffer and release any number of buffered cells per slot, subject
//! to the line-rate constraints).
//!
//! Both engines enforce the formal model: per-slot arrival/departure
//! cardinality, the input and output constraints, no cell drops (outside
//! fault-injection), and the information classification — a
//! fully-distributed demultiplexor is handed *no* global view, a `u`-RT one
//! only the snapshot from `u` slots ago, a centralized one the current
//! state.

use crate::fabric::{Fabric, FabricStats};
use pps_core::prelude::*;
use pps_core::stepping::{self, drive, earliest, Drive};
use pps_core::telemetry::{self, Engine, EventKind, FaultKind};

/// Outcome of a complete PPS run.
#[derive(Clone, Debug)]
pub struct PpsRun {
    /// Per-cell record (join against the shadow switch's log by cell id).
    pub log: RunLog,
    /// Fabric statistics.
    pub stats: FabricStats,
    /// Slot after the last processed slot (the run's horizon).
    pub end_slot: Slot,
    /// The livelock cap stopped the run with cells still inside the
    /// switch (e.g. a resequencer blocked forever on a cell lost to a
    /// failed plane, with no watchdog to skip it).
    pub truncated: bool,
}

/// Shared slot-stepping logic: snapshot bus management.
#[derive(Clone, Debug)]
struct InfoBus {
    ring: Option<SnapshotRing>,
    centralized: bool,
    /// Scratch current snapshot for the centralized class.
    current: Option<GlobalSnapshot>,
}

impl InfoBus {
    fn new(class: InfoClass) -> Self {
        match class {
            InfoClass::FullyDistributed => InfoBus {
                ring: None,
                centralized: false,
                current: None,
            },
            InfoClass::RealTimeDistributed { u } => InfoBus {
                ring: Some(SnapshotRing::new(u.max(1))),
                centralized: false,
                current: None,
            },
            InfoClass::Centralized => InfoBus {
                ring: None,
                centralized: true,
                current: None,
            },
        }
    }

    /// Prepare the view for slot `now`. For the centralized class this is
    /// the state at the start of the slot; for `u`-RT the end-of-slot state
    /// of slot `now − u` (or nothing while `now < u`).
    fn begin_slot(&mut self, now: Slot, fabric: &Fabric, buffers: &[u32]) {
        if self.centralized {
            // Overwrite last slot's snapshot in place: the centralized
            // class allocates once per run, not once per slot.
            match &mut self.current {
                Some(cur) => fabric.snapshot_into(now, buffers, cur),
                None => self.current = Some(fabric.snapshot(now, buffers)),
            }
        }
        let _ = now;
    }

    fn view(&self, now: Slot) -> Option<&GlobalSnapshot> {
        if self.centralized {
            self.current.as_ref()
        } else {
            self.ring.as_ref().and_then(|r| r.view(now))
        }
    }

    /// Record the end-of-slot state, stamped with the slot it covers: the
    /// snapshot tagged `t` reflects all events through slot `t`, so a
    /// `u`-RT demultiplexor deciding at `t` sees exactly the paper's
    /// `[0, t − u]` information window.
    fn end_slot(&mut self, now: Slot, fabric: &Fabric, buffers: &[u32]) {
        if let Some(ring) = &mut self.ring {
            // Once the ring is full (after the first u + 1 slots) every
            // push reuses the buffers of the snapshot it would evict.
            let snap = match ring.recycle_slot() {
                Some(mut old) => {
                    fabric.snapshot_into(now, buffers, &mut old);
                    old
                }
                None => fabric.snapshot(now, buffers),
            };
            ring.push(snap);
        }
    }

    /// Replay the per-slot snapshot pushes of the skipped interval
    /// `[from, to]`. The fabric is frozen across the gap (nothing arrives,
    /// serves, or emits in a skipped slot), so dense stepping would push
    /// the same snapshot contents under each gap slot's tag; only the last
    /// `delay + 1` tags can survive the ring's eviction, so only those are
    /// pushed — tag contiguity among retained entries is preserved either
    /// way, which is what [`SnapshotRing::view`]'s index arithmetic needs.
    fn skip_gap(&mut self, from: Slot, to: Slot, fabric: &Fabric, buffers: &[u32]) {
        let Some(ring) = &mut self.ring else {
            return;
        };
        let start = from.max(to.saturating_sub(ring.delay()));
        for t in start..=to {
            let snap = match ring.recycle_slot() {
                Some(mut old) => {
                    fabric.snapshot_into(t, buffers, &mut old);
                    old
                }
                None => fabric.snapshot(t, buffers),
            };
            ring.push(snap);
        }
    }
}

/// A scripted [`FaultPlan`] being replayed against a run: a cursor over the
/// slot-ordered events. Applied at the very start of each slot, *before*
/// the information bus snapshots, so a centralized demultiplexor observes a
/// mask change in the same slot, a `u`-RT one `u` slots later, and a
/// fully-distributed one never.
#[derive(Clone, Debug, Default)]
struct FaultSchedule {
    /// The plan being replayed, shared rather than copied: replaying one
    /// plan against many runs (the fault experiments' inner loops) clones
    /// a pointer, not the event vec.
    plan: Option<std::sync::Arc<FaultPlan>>,
    next: usize,
}

impl FaultSchedule {
    fn set(&mut self, plan: std::sync::Arc<FaultPlan>) {
        self.plan = Some(plan);
        self.next = 0;
    }

    fn events(&self) -> &[FaultEvent] {
        self.plan.as_deref().map_or(&[], FaultPlan::events)
    }

    /// Activation slot of the next unapplied scripted event, if any.
    /// Always strictly after the last slot [`apply_due`](Self::apply_due)
    /// ran for, since that consumed everything due.
    fn next_activity(&self) -> Option<Slot> {
        self.events().get(self.next).map(|e| e.activates_at())
    }

    fn apply_due(&mut self, now: Slot, fabric: &mut Fabric) -> Result<(), ModelError> {
        while let Some(&ev) = self.events().get(self.next) {
            if ev.activates_at() > now {
                break;
            }
            let (plane, kind) = match ev {
                FaultEvent::PlaneDown { plane, .. } => {
                    fabric.fail_plane(plane.idx())?;
                    (plane, FaultKind::PlaneDown)
                }
                FaultEvent::PlaneUp { plane, .. } => {
                    fabric.recover_plane(plane.idx())?;
                    (plane, FaultKind::PlaneUp)
                }
                FaultEvent::LinkDegraded {
                    input,
                    plane,
                    until,
                    ..
                } => {
                    fabric.degrade_link(input.idx(), plane.idx(), until)?;
                    (plane, FaultKind::LinkDegraded)
                }
            };
            if telemetry::on() {
                telemetry::record(Engine::Pps, now, EventKind::FaultApplied { plane, kind });
            }
            self.next += 1;
        }
        Ok(())
    }
}

const NO_BUFFERS: [u32; 0] = [];

/// A bufferless PPS driven by a [`Demultiplexor`].
pub struct BufferlessPps<D: Demultiplexor> {
    fabric: Fabric,
    demux: D,
    bus: InfoBus,
    faults: FaultSchedule,
    stepping: Stepping,
}

impl<D: Demultiplexor> BufferlessPps<D> {
    /// Build the switch; validates the configuration (which must be
    /// bufferless).
    pub fn new(cfg: PpsConfig, demux: D) -> Result<Self, ModelError> {
        cfg.validate()?;
        if !matches!(cfg.buffer, BufferSpec::Bufferless) {
            return Err(ModelError::InvalidConfig {
                reason: "BufferlessPps requires BufferSpec::Bufferless".into(),
            });
        }
        let bus = InfoBus::new(demux.info_class());
        Ok(BufferlessPps {
            fabric: Fabric::new(cfg),
            demux,
            bus,
            faults: FaultSchedule::default(),
            stepping: stepping::process_default(),
        })
    }

    /// Override the slot-stepping mode (the default is the process-wide
    /// setting at construction time; see [`pps_core::stepping`]). Both
    /// modes produce byte-identical runs.
    pub fn set_stepping(&mut self, mode: Stepping) {
        self.stepping = mode;
    }

    /// The demultiplexor (e.g. to read algorithm-specific statistics).
    pub fn demux(&self) -> &D {
        &self.demux
    }

    /// The fabric (for congestion probes and statistics mid-run).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Fault-injection: fail plane `plane` from now on. Out-of-range plane
    /// indices are rejected, not a panic.
    pub fn fail_plane(&mut self, plane: usize) -> Result<(), ModelError> {
        self.fabric.fail_plane(plane)
    }

    /// Fault-injection: bring a failed plane back into service.
    pub fn recover_plane(&mut self, plane: usize) -> Result<(), ModelError> {
        self.fabric.recover_plane(plane)
    }

    /// Test-only chaos hook; see `Fabric::inject_conservation_leak`.
    #[doc(hidden)]
    pub fn inject_conservation_leak(&mut self) {
        self.fabric.inject_conservation_leak();
    }

    /// Replay `plan` during the next [`run`](Self::run): each event takes
    /// effect at the start of its slot. Validates the plan against the
    /// switch geometry.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        self.set_fault_plan_shared(std::sync::Arc::new(plan.clone()))
    }

    /// Like [`set_fault_plan`](Self::set_fault_plan), but shares the plan
    /// instead of copying it — the cheap path when one plan is replayed
    /// against many runs.
    pub fn set_fault_plan_shared(
        &mut self,
        plan: std::sync::Arc<FaultPlan>,
    ) -> Result<(), ModelError> {
        plan.validate(self.fabric.cfg())?;
        self.faults.set(plan);
        Ok(())
    }

    /// Run a whole trace to completion (arrivals plus drain).
    pub fn run(&mut self, trace: &Trace) -> Result<PpsRun, ModelError> {
        let mode = self.stepping;
        run_trace(self, |e| &mut e.fabric, mode, trace)
    }
}

impl<D: Demultiplexor> SlotEngine for BufferlessPps<D> {
    type Stop = ModelError;

    /// Advance one slot: dispatch this slot's arrivals, serve the planes,
    /// emit at the outputs.
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), ModelError> {
        self.faults.apply_due(now, &mut self.fabric)?;
        self.bus.begin_slot(now, &self.fabric, &NO_BUFFERS);
        self.demux.on_slot(now, self.bus.view(now));
        for cell in arrivals {
            debug_assert_eq!(cell.arrival, now);
            if telemetry::on() {
                telemetry::record(
                    Engine::Pps,
                    now,
                    EventKind::Arrival {
                        cell: cell.id,
                        input: cell.input,
                        output: cell.output,
                    },
                );
            }
            self.fabric.register_arrival(cell);
            // Under link degradation an input can find *every* line busy —
            // the K >= r' guarantee only covers ordinary occupancy. A
            // bufferless input has nowhere to hold the cell: it is lost at
            // the first stage rather than reported as an algorithm bug.
            let any_free = self
                .fabric
                .local_view(cell.input, now)
                .free_planes()
                .next()
                .is_some();
            if !any_free {
                self.fabric.drop_at_input(cell);
                continue;
            }
            let plane = {
                let ctx = DispatchCtx {
                    local: self.fabric.local_view(cell.input, now),
                    global: self.bus.view(now),
                };
                self.demux.dispatch(cell, &ctx)
            };
            if telemetry::on() {
                telemetry::record(
                    Engine::Pps,
                    now,
                    EventKind::DemuxDecision {
                        cell: cell.id,
                        input: cell.input,
                        plane,
                    },
                );
            }
            self.fabric.dispatch(*cell, plane, now, log)?;
        }
        self.fabric.service(now)?;
        self.fabric.emit(now, log);
        self.bus.end_slot(now, &self.fabric, &NO_BUFFERS);
        Ok(())
    }

    /// Cells still inside the switch.
    fn backlog(&self) -> usize {
        self.fabric.backlog()
    }

    /// The next scripted fault, any fabric service/emit/watchdog
    /// activity, or a demux wake-up.
    fn next_activity(&self, now: Slot) -> Option<Slot> {
        let t = earliest(self.faults.next_activity(), self.fabric.next_activity(now));
        earliest(t, self.demux.next_activity(now))
    }

    /// Output-stall accounting, information-bus snapshot pushes, and
    /// skipped-slot metering.
    fn skip_idle(&mut self, from: Slot, to: Slot) {
        self.fabric.skip_idle_slots(from, to);
        self.bus.skip_gap(from, to, &self.fabric, &NO_BUFFERS);
    }
}

/// An input-buffered PPS driven by a [`BufferedDemultiplexor`].
pub struct BufferedPps<D: BufferedDemultiplexor> {
    fabric: Fabric,
    demux: D,
    bus: InfoBus,
    faults: FaultSchedule,
    buffers: Vec<std::collections::VecDeque<Cell>>,
    buffer_live: Vec<u32>,
    /// Running total of `buffer_live` — lets the skip logic test "any
    /// buffered cell anywhere" without an O(N) sweep.
    buffered_cells: usize,
    capacity: usize,
    max_buffer_occupancy: usize,
    stepping: Stepping,
    /// Per-slot decision scratch, cleared and refilled for every input so
    /// deciding allocates nothing in the steady state.
    decision: BufferedDecision,
}

impl<D: BufferedDemultiplexor> BufferedPps<D> {
    /// Build the switch; the configuration must specify input buffers.
    pub fn new(cfg: PpsConfig, demux: D) -> Result<Self, ModelError> {
        cfg.validate()?;
        let capacity = match cfg.buffer {
            BufferSpec::Buffered { size } => size,
            BufferSpec::Bufferless => {
                return Err(ModelError::InvalidConfig {
                    reason: "BufferedPps requires BufferSpec::Buffered".into(),
                })
            }
        };
        let bus = InfoBus::new(demux.info_class());
        Ok(BufferedPps {
            fabric: Fabric::new(cfg),
            demux,
            bus,
            faults: FaultSchedule::default(),
            buffers: (0..cfg.n)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            buffer_live: vec![0; cfg.n],
            buffered_cells: 0,
            capacity,
            max_buffer_occupancy: 0,
            stepping: stepping::process_default(),
            decision: BufferedDecision::default(),
        })
    }

    /// Override the slot-stepping mode; see [`BufferlessPps::set_stepping`].
    pub fn set_stepping(&mut self, mode: Stepping) {
        self.stepping = mode;
    }

    /// The demultiplexor.
    pub fn demux(&self) -> &D {
        &self.demux
    }

    /// The fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Highest input-buffer occupancy reached.
    pub fn max_buffer_occupancy(&self) -> usize {
        self.max_buffer_occupancy
    }

    /// Fault-injection: fail plane `plane` from now on. Out-of-range plane
    /// indices are rejected, not a panic.
    pub fn fail_plane(&mut self, plane: usize) -> Result<(), ModelError> {
        self.fabric.fail_plane(plane)
    }

    /// Fault-injection: bring a failed plane back into service.
    pub fn recover_plane(&mut self, plane: usize) -> Result<(), ModelError> {
        self.fabric.recover_plane(plane)
    }

    /// Test-only chaos hook; see `Fabric::inject_conservation_leak`.
    #[doc(hidden)]
    pub fn inject_conservation_leak(&mut self) {
        self.fabric.inject_conservation_leak();
    }

    /// Replay `plan` during the next [`run`](Self::run); see
    /// [`BufferlessPps::set_fault_plan`].
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        self.set_fault_plan_shared(std::sync::Arc::new(plan.clone()))
    }

    /// Like [`set_fault_plan`](Self::set_fault_plan), but shares the plan
    /// instead of copying it; see [`BufferlessPps::set_fault_plan_shared`].
    pub fn set_fault_plan_shared(
        &mut self,
        plan: std::sync::Arc<FaultPlan>,
    ) -> Result<(), ModelError> {
        plan.validate(self.fabric.cfg())?;
        self.faults.set(plan);
        Ok(())
    }

    /// Run a whole trace to completion (arrivals plus drain).
    pub fn run(&mut self, trace: &Trace) -> Result<PpsRun, ModelError> {
        let mode = self.stepping;
        run_trace(self, |e| &mut e.fabric, mode, trace)
    }

    fn apply_decision(
        &mut self,
        input: usize,
        now: Slot,
        arrival: Option<Cell>,
        decision: &mut BufferedDecision,
        log: &mut RunLog,
    ) -> Result<(), ModelError> {
        // Validate and perform releases, highest index first so earlier
        // indices stay valid during removal.
        let releases = &mut decision.releases;
        releases.sort_by_key(|r| std::cmp::Reverse(r.0));
        for w in releases.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(ModelError::BadBufferIndex {
                    input: PortId(input as u32),
                    index: w[0].0,
                });
            }
        }
        for &(idx, plane) in releases.iter() {
            let cell = self.buffers[input]
                .remove(idx)
                .ok_or(ModelError::BadBufferIndex {
                    input: PortId(input as u32),
                    index: idx,
                })?;
            self.buffer_live[input] -= 1;
            self.buffered_cells -= 1;
            if telemetry::on() {
                telemetry::record(
                    Engine::Pps,
                    now,
                    EventKind::DemuxDecision {
                        cell: cell.id,
                        input: cell.input,
                        plane,
                    },
                );
            }
            self.fabric.dispatch(cell, plane, now, log)?;
        }
        match (arrival, decision.arrival) {
            (Some(cell), Some(ArrivalAction::Dispatch(plane))) => {
                if telemetry::on() {
                    telemetry::record(
                        Engine::Pps,
                        now,
                        EventKind::DemuxDecision {
                            cell: cell.id,
                            input: cell.input,
                            plane,
                        },
                    );
                }
                self.fabric.dispatch(cell, plane, now, log)?;
            }
            (Some(cell), Some(ArrivalAction::Enqueue)) | (Some(cell), None) => {
                // A missing action defaults to buffering: the model forbids
                // dropping, so the engine never discards an arrival.
                if self.buffers[input].len() >= self.capacity {
                    return Err(ModelError::BufferOverflow {
                        input: PortId(input as u32),
                        capacity: self.capacity,
                        cell: cell.id,
                    });
                }
                self.buffers[input].push_back(cell);
                self.buffer_live[input] += 1;
                self.buffered_cells += 1;
                self.max_buffer_occupancy =
                    self.max_buffer_occupancy.max(self.buffers[input].len());
            }
            (None, _) => {}
        }
        Ok(())
    }
}

impl<D: BufferedDemultiplexor> SlotEngine for BufferedPps<D> {
    type Stop = ModelError;

    /// Advance one slot. `arrivals` must be sorted by input port (as
    /// produced by [`Trace::cells`]); the demultiplexor is consulted per
    /// input in port order, matching the global-FCFS tie-break.
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), ModelError> {
        self.faults.apply_due(now, &mut self.fabric)?;
        self.bus.begin_slot(now, &self.fabric, &self.buffer_live);
        let mut arr_iter = arrivals.iter().peekable();
        for input in 0..self.fabric.cfg().n {
            let arrival = arr_iter.next_if(|c| c.input.idx() == input).copied();
            if arrival.is_none() && self.buffers[input].is_empty() {
                continue;
            }
            if let Some(c) = arrival {
                debug_assert_eq!(c.arrival, now);
                if telemetry::on() {
                    telemetry::record(
                        Engine::Pps,
                        now,
                        EventKind::Arrival {
                            cell: c.id,
                            input: c.input,
                            output: c.output,
                        },
                    );
                }
                self.fabric.register_arrival(&c);
            }
            let mut decision = std::mem::take(&mut self.decision);
            decision.clear();
            {
                let buf = self.buffers[input].make_contiguous();
                let ctx = DispatchCtx {
                    local: self.fabric.local_view(PortId(input as u32), now),
                    global: self.bus.view(now),
                };
                self.demux.slot_decision(
                    PortId(input as u32),
                    arrival.as_ref(),
                    buf,
                    &ctx,
                    &mut decision,
                );
            }
            let applied = self.apply_decision(input, now, arrival, &mut decision, log);
            // Hand the scratch (and its allocation) back before surfacing
            // any model error.
            self.decision = decision;
            applied?;
        }
        self.fabric.service(now)?;
        self.fabric.emit(now, log);
        self.bus.end_slot(now, &self.fabric, &self.buffer_live);
        Ok(())
    }

    /// Cells still inside the switch (buffers + fabric).
    fn backlog(&self) -> usize {
        self.fabric.backlog() + self.buffered_cells
    }

    /// The bufferless lookahead, plus the input buffers: while they hold
    /// cells, each occupied input's wake-up comes from the
    /// demultiplexor's
    /// [`buffered_next_activity`](BufferedDemultiplexor::buffered_next_activity)
    /// for its head cell (conservative default: the very next slot, the
    /// pre-PR-8 dense behavior) — so hold-for-`u` style algorithms let
    /// buffered runs skip idle gaps too. Waking early is always safe (the
    /// dense walk would have decided "hold" and mutated nothing).
    fn next_activity(&self, now: Slot) -> Option<Slot> {
        let mut t = earliest(self.faults.next_activity(), self.fabric.next_activity(now));
        t = earliest(t, self.demux.next_activity(now));
        if self.buffered_cells > 0 {
            for (input, buf) in self.buffers.iter().enumerate() {
                if t == Some(now + 1) {
                    break; // cannot get earlier than the next slot
                }
                let Some(head) = buf.front() else { continue };
                let view = self.fabric.local_view(PortId(input as u32), now);
                t = earliest(
                    t,
                    self.demux
                        .buffered_next_activity(PortId(input as u32), head, &view),
                );
            }
        }
        t
    }

    /// The bufferless replay, with the buffer occupancies in the
    /// snapshots.
    fn skip_idle(&mut self, from: Slot, to: Slot) {
        self.fabric.skip_idle_slots(from, to);
        self.bus.skip_gap(from, to, &self.fabric, &self.buffer_live);
    }
}

/// Drive either PPS engine over `trace` until it drains or hits the
/// livelock cap: a generous bound on how long draining can take (every
/// cell serialized through one line plus slack). A capped run reports
/// the leftovers as undelivered, and `truncated`, instead of spinning
/// forever.
fn run_trace<E: SlotEngine<Stop = ModelError>>(
    engine: &mut E,
    fabric: fn(&mut E) -> &mut Fabric,
    mode: Stepping,
    trace: &Trace,
) -> Result<PpsRun, ModelError> {
    let cfg = *fabric(engine).cfg();
    let cells = trace.cells(cfg.n);
    fabric(engine).reserve_cells(cells.len());
    let mut log = RunLog::with_cells(&cells);
    let cap = trace.horizon()
        + (trace.len() as Slot + 1) * (cfg.r_prime as Slot + 1)
        + cfg.buffer.capacity() as Slot
        + 64;
    let Drive {
        end_slot,
        truncated,
    } = drive(engine, &cells, &mut log, mode, cap)?;
    Ok(PpsRun {
        log,
        stats: fabric(engine).stats(),
        end_slot,
        truncated,
    })
}

/// Convenience: run `trace` through a fresh bufferless PPS.
pub fn run_bufferless<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
) -> Result<PpsRun, ModelError> {
    BufferlessPps::new(cfg, demux)?.run(trace)
}

/// Convenience: run `trace` through a fresh input-buffered PPS.
pub fn run_buffered<D: BufferedDemultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
) -> Result<PpsRun, ModelError> {
    BufferedPps::new(cfg, demux)?.run(trace)
}

/// Convenience: run `trace` through a fresh bufferless PPS while replaying
/// the scripted `faults`.
pub fn run_bufferless_with_faults<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    faults: &FaultPlan,
) -> Result<PpsRun, ModelError> {
    let mut pps = BufferlessPps::new(cfg, demux)?;
    pps.set_fault_plan(faults)?;
    pps.run(trace)
}

/// Convenience: run `trace` through a fresh input-buffered PPS while
/// replaying the scripted `faults`.
pub fn run_buffered_with_faults<D: BufferedDemultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    faults: &FaultPlan,
) -> Result<PpsRun, ModelError> {
    let mut pps = BufferedPps::new(cfg, demux)?;
    pps.set_fault_plan(faults)?;
    pps.run(trace)
}
