//! The FCFS output-queued shadow switch.
//!
//! An output-queued (OQ) switch at rate `R` places every arriving cell
//! directly into its destination output's queue and emits one cell per
//! output per slot. It is work-conserving and — among work-conserving
//! switches — minimizes queuing delay, which is why the paper adopts it as
//! the reference. Matching the paper's timing conventions, a cell may
//! depart in the very slot it arrives when its output is idle.

use pps_core::prelude::*;

/// A step-wise FCFS output-queued switch, usable in lockstep with a PPS on
/// the same trace.
#[derive(Clone, Debug)]
pub struct ShadowOq {
    n: usize,
    /// Per-output FIFO queues of bare cell ids — departures only need the
    /// id (the `RunLog` keyed by it holds the metadata), so the queues
    /// never park whole `Cell` values.
    queues: Vec<FifoQueue<CellId>>,
    /// Cells queued across all outputs.
    queued: usize,
    /// Bitset of non-empty outputs (bit `j % 64` of word `j / 64`), so a
    /// slot visits only the outputs that can depart, in ascending order.
    busy: Vec<u64>,
}

impl ShadowOq {
    /// An idle `n × n` OQ switch.
    pub fn new(n: usize) -> Self {
        ShadowOq {
            n,
            queues: (0..n).map(|_| FifoQueue::new()).collect(),
            queued: 0,
            busy: vec![0; n.div_ceil(64)],
        }
    }

    /// Number of ports.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cells queued for a specific output.
    pub fn backlog_at(&self, output: usize) -> usize {
        self.queues[output].len()
    }

    /// Highest queue occupancy any output ever reached — the paper notes
    /// this is bounded by the traffic's burstiness factor `B` for
    /// leaky-bucket traffic (via Cruz's calculus \[9\]).
    pub fn max_occupancy(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.max_occupancy())
            .max()
            .unwrap_or(0)
    }
}

impl SlotEngine for ShadowOq {
    type Stop = std::convert::Infallible;

    /// Advance one slot: accept this slot's arrivals, then let every
    /// non-empty output emit one cell, in ascending port order, recording
    /// departures into `log`.
    ///
    /// `arrivals` must all have `arrival == now`.
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), Self::Stop> {
        use pps_core::telemetry::{self, Engine, EventKind};
        for cell in arrivals {
            debug_assert_eq!(cell.arrival, now, "arrival slot mismatch");
            if telemetry::on() {
                telemetry::record(
                    Engine::ShadowOq,
                    now,
                    EventKind::Arrival {
                        cell: cell.id,
                        input: cell.input,
                        output: cell.output,
                    },
                );
            }
            let j = cell.output.idx();
            self.queues[j].push(cell.id);
            self.busy[j / 64] |= 1 << (j % 64);
        }
        self.queued += arrivals.len();
        for w in 0..self.busy.len() {
            let mut bits = self.busy[w];
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let q = &mut self.queues[j];
                let id = q.pop().expect("busy outputs hold a cell");
                if q.is_empty() {
                    self.busy[w] &= !(1 << (j % 64));
                }
                self.queued -= 1;
                if telemetry::on() {
                    telemetry::record(
                        Engine::ShadowOq,
                        now,
                        EventKind::Depart {
                            cell: id,
                            output: PortId(j as u32),
                        },
                    );
                }
                log.set_departure(id, now);
            }
        }
        Ok(())
    }

    /// Total cells currently queued.
    fn backlog(&self) -> usize {
        self.queued
    }

    /// An OQ switch is work-conserving — any backlog emits next slot — and
    /// an empty one is a pure no-op until a cell arrives, so this is
    /// `now + 1` or nothing.
    fn next_activity(&self, now: Slot) -> Option<Slot> {
        (self.backlog() > 0).then(|| now + 1)
    }

    /// The shadow switch is a reference, not a simulated engine: it meters
    /// neither its slots nor its skips.
    fn skip_idle(&mut self, _from: Slot, _to: Slot) {}
}

/// Run a trace through a fresh OQ switch until every cell departs; returns
/// the per-cell log. Uses the process-default stepping mode; both modes
/// produce identical logs. A work-conserving switch always drains, so the
/// run has no livelock cap.
pub fn run_oq(trace: &Trace, n: usize) -> RunLog {
    let cells = trace.cells(n);
    let mut log = RunLog::with_cells(&cells);
    let mode = pps_core::stepping::process_default();
    let Ok(_) = pps_core::stepping::drive(&mut ShadowOq::new(n), &cells, &mut log, mode, Slot::MAX);
    log
}

/// Closed-form FCFS-OQ departure times for a trace: cell `c` destined for
/// output `j` departs at `max(arrival(c), previous_departure_j + 1)`.
///
/// Returned indexed by cell id. This is the deadline oracle the CPA
/// demultiplexor mimics, and a differential-testing target for [`run_oq`].
pub fn fcfs_departure_times(trace: &Trace, n: usize) -> Vec<Slot> {
    let mut last: Vec<Option<Slot>> = vec![None; n];
    trace
        .cells(n)
        .iter()
        .map(|cell| {
            let j = cell.output.idx();
            let dt = match last[j] {
                Some(prev) => cell.arrival.max(prev + 1),
                None => cell.arrival,
            };
            last[j] = Some(dt);
            dt
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(arrivals: Vec<Arrival>, n: usize) -> Trace {
        Trace::build(arrivals, n).unwrap()
    }

    #[test]
    fn lone_cell_departs_in_arrival_slot() {
        let t = trace(vec![Arrival::new(5, 0, 1)], 2);
        let log = run_oq(&t, 2);
        assert_eq!(log.get(CellId(0)).departure, Some(5));
        assert_eq!(log.get(CellId(0)).delay(), Some(0));
    }

    #[test]
    fn contention_serializes_fcfs() {
        // Three inputs send to output 0 in the same slot; departures are
        // slots 0,1,2 in input order (global FCFS tie-break).
        let t = trace(
            vec![
                Arrival::new(0, 2, 0),
                Arrival::new(0, 0, 0),
                Arrival::new(0, 1, 0),
            ],
            3,
        );
        let log = run_oq(&t, 3);
        // Trace::cells orders same-slot arrivals by input.
        let mut by_input: Vec<(u32, Slot)> = log
            .records()
            .iter()
            .map(|r| (r.input.0, r.departure.unwrap()))
            .collect();
        by_input.sort();
        assert_eq!(by_input, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn closed_form_matches_simulation() {
        // A mildly bursty pattern across 3 outputs.
        let mut arr = Vec::new();
        for t in 0..40u64 {
            for i in 0..4u32 {
                if !(t + i as u64).is_multiple_of(3) {
                    arr.push(Arrival::new(t, i, ((t as u32 + i) * 7) % 3));
                }
            }
        }
        let t = trace(arr, 4);
        let log = run_oq(&t, 4);
        let analytic = fcfs_departure_times(&t, 4);
        for rec in log.records() {
            assert_eq!(
                rec.departure,
                Some(analytic[rec.id.idx()]),
                "cell {:?} departure mismatch",
                rec.id
            );
        }
    }

    #[test]
    fn occupancy_tracks_burst_size() {
        // A burst of 5 cells to one output in one... not possible (one per
        // input per slot): 5 inputs, same slot => occupancy peaks at 4
        // (one departs immediately).
        let t = trace((0..5).map(|i| Arrival::new(0, i, 0)).collect(), 5);
        let mut oq = ShadowOq::new(5);
        let cells = t.cells(5);
        let mut log = RunLog::with_cells(&cells);
        oq.slot(0, &cells, &mut log);
        assert_eq!(oq.backlog_at(0), 4);
        assert_eq!(oq.max_occupancy(), 5); // before the departure, 5 were queued
        for now in 1..5 {
            oq.slot(now, &[], &mut log);
        }
        assert_eq!(oq.backlog(), 0);
        assert_eq!(log.max_delay(), Some(4));
    }

    #[test]
    fn run_drains_everything() {
        let t = trace(
            (0..100)
                .map(|s| Arrival::new(s, 0, (s % 4) as u32))
                .collect(),
            4,
        );
        let log = run_oq(&t, 4);
        assert_eq!(log.undelivered(), 0);
        // Load is 1/4 per output with no conflicts: all delays zero.
        assert_eq!(log.max_delay(), Some(0));
    }
}
