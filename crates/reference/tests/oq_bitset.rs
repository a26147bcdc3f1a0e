//! The shadow OQ visits only non-empty outputs, through a bitset of 64-bit
//! words. These tests pin that the bitset walk is the full per-output scan
//! it replaced: departures match the closed-form FCFS times at port counts
//! on and around a word boundary, under both stepping modes, and one
//! slot's `Depart` events come out in ascending port order.

use pps_core::prelude::*;
use pps_core::stepping::{drive, Stepping};
use pps_core::telemetry::{self, Engine, EventKind, Level};
use pps_reference::oq::{fcfs_departure_times, run_oq, ShadowOq};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Two busy epochs separated by an idle gap. Three of every four cells go
/// to a hot output — ports 0, 62, 63, 64, 65 and `n − 1`, so both sides of
/// the first word boundary queue up at once — and each epoch opens with a
/// whole-switch burst onto one hot output.
fn trace(n: usize, seed: u64) -> Trace {
    let hot: Vec<u32> = [0, 62, 63, 64, 65, n - 1]
        .into_iter()
        .filter(|&j| j < n)
        .map(|j| j as u32)
        .collect();
    let mut state = seed;
    let mut arrivals = Vec::new();
    for start in [0u64, 5_000] {
        let burst = hot[(start as usize / 5_000 + 1) % hot.len()];
        for i in 0..n as u32 {
            arrivals.push(Arrival::new(start, i, burst));
        }
        for slot in start + 1..start + 100 {
            for i in 0..n as u32 {
                if !lcg(&mut state).is_multiple_of(8) {
                    continue;
                }
                let output = if lcg(&mut state).is_multiple_of(4) {
                    (lcg(&mut state) % n as u64) as u32
                } else {
                    hot[(lcg(&mut state) % hot.len() as u64) as usize]
                };
                arrivals.push(Arrival::new(slot, i, output));
            }
        }
    }
    Trace::build(arrivals, n).expect("one cell per input per slot")
}

#[test]
fn bitset_walk_matches_closed_form_fcfs_in_both_stepping_modes() {
    for n in [1usize, 63, 64, 65, 1024] {
        let t = trace(n, n as u64 + 7);
        let cells = t.cells(n);
        let expected = fcfs_departure_times(&t, n);
        let mut ends = Vec::new();
        for mode in [Stepping::Dense, Stepping::SkipAhead] {
            let mut oq = ShadowOq::new(n);
            let mut log = RunLog::with_cells(&cells);
            let Ok(run) = drive(&mut oq, &cells, &mut log, mode, Slot::MAX);
            assert!(!run.truncated, "n={n} {mode:?}: an OQ always drains");
            assert_eq!(oq.backlog(), 0, "n={n} {mode:?}");
            for rec in log.records() {
                assert_eq!(
                    rec.departure,
                    Some(expected[rec.id.idx()]),
                    "n={n} {mode:?}: cell {:?} to output {:?}",
                    rec.id,
                    rec.output
                );
            }
            ends.push(run.end_slot);
        }
        assert_eq!(ends[0], ends[1], "n={n}: modes end on different slots");
        let log = run_oq(&t, n);
        assert!(log
            .records()
            .iter()
            .all(|r| r.departure == Some(expected[r.id.idx()])));
    }
}

#[test]
fn one_slots_departures_are_recorded_in_ascending_port_order() {
    // Outputs spread over three words, fed in an input order that is not
    // port order; output 129 gets two cells, so it also departs in slot 1.
    let n = 130;
    let outputs = [129u32, 64, 0, 63, 1, 129, 127];
    let t = Trace::build(
        outputs
            .iter()
            .enumerate()
            .map(|(i, &j)| Arrival::new(0, i as u32, j))
            .collect(),
        n,
    )
    .expect("trace");

    telemetry::set_level(Level::Full);
    let (log, events) = telemetry::collect("oq-depart-order", || run_oq(&t, n));
    telemetry::set_level(Level::Off);
    assert_eq!(log.undelivered(), 0);

    let departs = |slot: Slot| -> Vec<u32> {
        events
            .events
            .iter()
            .filter(|e| e.engine == Engine::ShadowOq && e.slot == slot)
            .filter_map(|e| match e.kind {
                EventKind::Depart { output, .. } => Some(output.0),
                _ => None,
            })
            .collect()
    };
    assert_eq!(departs(0), vec![0, 1, 63, 64, 127, 129]);
    assert_eq!(departs(1), vec![129]);
}
