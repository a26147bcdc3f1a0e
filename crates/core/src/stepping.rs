//! Slot-stepping policy: dense lockstep vs event-driven skip-ahead.
//!
//! Every engine in the workspace historically advanced `now` one slot at a
//! time, paying a full loop iteration even when nothing was in flight.
//! Skip-ahead stepping (DESIGN.md §15) instead asks every time-bearing
//! component for its *next activity slot* — the next scripted arrival, the
//! earliest plane-service event, a resequencer watchdog expiry, the next
//! fault activation — and jumps `now` to the minimum, replaying the skipped
//! interval's effects in closed form. The two modes are **byte-identical**
//! in everything observable (run logs, statistics, telemetry traces,
//! oracle verdicts); they differ only in wall clock and in how the
//! [`crate::perf`] meters split slots between `simulated` and `skipped`.
//!
//! The process-wide default is [`Stepping::SkipAhead`]; the dense loop
//! stays available behind `ppslab --stepping dense` (and per-engine
//! setters) for paranoia runs and for the equivalence harness that pits
//! the two against each other.
//!
//! Every engine runs on the one slot loop here: it implements
//! [`SlotEngine`] and hands itself to [`drive`], which owns arrival
//! batching, the end-of-run test, the livelock cap, and the skip-ahead
//! jump.

use crate::cell::Cell;
use crate::record::RunLog;
use crate::time::Slot;
use std::sync::atomic::{AtomicBool, Ordering};

/// How an engine's run loop advances time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Stepping {
    /// Classic lockstep: `now` increments by one every iteration, idle
    /// slots included.
    Dense,
    /// Event-driven: `now` jumps to the earliest next-activity slot
    /// reported by any component, with skipped intervals replayed in
    /// closed form. The default.
    #[default]
    SkipAhead,
}

impl Stepping {
    /// Parse a CLI spelling (`dense`, `skip` / `skip-ahead`).
    pub fn parse(s: &str) -> Option<Stepping> {
        match s {
            "dense" => Some(Stepping::Dense),
            "skip" | "skip-ahead" | "skipahead" => Some(Stepping::SkipAhead),
            _ => None,
        }
    }

    /// Short stable name (report lines, bench ids).
    pub fn name(self) -> &'static str {
        match self {
            Stepping::Dense => "dense",
            Stepping::SkipAhead => "skip",
        }
    }
}

/// `true` while the process default is [`Stepping::Dense`].
static DEFAULT_DENSE: AtomicBool = AtomicBool::new(false);

/// Set the process-wide default stepping mode. Engines read it once at
/// construction (so a mid-run flip cannot desynchronize a run); per-engine
/// setters override it. Drivers (`ppslab --stepping`) call this before
/// building anything.
pub fn set_process_default(mode: Stepping) {
    DEFAULT_DENSE.store(mode == Stepping::Dense, Ordering::Relaxed);
}

/// The process-wide default stepping mode (see [`set_process_default`]).
pub fn process_default() -> Stepping {
    if DEFAULT_DENSE.load(Ordering::Relaxed) {
        Stepping::Dense
    } else {
        Stepping::SkipAhead
    }
}

/// Fold two optional next-activity slots into the earlier one — the
/// reduction every engine's `next_activity` performs over its components.
#[inline]
pub fn earliest(a: Option<Slot>, b: Option<Slot>) -> Option<Slot> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Fold any number of optional next-activity slots into the earliest one —
/// the min-reduce a sharded fabric performs over its per-shard agendas to
/// size a joint skip-ahead jump window (every shard must be willing to
/// sleep through the whole gap).
#[inline]
pub fn earliest_of(items: impl IntoIterator<Item = Option<Slot>>) -> Option<Slot> {
    items.into_iter().fold(None, earliest)
}

/// A switch that advances on the shared slotted clock, one [`slot`] at a
/// time, under [`drive`].
///
/// Metering is the engine's job, not the driver's: `slot` records the
/// slots the engine simulates and `skip_idle` the slots it elides (see
/// [`crate::perf`]), so each engine decides what it counts.
///
/// [`slot`]: SlotEngine::slot
pub trait SlotEngine {
    /// Why a run stops before it drains: a model error, an oracle verdict.
    type Stop;

    /// Process slot `now`: accept `arrivals` (every one arriving at
    /// `now`, sorted by input port), serve, and record departures into
    /// `log`.
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), Self::Stop>;

    /// Cells still inside the engine. The run ends once this is zero and
    /// no arrival is left.
    fn backlog(&self) -> usize;

    /// The next slot strictly after `now` at which the engine does
    /// anything beyond what [`skip_idle`](Self::skip_idle) replays,
    /// ignoring future arrivals (the driver owns the arrival stream).
    /// `None` means quiescent until the next arrival. Waking early is
    /// always safe; waking late is not.
    fn next_activity(&self, now: Slot) -> Option<Slot>;

    /// Replay the dense walk's per-slot effects over the idle interval
    /// `[from, to]` in closed form, metering it as skipped. Called only
    /// for intervals with no arrival that end before the slot
    /// [`next_activity`](Self::next_activity) reported.
    fn skip_idle(&mut self, from: Slot, to: Slot);
}

/// How a [`drive`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Drive {
    /// Slot after the last one processed (the run's horizon).
    pub end_slot: Slot,
    /// The livelock cap stopped the run with cells still queued or
    /// arrivals still unfed.
    pub truncated: bool,
}

/// Run `engine` over `cells` (sorted by arrival slot) from slot 0 until
/// every cell has arrived and the backlog drains, or until slot `cap` has
/// been processed.
///
/// Under [`Stepping::SkipAhead`], whenever the next arrival is not due,
/// `now` jumps to the earlier of that arrival and the engine's
/// [`next_activity`](SlotEngine::next_activity), clamped to `cap + 1`
/// (the dense walk processes idle slots through the cap, so the jump
/// lands one past it at most). Both modes end on the same [`Drive`].
pub fn drive<E: SlotEngine>(
    engine: &mut E,
    cells: &[Cell],
    log: &mut RunLog,
    mode: Stepping,
    cap: Slot,
) -> Result<Drive, E::Stop> {
    let mut next = 0usize;
    let mut now: Slot = 0;
    let mut pending = !cells.is_empty() || engine.backlog() > 0;
    while pending {
        if now > cap {
            return Ok(Drive {
                end_slot: now,
                truncated: true,
            });
        }
        let start = next;
        while next < cells.len() && cells[next].arrival == now {
            next += 1;
        }
        engine.slot(now, &cells[start..next], log)?;
        let next_arrival = cells.get(next).map(|c| c.arrival);
        pending = next_arrival.is_some() || engine.backlog() > 0;
        if pending && mode == Stepping::SkipAhead && next_arrival != Some(now + 1) {
            let wake = engine.next_activity(now);
            // The overshoot check: a wake-up at or before the slot just
            // processed means the clock already ran past pending work.
            debug_assert!(
                wake.is_none_or(|w| w > now),
                "next_activity({now}) reported {wake:?}: the clock overshot it"
            );
            let stop = earliest(next_arrival, wake)
                .unwrap_or(Slot::MAX)
                .min(cap.saturating_add(1));
            if stop > now + 1 {
                engine.skip_idle(now + 1, stop - 1);
                now = stop;
                continue;
            }
        }
        now += 1;
    }
    Ok(Drive {
        end_slot: now,
        truncated: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(Stepping::parse("dense"), Some(Stepping::Dense));
        assert_eq!(Stepping::parse("skip"), Some(Stepping::SkipAhead));
        assert_eq!(Stepping::parse("skip-ahead"), Some(Stepping::SkipAhead));
        assert_eq!(Stepping::parse("bogus"), None);
        assert_eq!(Stepping::default(), Stepping::SkipAhead);
    }

    #[test]
    fn earliest_folds_options() {
        assert_eq!(earliest(None, None), None);
        assert_eq!(earliest(Some(3), None), Some(3));
        assert_eq!(earliest(None, Some(7)), Some(7));
        assert_eq!(earliest(Some(9), Some(7)), Some(7));
    }

    #[test]
    fn earliest_of_reduces_iterators() {
        assert_eq!(earliest_of([]), None);
        assert_eq!(earliest_of([None, None]), None);
        assert_eq!(earliest_of([None, Some(5), Some(2), None]), Some(2));
    }

    use crate::trace::{Arrival, Trace};

    /// A delay line: every cell departs exactly `delay` slots after it
    /// arrives. Its skip replay asserts that no arrival and no release
    /// falls inside a skipped interval.
    struct DelayLine {
        delay: Slot,
        /// `(release slot, cell)` of every cell inside.
        held: Vec<(Slot, crate::ids::CellId)>,
        arrivals: Vec<Slot>,
        /// Report a wake-up at the slot just processed (an overshoot).
        early: bool,
        /// Slots processed.
        visited: Vec<Slot>,
    }

    impl SlotEngine for DelayLine {
        type Stop = ();

        fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), ()> {
            self.visited.push(now);
            let release = now + self.delay;
            self.held.extend(arrivals.iter().map(|c| (release, c.id)));
            assert!(self.held.iter().all(|&(at, _)| at >= now), "missed");
            for &(_, id) in self.held.iter().filter(|&&(at, _)| at == now) {
                log.set_departure(id, now);
            }
            self.held.retain(|&(at, _)| at != now);
            Ok(())
        }

        fn backlog(&self) -> usize {
            self.held.len()
        }

        fn next_activity(&self, now: Slot) -> Option<Slot> {
            let wake = self.held.iter().map(|&(at, _)| at).min();
            if self.early {
                Some(now)
            } else {
                wake
            }
        }

        fn skip_idle(&mut self, from: Slot, to: Slot) {
            let gap = from..=to;
            assert!(!gap.is_empty());
            assert!(
                !self.arrivals.iter().any(|a| gap.contains(a)),
                "crossed an arrival"
            );
            assert!(
                self.held.iter().all(|&(at, _)| at > to),
                "crossed a wake-up"
            );
        }
    }

    /// Drive a fresh `delay` line over cells arriving at `slots`.
    fn run(delay: Slot, slots: &[Slot], mode: Stepping, cap: Slot) -> (Drive, DelayLine, RunLog) {
        let arrivals = (0..slots.len())
            .map(|i| Arrival::new(slots[i], i as u32 % 2, 0))
            .collect();
        let cells = Trace::build(arrivals, 2).unwrap().cells(2);
        let mut line = DelayLine {
            delay,
            held: Vec::new(),
            arrivals: slots.to_vec(),
            early: delay == 0,
            visited: Vec::new(),
        };
        let mut log = RunLog::with_cells(&cells);
        let out = drive(&mut line, &cells, &mut log, mode, cap).unwrap();
        (out, line, log)
    }

    #[test]
    fn dense_and_skip_end_alike_and_skip_visits_only_events() {
        let slots = [0, 0, 5, 40, 41, 300];
        let (dense, dline, dlog) = run(7, &slots, Stepping::Dense, 10_000);
        let (skip, sline, slog) = run(7, &slots, Stepping::SkipAhead, 10_000);
        assert_eq!(dense, skip);
        assert_eq!((dense.end_slot, dense.truncated), (308, false));
        assert_eq!(dline.visited, (0..308).collect::<Vec<_>>());
        // Arrivals and releases, nothing in between.
        assert_eq!(sline.visited, [0, 5, 7, 12, 40, 41, 47, 48, 300, 307]);
        assert_eq!(dlog.records(), slog.records());
        assert_eq!(slog.undelivered(), 0);
    }

    #[test]
    fn a_never_draining_engine_stops_one_past_the_cap() {
        // Releases land far past the cap of 50, and so does the second
        // arrival: both modes end at 51, truncated.
        for (slots, mode) in [
            ([0, 3], Stepping::Dense),
            ([0, 3], Stepping::SkipAhead),
            ([0, 90], Stepping::SkipAhead),
        ] {
            let (out, line, log) = run(1_000, &slots, mode, 50);
            if mode == Stepping::SkipAhead {
                // The jump lands one past the cap: no idle slot is walked.
                assert!(line.visited.iter().all(|t| slots.contains(t)));
            }
            assert_eq!(
                (out.end_slot, out.truncated),
                (51, true),
                "{slots:?} {mode:?}"
            );
            assert_eq!(log.undelivered(), 2);
        }
    }

    #[test]
    fn an_empty_trace_runs_zero_slots() {
        for mode in [Stepping::Dense, Stepping::SkipAhead] {
            let (out, line, _) = run(3, &[], mode, 100);
            assert_eq!((out.end_slot, out.truncated), (0, false));
            assert!(line.visited.is_empty());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overshot")]
    fn a_wake_up_already_passed_trips_the_overshoot_check() {
        // A zero-delay line reports every wake-up at the slot just
        // processed.
        run(0, &[0, 20], Stepping::SkipAhead, 1_000);
    }
}
