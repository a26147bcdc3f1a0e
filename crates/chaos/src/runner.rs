//! Lockstep four-engine execution of one chaos case.
//!
//! Every case drives the PPS under test, the shadow output-queued switch,
//! the crossbar (scheduler drawn per case from the zoo — iSLIP, QPS-r or
//! SW-QPS) and the CIOQ switch (policy drawn per case) through the *same*
//! arrival stream slot by slot. The PPS-side conservation ledger and the cell-pool
//! reconciliation run every slot (so a violation is caught at the slot it
//! happens, not at the end); the event-stream, flow-order, causality and
//! relative-delay oracles fold over the run once it finishes.
//!
//! Record at [`telemetry::Level::Full`] when running cases — the stream
//! oracles fold over the telemetry event log and see nothing otherwise
//! (the chaos CLI forces the level; library callers must do the same).

use crate::case::{ChaosCase, CrossbarChoice};
use crate::fuzz_demux::{FuzzBufferedDemux, FuzzDemux};
use pps_core::oracle::{self, ConservationLedger, OracleKind, OracleViolation};
use pps_core::stepping::{drive, earliest_of, SlotEngine};
use pps_core::telemetry::{self, Event};
use pps_core::{Cell, ModelError, RunLog, Slot, Stepping};
use pps_crossbar::{
    CioqSwitch, CrossbarScheduler, CrossbarSwitch, IslipArbiter, QpsRScheduler, SwQpsScheduler,
};
use pps_reference::ShadowOq;
use pps_switch::{BufferedPps, BufferlessPps, Fabric};
use pps_telemetry::{check_stream, StreamOracleConfig};
use pps_traffic::min_burstiness;
use std::sync::Arc;

/// iSLIP iteration count / CIOQ speedup for the comparison engines (the
/// scheduler and matching policy themselves are per-case draws).
const CROSSBAR_ITERATIONS: usize = 2;
const CIOQ_SPEEDUP: usize = 2;

/// Stop the run after this many slots without a single departure or
/// pending arrival anywhere — the signature of a watchdog-less PPS
/// stalled on a cell lost to a failed plane (a legal outcome, not a
/// violation: the backlog stays accounted for).
const STALL_WINDOW: Slot = 1024;

/// Knobs of one [`run_case`] invocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOpts {
    /// Keep the telemetry event stream in the outcome even when no oracle
    /// fires (the repro writer wants it; bulk fuzzing does not).
    pub keep_events: bool,
    /// Arm the test-only conservation-leak hook this many times before
    /// the run (each armed leak swallows one cell of a plane-failure
    /// flush without accounting for it). Used to prove the harness
    /// catches and shrinks a real conservation bug; 0 in normal runs.
    pub inject_leak: u32,
    /// Pin the lockstep loop's stepping mode instead of letting the case
    /// draw it from its seed ([`ChaosCase::stepping`]). Used by the
    /// dense/skip equivalence tests; `None` in normal campaigns.
    pub force_stepping: Option<Stepping>,
    /// Pin the engine's intra-run shard count instead of letting the case
    /// draw it from its seed ([`ChaosCase::intra_jobs`]). Used by the
    /// sharded/serial equivalence tests; `None` in normal campaigns.
    pub force_intra_jobs: Option<usize>,
    /// Pin the comparison CIOQ switch's speedup instead of the default
    /// [`CIOQ_SPEEDUP`]. Used by the speedup × fault interaction tests;
    /// `None` in normal campaigns.
    pub force_cioq_speedup: Option<usize>,
}

/// How a failed case failed — the signature the shrinker preserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// An invariant oracle fired.
    Oracle(OracleKind),
    /// The engine itself rejected the run (constraint violation, overflow).
    EngineError,
}

/// Everything one case run produces.
#[derive(Debug)]
pub struct CaseOutcome {
    /// Cells offered by the trace.
    pub cells: usize,
    /// Cells the PPS delivered.
    pub delivered: u64,
    /// Cells dropped at dispatch or flushed by plane failures.
    pub dropped: u64,
    /// Cells the resequencer watchdog skipped past.
    pub skipped: u64,
    /// Cells arriving after the watchdog gave up on them.
    pub late_dropped: u64,
    /// Last executed slot.
    pub end_slot: Slot,
    /// All oracle violations, sorted by (slot, kind, detail).
    pub violations: Vec<OracleViolation>,
    /// Fatal engine error, if the PPS rejected the run mid-flight.
    pub engine_error: Option<(Slot, String)>,
    /// The recorded event stream (kept on failure or on request).
    pub events: Option<Vec<Event>>,
}

impl CaseOutcome {
    /// Did any oracle or the engine itself object?
    pub fn failed(&self) -> bool {
        self.engine_error.is_some() || !self.violations.is_empty()
    }

    /// The failure signature: the earliest violation's kind, or
    /// [`FailureKind::EngineError`] if the engine died first.
    pub fn failure_kind(&self) -> Option<FailureKind> {
        match (&self.engine_error, self.violations.first()) {
            (Some((err_slot, _)), Some(v)) if v.slot <= *err_slot => {
                Some(FailureKind::Oracle(v.kind))
            }
            (Some(_), _) => Some(FailureKind::EngineError),
            (None, Some(v)) => Some(FailureKind::Oracle(v.kind)),
            (None, None) => None,
        }
    }

    /// Slot of the first failure (violation or engine error).
    pub fn failure_slot(&self) -> Option<Slot> {
        let v = self.violations.first().map(|v| v.slot);
        let e = self.engine_error.as_ref().map(|(s, _)| *s);
        match (v, e) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The comparison crossbar's scheduler, drawn per case from its seed
/// ([`ChaosCase::crossbar_sched`]) so the campaign exercises the whole
/// scheduler zoo in lockstep, not just iSLIP.
fn comparison_scheduler(case: &ChaosCase) -> Box<dyn CrossbarScheduler> {
    match case.crossbar_sched() {
        CrossbarChoice::Islip => Box::new(IslipArbiter::new(case.n, CROSSBAR_ITERATIONS)),
        CrossbarChoice::QpsR(r) => Box::new(QpsRScheduler::new(case.n, r, case.seed ^ 0x9B5)),
        CrossbarChoice::SwQps(w) => Box::new(SwQpsScheduler::new(case.n, w, case.seed ^ 0x5109)),
    }
}

/// The PPS under test, bufferless or buffered: a slot engine whose fabric
/// the per-slot oracles read.
trait PpsUnderTest: SlotEngine<Stop = ModelError> {
    fn fabric(&self) -> &Fabric;
}

impl PpsUnderTest for BufferlessPps<FuzzDemux> {
    fn fabric(&self) -> &Fabric {
        BufferlessPps::fabric(self)
    }
}

impl PpsUnderTest for BufferedPps<FuzzBufferedDemux> {
    fn fabric(&self) -> &Fabric {
        BufferedPps::fabric(self)
    }
}

/// Why the lockstep stopped before every engine drained.
enum Halt {
    /// The PPS rejected the run at this slot.
    Engine(Slot, ModelError),
    /// A per-slot oracle fired. Everything after a broken ledger is
    /// noise, and the shrinker wants the earliest slot.
    Violation(OracleViolation),
    /// Nothing progressed for [`STALL_WINDOW`] slots up to this one.
    Stalled(Slot),
}

/// The four engines in lockstep, checked by the per-slot PPS oracles (the
/// conservation ledger and the cell-pool reconciliation) — one
/// [`SlotEngine`] for the shared driver. The driver's log is the PPS log;
/// the comparison engines' logs live here.
struct Lockstep<E> {
    engine: E,
    oq: ShadowOq,
    xbar: CrossbarSwitch<Box<dyn CrossbarScheduler>>,
    cioq: CioqSwitch,
    oq_log: RunLog,
    xbar_log: RunLog,
    cioq_log: RunLog,
    /// Cells fed so far.
    arrivals: u64,
    /// PPS departures at the end of the last slot.
    delivered: u64,
    last_progress: Slot,
    last_other_backlog: usize,
    /// The driver's cap, also a wake-up: skips land on it, as on the
    /// stall window's end, so the slot there is processed as dense would.
    cap: Slot,
}

impl<E: PpsUnderTest> SlotEngine for Lockstep<E> {
    type Stop = Halt;

    fn slot(&mut self, now: Slot, arrivals: &[Cell], pps_log: &mut RunLog) -> Result<(), Halt> {
        self.arrivals += arrivals.len() as u64;
        self.engine
            .slot(now, arrivals, pps_log)
            .map_err(|e| Halt::Engine(now, e))?;
        let Ok(()) = self.oq.slot(now, arrivals, &mut self.oq_log);
        let Ok(()) = self.xbar.slot(now, arrivals, &mut self.xbar_log);
        let Ok(()) = self.cioq.slot(now, arrivals, &mut self.cioq_log);

        let fabric = self.engine.fabric();
        let stats = fabric.stats();
        let departed = fabric.departed();
        let ledger = ConservationLedger {
            arrivals: self.arrivals,
            departures: departed,
            backlog: self.engine.backlog() as u64,
            dropped: stats.dropped,
            late_dropped: stats.late_dropped,
        };
        let pool_len = fabric.pool().len() as u64;
        if let Some(v) = ledger
            .check(now)
            .or_else(|| oracle::check_pool_occupancy(pool_len, self.arrivals, now))
        {
            return Err(Halt::Violation(v));
        }

        let other_backlog = self.oq.backlog() + self.xbar.backlog() + self.cioq.backlog();
        if !arrivals.is_empty()
            || departed > self.delivered
            || other_backlog < self.last_other_backlog
        {
            self.last_progress = now;
        }
        self.last_other_backlog = other_backlog;
        self.delivered = departed;
        if now - self.last_progress > STALL_WINDOW {
            return Err(Halt::Stalled(now));
        }
        Ok(())
    }

    /// `last_other_backlog` is the comparison engines' backlog as of the
    /// end of the last slot (zero before the first), and a skip moves none
    /// of it.
    fn backlog(&self) -> usize {
        self.engine.backlog() + self.last_other_backlog
    }

    fn next_activity(&self, now: Slot) -> Option<Slot> {
        let stall = self.last_progress + STALL_WINDOW + 1;
        earliest_of([
            self.engine.next_activity(now),
            self.oq.next_activity(now),
            self.xbar.next_activity(now),
            self.cioq.next_activity(now),
            Some(stall.min(self.cap)),
        ])
    }

    fn skip_idle(&mut self, from: Slot, to: Slot) {
        self.engine.skip_idle(from, to);
        self.oq.skip_idle(from, to);
        self.xbar.skip_idle(from, to);
        self.cioq.skip_idle(from, to);
    }
}

/// Run one case through all four engines and every oracle.
pub fn run_case(case: &ChaosCase, opts: RunOpts) -> CaseOutcome {
    let trace = case.trace();
    let cells = trace.cells(case.n);

    let ((mut outcome, pps_log, oq_log), log) =
        telemetry::collect(format!("chaos/{}", case.index), || {
            lockstep(case, opts, &cells)
        });

    // Fold the stream oracles over everything the run recorded. A single
    // scope was active, so flatten() yields one chronological stream.
    let events: Vec<Event> = log
        .flatten()
        .iter()
        .flat_map(|(_, es)| es.iter().copied())
        .collect();
    let cfg = StreamOracleConfig {
        n: case.n,
        k: case.k,
        r_prime: case.r_prime,
        info_delay: case.demux.info_delay(),
        plan: Some(&case.plan),
        check_down_dispatch: case.demux.info_delay().is_some() && case.buffer == 0,
        // With recording off there are no WatchdogDrop events to reconcile.
        expected_skipped: if events.is_empty() {
            None
        } else {
            Some(outcome.skipped)
        },
    };
    outcome.violations.extend(check_stream(&events, &cfg));

    // Per-flow order and causality on every engine's run log.
    for log in [&pps_log, &oq_log] {
        outcome.violations.extend(oracle::check_flow_order(log));
        outcome.violations.extend(oracle::check_causality(log));
    }

    // Paper bound: relative delay vs the shadow OQ, for cases where the
    // Section 3 envelope is actually a theorem (see the eligibility doc).
    if case.relative_delay_eligible() {
        let b = min_burstiness(&trace, case.n).overall();
        let bound = (case.r_prime as u64) * (case.n as u64 + case.k as u64 + b) + 64;
        outcome
            .violations
            .extend(oracle::check_relative_delay(&pps_log, &oq_log, bound));
    }

    outcome
        .violations
        .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    if opts.keep_events || outcome.failed() {
        outcome.events = Some(events);
    }
    outcome
}

/// Materialize the case's PPS with its fault plan, shard count and armed
/// conservation leaks, and run it in lockstep.
fn lockstep(case: &ChaosCase, opts: RunOpts, cells: &[Cell]) -> (CaseOutcome, RunLog, RunLog) {
    let intra_jobs = opts.force_intra_jobs.unwrap_or_else(|| case.intra_jobs());
    let (cfg, plan) = (case.config(), Arc::new(case.plan.clone()));
    if case.buffer == 0 {
        let demux = FuzzDemux::build(case.demux, case.n, case.k, case.r_prime, case.seed);
        let engine = BufferlessPps::new(cfg, demux).and_then(|mut e| {
            e.set_fault_plan_shared(plan)?;
            e.set_intra_jobs(intra_jobs);
            (0..opts.inject_leak).for_each(|_| e.inject_conservation_leak());
            Ok(e)
        });
        run_lockstep(case, opts, cells, engine)
    } else {
        let demux = FuzzBufferedDemux::build(case.demux, case.n, case.k, case.r_prime);
        let engine = BufferedPps::new(cfg, demux).and_then(|mut e| {
            e.set_fault_plan_shared(plan)?;
            e.set_intra_jobs(intra_jobs);
            (0..opts.inject_leak).for_each(|_| e.inject_conservation_leak());
            Ok(e)
        });
        run_lockstep(case, opts, cells, engine)
    }
}

/// Drive the four engines in lockstep. Returns the outcome skeleton plus
/// the PPS and OQ run logs (the crossbar/CIOQ logs are checked inside and dropped — only
/// the PPS/OQ pair feeds the relative-delay oracle).
fn run_lockstep<E: PpsUnderTest>(
    case: &ChaosCase,
    opts: RunOpts,
    cells: &[Cell],
    engine: Result<E, ModelError>,
) -> (CaseOutcome, RunLog, RunLog) {
    let mut outcome = CaseOutcome {
        cells: cells.len(),
        delivered: 0,
        dropped: 0,
        skipped: 0,
        late_dropped: 0,
        end_slot: 0,
        violations: Vec::new(),
        engine_error: None,
        events: None,
    };

    let mut pps_log = RunLog::with_cells(cells);
    let engine = match engine {
        Ok(e) => e,
        Err(e) => {
            outcome.engine_error = Some((0, e.to_string()));
            return (outcome, pps_log, RunLog::with_cells(cells));
        }
    };
    let speedup = opts.force_cioq_speedup.unwrap_or(CIOQ_SPEEDUP);
    // Hard ceiling on run length: arrivals plus a full serialized drain of
    // every cell would still finish well inside this.
    let cap = case.horizon
        + (cells.len() as Slot + 1) * (case.r_prime as Slot + 1)
        + case.plan.horizon()
        + 512;
    let mut ls = Lockstep {
        engine,
        oq: ShadowOq::new(case.n),
        xbar: CrossbarSwitch::with_scheduler(case.n, comparison_scheduler(case)),
        cioq: CioqSwitch::with_policy(case.n, speedup, case.cioq_policy()),
        oq_log: RunLog::with_cells(cells),
        xbar_log: RunLog::with_cells(cells),
        cioq_log: RunLog::with_cells(cells),
        arrivals: 0,
        delivered: 0,
        last_progress: 0,
        last_other_backlog: 0,
        cap,
    };
    let stepping = opts.force_stepping.unwrap_or_else(|| case.stepping());

    // The report records the last slot processed; a drive records the
    // slot after it.
    let now = match drive(&mut ls, cells, &mut pps_log, stepping, cap) {
        Ok(d) => d.end_slot.saturating_sub(1),
        Err(Halt::Engine(at, e)) => {
            outcome.engine_error = Some((at, e.to_string()));
            at
        }
        Err(Halt::Violation(v)) => {
            let at = v.slot;
            outcome.violations.push(v);
            at
        }
        Err(Halt::Stalled(at)) => at,
    };

    let stats = ls.engine.fabric().stats();
    outcome.delivered = ls.engine.fabric().departed();
    outcome.dropped = stats.dropped;
    outcome.skipped = stats.skipped;
    outcome.late_dropped = stats.late_dropped;
    outcome.end_slot = now;

    // End-of-run conservation for the fault-free comparison engines:
    // whatever the log says was never delivered must still be queued.
    // Only meaningful when the run fed every arrival and stopped on its
    // own — a per-slot violation or engine error aborts mid-stream, and
    // the leftover cells are the abort's doing, not the engines'.
    let clean_stop = outcome.engine_error.is_none()
        && outcome.violations.is_empty()
        && ls.arrivals == cells.len() as u64;
    for (name, log, backlog) in [
        ("shadow-oq", &ls.oq_log, ls.oq.backlog()),
        ("crossbar", &ls.xbar_log, ls.xbar.backlog()),
        ("cioq", &ls.cioq_log, ls.cioq.backlog()),
    ] {
        if !clean_stop {
            break;
        }
        if log.undelivered() != backlog {
            outcome.violations.push(OracleViolation {
                kind: OracleKind::Conservation,
                slot: now,
                detail: format!(
                    "{name}: {} cells unaccounted (log undelivered {} vs backlog {backlog})",
                    log.undelivered().abs_diff(backlog),
                    log.undelivered(),
                ),
            });
        }
    }
    outcome
        .violations
        .extend(oracle::check_flow_order(&ls.xbar_log));
    outcome
        .violations
        .extend(oracle::check_causality(&ls.xbar_log));
    outcome
        .violations
        .extend(oracle::check_flow_order(&ls.cioq_log));
    outcome
        .violations
        .extend(oracle::check_causality(&ls.cioq_log));

    (outcome, pps_log, ls.oq_log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ChaosCase;

    #[test]
    fn clean_case_has_no_violations() {
        let case = ChaosCase::generate(42, 0, 64);
        let out = run_case(&case, RunOpts::default());
        assert_eq!(out.engine_error, None);
        assert!(
            out.violations.is_empty(),
            "unexpected violations: {:?}",
            out.violations
        );
        assert!(out.cells > 0);
    }

    #[test]
    fn stochastic_cases_run_clean() {
        // One Zipf and one MMPP case, fault-free so every oracle that can
        // be armed is armed, each through the full four-engine lockstep.
        use crate::case::TrafficChoice;
        let mut ran = (false, false);
        for i in 0..512 {
            let case = ChaosCase::generate(1337, i, 96);
            if !case.plan.is_empty() {
                continue;
            }
            let slot = match case.traffic {
                TrafficChoice::Zipf { .. } if !ran.0 => &mut ran.0,
                TrafficChoice::Mmpp { .. } if !ran.1 => &mut ran.1,
                _ => continue,
            };
            *slot = true;
            let out = run_case(&case, RunOpts::default());
            assert_eq!(out.engine_error, None, "case {i}");
            assert!(out.violations.is_empty(), "case {i}: {:?}", out.violations);
            assert!(out.cells > 0, "case {i} generated no cells");
            if ran.0 && ran.1 {
                return;
            }
        }
        panic!("corpus lacked fault-free stochastic cases: {ran:?}");
    }

    #[test]
    fn cioq_speedup_by_fault_pulse_stays_clean() {
        // Satellite of the scheduler-zoo PR: a PlaneDown/LinkDegraded
        // pulse mid-run must keep the conservation ledger and the watchdog
        // accounting clean at CIOQ speedup 1 *and* 2, under both matching
        // policies (the policy is a seed draw, so scan for one seed per
        // policy) and both stepping modes.
        use crate::case::{DemuxChoice, TrafficChoice};
        use pps_core::fault::FaultPlan;
        use pps_core::OutputDiscipline;
        use pps_traffic::gen::TrafficPattern;

        let pulse_case = |seed: u64| ChaosCase {
            index: 0,
            seed,
            n: 8,
            k: 4,
            r_prime: 2,
            buffer: 0,
            discipline: OutputDiscipline::FlowFifo,
            watchdog: Some(10),
            demux: DemuxChoice::FaultAwareCentralized,
            traffic: TrafficChoice::Bernoulli {
                pattern: TrafficPattern::Uniform,
            },
            load_millis: 600,
            horizon: 128,
            plan: FaultPlan::new()
                .plane_down(1, 40)
                .plane_up(1, 72)
                .link_degraded(2, 0, 48, 56),
            truncate_at: None,
        };

        // One seed per CIOQ matching policy.
        let mut seeds = std::collections::HashMap::new();
        for s in 0..64u64 {
            seeds.entry(pulse_case(s).cioq_policy()).or_insert(s);
            if seeds.len() == 2 {
                break;
            }
        }
        assert_eq!(seeds.len(), 2, "no seed drew the second policy");

        for (&policy, &seed) in &seeds {
            let case = pulse_case(seed);
            for speedup in [1usize, 2] {
                let mut tallies = Vec::new();
                for stepping in [Stepping::Dense, Stepping::SkipAhead] {
                    let out = run_case(
                        &case,
                        RunOpts {
                            force_cioq_speedup: Some(speedup),
                            force_stepping: Some(stepping),
                            ..RunOpts::default()
                        },
                    );
                    assert_eq!(out.engine_error, None, "{policy:?} s={speedup}");
                    assert!(
                        out.violations.is_empty(),
                        "{policy:?} s={speedup} {stepping:?}: {:?}",
                        out.violations
                    );
                    // The pulse actually bit (the downed plane flushed
                    // cells) and every cell is accounted for at the end:
                    // delivered, dropped at the flush, or dropped late by
                    // the watchdog — nothing stranded in a backlog.
                    assert!(out.dropped > 0, "{policy:?} s={speedup}: pulse missed");
                    assert_eq!(
                        out.delivered + out.dropped + out.late_dropped,
                        out.cells as u64,
                        "{policy:?} s={speedup} {stepping:?}: watchdog accounting leaked"
                    );
                    tallies.push((
                        out.delivered,
                        out.dropped,
                        out.skipped,
                        out.late_dropped,
                        out.end_slot,
                    ));
                }
                assert_eq!(
                    tallies[0], tallies[1],
                    "{policy:?} s={speedup}: dense != skip"
                );
            }
        }
    }

    #[test]
    fn buffered_zoo_cases_run_clean() {
        // The step-8 remap introduces stale and delayed-CPA buffered
        // automata; every such case in a campaign-sized corpus must pass
        // the full four-engine lockstep.
        let mut seen = (0, 0);
        for i in 0..768 {
            let case = ChaosCase::generate(21, i, 96);
            match case.demux {
                crate::case::DemuxChoice::BufferedStale(..) => seen.0 += 1,
                crate::case::DemuxChoice::DelayedCpa(_) => seen.1 += 1,
                _ => continue,
            }
            let out = run_case(&case, RunOpts::default());
            assert_eq!(out.engine_error, None, "case {i} ({})", case.demux.name());
            assert!(
                out.violations.is_empty(),
                "case {i} ({}): {:?}",
                case.demux.name(),
                out.violations
            );
            if seen.0 >= 8 && seen.1 >= 1 {
                return;
            }
        }
        panic!("corpus lacked buffered-zoo cases: {seen:?}");
    }

    #[test]
    fn injected_leak_trips_conservation() {
        // The leak hook fires in the plane-failure flush path, so it needs
        // a case whose downed plane holds cells at the failure slot — scan
        // generated cases until one trips (the vast majority of PlaneDown
        // cases under load do).
        let tripped = (0..512)
            .map(|i| ChaosCase::generate(7, i, 96))
            .filter(|c| {
                c.buffer == 0
                    && c.plan
                        .events()
                        .iter()
                        .any(|e| matches!(e, pps_core::FaultEvent::PlaneDown { .. }))
            })
            .take(16)
            .any(|case| {
                let out = run_case(
                    &case,
                    RunOpts {
                        inject_leak: 1,
                        ..RunOpts::default()
                    },
                );
                out.failure_kind() == Some(FailureKind::Oracle(OracleKind::Conservation))
            });
        assert!(tripped, "no scanned case tripped the injected leak");
    }
}
