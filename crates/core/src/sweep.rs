//! Deterministic work-stealing executor for declared point lists.
//!
//! Every experiment in this workspace is a sweep: the same measurement at
//! a list of parameter points (`N`, `K`, `u`, buffer caps, seeds, …), each
//! point a self-contained simulation. [`SweepPlan`] makes that structure
//! explicit — callers declare their points as data and a closure computing
//! one point — so execution strategy becomes the executor's business, not
//! the runner's. The executor lived in `pps_experiments::sweep` through
//! PR 5; it moved here (next to the [`crate::workers`] budget it drains)
//! so crates below the experiment layer — notably the chaos harness, whose
//! cases are exactly such a point list — can share it without a dependency
//! cycle. `pps_experiments::sweep` re-exports everything, so experiment
//! code is unaffected.
//!
//! ## Determinism contract
//!
//! A sweep's result is a `Vec` in **declared point order**, and each point
//! is computed only from `(index, seed, params)` — never from another
//! point's result or from anything scheduling-dependent. The executor may
//! compute points on any thread in any order (work-stealing over an atomic
//! cursor), but the merged output is the same `Vec` the serial loop would
//! have produced, so every rendered table is byte-identical whatever
//! `--jobs` says. Cross-point assertions (monotonicity checks and the
//! like) run *after* the merge, over the ordered results.
//!
//! ## Seed derivation
//!
//! Randomized points draw their seed from [`SweepPoint::seed`], an FNV-1a
//! hash of the plan id and the point index. The seed depends only on those
//! two stable strings — never on thread identity, timing, or job count —
//! so a point's traffic is reproducible in isolation: the same `(id,
//! index)` always sees the same seed. (Experiments that predate the
//! executor and bake literal seeds into their params keep them; the hash
//! is for new sweeps that would otherwise reach for `index as u64`.)
//!
//! ## Job budget
//!
//! One process-wide budget ([`crate::workers::set_jobs`]) caps the *total*
//! number of worker threads across every concurrently running sweep,
//! including the registry-level sweep `ppslab` itself uses to run whole
//! experiments in parallel. Each executor keeps the calling thread and
//! leases extra workers from the shared budget only while it has points
//! left, so nested sweeps (experiments inside the registry sweep, chaos
//! cases inside a chaos run) never oversubscribe: at most `jobs` threads
//! make progress at any instant.

use crate::telemetry::{self, EventLog};
use crate::workers::{jobs, lease_worker, release_worker};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Deterministic per-point seed: FNV-1a over the plan id and point index.
/// Stable across runs, platforms, and job counts.
pub fn point_seed(id: &str, index: usize) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in id.bytes().chain((index as u64).to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// One point of a sweep, as seen by the point closure.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint<'a, P> {
    /// Position in the declared point list (also the result position).
    pub index: usize,
    /// Deterministic seed derived from the plan id and `index`.
    pub seed: u64,
    /// The declared parameters of this point.
    pub params: &'a P,
}

/// A declared sweep: an id (for seed derivation and diagnostics) plus the
/// ordered list of parameter points.
#[derive(Clone, Debug)]
pub struct SweepPlan<P> {
    id: &'static str,
    points: Vec<P>,
}

impl<P> SweepPlan<P> {
    /// Declare a sweep over `points`, in the order results are wanted.
    pub fn new(id: &'static str, points: Vec<P>) -> Self {
        SweepPlan { id, points }
    }

    /// The plan id.
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// The declared points, in order.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Execute every point and return the results in declared order.
    ///
    /// The calling thread always participates; up to `jobs() - 1` extra
    /// workers are leased from the process-wide budget while points
    /// remain. `f` must compute a point from its [`SweepPoint`] alone —
    /// see the module docs for the determinism contract.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(SweepPoint<'_, P>) -> R + Sync,
    {
        let n = self.points.len();
        if n == 0 {
            return Vec::new();
        }
        // At `--telemetry full`, every point gets its own recording scope
        // on whichever worker computes it; the captured logs travel back
        // through the result channel and are absorbed *in declared point
        // order* below, so the merged event bundle — like the tables — is
        // byte-identical at any job count.
        let tracing = telemetry::level() == telemetry::Level::Full;
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R, Option<EventLog>)>();
        let work = |tx: mpsc::Sender<(usize, R, Option<EventLog>)>| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let point = SweepPoint {
                index: i,
                seed: point_seed(self.id, i),
                params: &self.points[i],
            };
            let (r, log) = if tracing {
                let (r, log) = telemetry::collect(format!("{}/{i}", self.id), || f(point));
                (r, Some(log))
            } else {
                (f(point), None)
            };
            if tx.send((i, r, log)).is_err() {
                break;
            }
        };
        // Lease extra workers up front (never more than there are points
        // beyond the caller's share); skip the scope entirely when the
        // budget is exhausted so serial sweeps stay thread-free.
        let wanted = n.saturating_sub(1).min(jobs().saturating_sub(1));
        let mut leased = 0usize;
        while leased < wanted && lease_worker() {
            leased += 1;
        }
        if leased == 0 {
            work(tx);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..leased {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        work(tx);
                        release_worker();
                    });
                }
                work(tx);
            });
        }
        // Merge in declared order; every index is sent exactly once. Event
        // logs are absorbed on this thread in the same order, so they land
        // in the enclosing scope (nested sweeps) or the process bundle
        // independent of which worker recorded them.
        let mut slots: Vec<Option<(R, Option<EventLog>)>> = (0..n).map(|_| None).collect();
        for (i, r, log) in rx {
            debug_assert!(slots[i].is_none(), "point {i} computed twice");
            slots[i] = Some((r, log));
        }
        slots
            .into_iter()
            .map(|s| {
                let (r, log) = s.expect("every sweep point yields a result");
                if let Some(log) = log {
                    telemetry::absorb(log);
                }
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workers::set_jobs;

    #[test]
    fn results_come_back_in_declared_order() {
        let plan = SweepPlan::new("test-order", (0..64).collect::<Vec<usize>>());
        let out = plan.run(|pt| *pt.params * 2);
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = point_seed("e14", 0);
        let b = point_seed("e14", 1);
        let c = point_seed("e15", 0);
        assert_eq!(a, point_seed("e14", 0), "same (id, index) — same seed");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let plan = SweepPlan::new("test-agree", (0..40usize).collect::<Vec<_>>());
        let compute = |pt: SweepPoint<'_, usize>| (pt.index, pt.seed, pt.params * 3);
        set_jobs(1);
        let serial = plan.run(compute);
        set_jobs(8);
        let parallel = plan.run(compute);
        set_jobs(1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_plan_is_fine() {
        let plan: SweepPlan<u32> = SweepPlan::new("test-empty", vec![]);
        assert!(plan.run(|pt| *pt.params).is_empty());
    }

    #[test]
    fn nested_sweeps_share_the_budget() {
        // An outer sweep whose points each run an inner sweep: with any
        // budget, all 6 × 5 points are computed and ordered correctly.
        set_jobs(4);
        let outer = SweepPlan::new("test-outer", (0..6u64).collect::<Vec<_>>());
        let sums = outer.run(|pt| {
            let base = *pt.params;
            let inner = SweepPlan::new("test-inner", (0..5u64).collect::<Vec<_>>());
            inner.run(|q| base * 10 + *q.params).iter().sum::<u64>()
        });
        set_jobs(1);
        let expect: Vec<u64> = (0..6u64)
            .map(|b| (0..5).map(|q| b * 10 + q).sum())
            .collect();
        assert_eq!(sums, expect);
    }
}
