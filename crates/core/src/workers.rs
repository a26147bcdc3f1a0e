//! Process-wide worker budget shared by every parallel component.
//!
//! One budget ([`set_jobs`]) caps the *total* number of threads making
//! progress at any instant across every concurrently running parallel
//! region — the sweep executor in `pps-experiments`, the registry-level
//! sweep `ppslab` runs, and the per-plane alignment scans in
//! `pps-traffic`. Each region keeps its calling thread and leases extra
//! workers only while it has work left, so nested parallelism (alignment
//! scans inside an experiment inside the registry sweep) never
//! oversubscribes.
//!
//! The budget lived in `pps_experiments::sweep` through PR 3; it moved
//! here so leaf crates below the experiment layer can lease from the same
//! pool without a dependency cycle (`pps-experiments` depends on
//! `pps-traffic`, not the other way round). `pps_experiments::sweep`
//! re-exports [`set_jobs`]/[`jobs`], so drivers are unaffected.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker budget (see [`set_jobs`]). The default of 1 keeps
/// library users (tests, doc examples) serial until a driver opts in.
static JOBS: AtomicUsize = AtomicUsize::new(1);
/// Extra workers currently leased across all live parallel regions.
static LEASED: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide parallelism budget: the maximum number of threads
/// (callers + leased workers) simultaneously making progress. `n = 1`
/// means fully serial execution on calling threads.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The current process-wide parallelism budget.
pub fn jobs() -> usize {
    JOBS.load(Ordering::SeqCst)
}

/// Compatibility shim for the benchmark harness, which pins a single
/// serial fabric walk per run. The fabric has no other walk, so any other
/// value is a caller bug.
#[doc(hidden)]
pub fn set_intra_jobs(n: usize) {
    assert_eq!(n, 1, "the fabric walk is serial");
}

/// Try to lease one extra worker from the shared budget. On success the
/// caller owns one worker slot and must return it with
/// [`release_worker`] — prefer [`WorkerLease::try_new`], which releases
/// on drop.
pub fn lease_worker() -> bool {
    let budget = jobs().saturating_sub(1);
    let mut cur = LEASED.load(Ordering::SeqCst);
    loop {
        if cur >= budget {
            return false;
        }
        match LEASED.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
}

/// Return a worker slot taken with [`lease_worker`].
pub fn release_worker() {
    LEASED.fetch_sub(1, Ordering::SeqCst);
}

/// RAII worker lease: holds one slot of the shared budget, released on
/// drop (including on panic unwind out of a parallel scope).
#[derive(Debug)]
pub struct WorkerLease(());

impl WorkerLease {
    /// Try to take one worker slot; `None` when the budget is exhausted.
    pub fn try_new() -> Option<WorkerLease> {
        if lease_worker() {
            Some(WorkerLease(()))
        } else {
            None
        }
    }
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        release_worker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_respects_budget_and_releases() {
        // Serialized against other tests by touching only this module's
        // statics from one test (cargo runs tests in one process; keep the
        // invariant simple: restore jobs=1 at the end).
        set_jobs(3);
        let a = WorkerLease::try_new();
        let b = WorkerLease::try_new();
        assert!(a.is_some() && b.is_some(), "budget 3 = caller + 2 leases");
        assert!(WorkerLease::try_new().is_none(), "third lease over budget");
        drop(a);
        let c = WorkerLease::try_new();
        assert!(c.is_some(), "released slot is leasable again");
        drop(b);
        drop(c);
        set_jobs(1);
        assert!(
            WorkerLease::try_new().is_none(),
            "serial budget leases none"
        );
    }
}
