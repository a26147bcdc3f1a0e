//! Process-wide simulation throughput accounting.
//!
//! Every engine in the workspace — the PPS fabric, the crossbar/CIOQ
//! baselines, and analysis passes that walk a trace slot by slot — bumps
//! the shared counter once per slot it processes (one relaxed atomic add,
//! negligible next to the slot's own work). Any driver can then meter
//! slots/sec across whole experiments without threading a counter through
//! every engine: read [`slots_simulated`] before and after a workload and
//! take the difference. The counter is cumulative and monotonic; it is
//! never reset.
//!
//! The counter lives in `pps-core` so that every engine — the PPS fabric,
//! the `pps-crossbar` CIOQ/iSLIP switches, trace validators — accounts its
//! slots through the same meter. Each [`crate::stepping::SlotEngine`]
//! meters its own slots: simulated ones in `slot`, skipped ones in
//! `skip_idle`; the shared driver meters nothing.

use std::sync::atomic::{AtomicU64, Ordering};

static SLOTS_SIMULATED: AtomicU64 = AtomicU64::new(0);
static SLOTS_SKIPPED: AtomicU64 = AtomicU64::new(0);

/// Total slots simulated by this process so far, across every engine (PPS
/// fabric, crossbar baselines, trace validators). Slots covered
/// by a skip-ahead jump count under [`slots_skipped`] instead — the sum of
/// the two is the simulated-time span an equivalent dense run would have
/// walked.
pub fn slots_simulated() -> u64 {
    SLOTS_SIMULATED.load(Ordering::Relaxed)
}

/// Total slots covered by skip-ahead jumps instead of being individually
/// processed (see [`crate::stepping`]). Cumulative and monotonic, like
/// [`slots_simulated`].
pub fn slots_skipped() -> u64 {
    SLOTS_SKIPPED.load(Ordering::Relaxed)
}

/// Record `n` processed slots. Engines call this once per slot (`n = 1`);
/// batch processors (e.g. a validator that scanned a whole trace) may
/// account their span in one add.
#[inline]
pub fn record_slots(n: u64) {
    SLOTS_SIMULATED.fetch_add(n, Ordering::Relaxed);
}

/// Record `n` slots elided by a skip-ahead jump. Engines call this once
/// per jump with the width of the skipped interval.
#[inline]
pub fn record_skipped(n: u64) {
    SLOTS_SKIPPED.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        let before = slots_simulated();
        record_slots(3);
        assert!(slots_simulated() >= before + 3);
    }

    #[test]
    fn skipped_counter_is_monotonic() {
        let skip = slots_skipped();
        record_skipped(5);
        assert!(slots_skipped() >= skip + 5);
    }
}
