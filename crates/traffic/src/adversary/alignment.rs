//! Generic demultiplexor state steering.
//!
//! The proof of Theorem 6 picks, for each input `i` in the concentrating
//! set, a traffic `A_i` that drives demultiplexor `i` into a state `σ_i`
//! from which its next cell for output `j` is dispatched to plane `k`.
//! The paper gets `A_i`'s existence from the assumption that the switch's
//! applicable configurations form a strongly-connected graph; here we
//! *search* for it by running the real automaton.
//!
//! A demultiplexor probed with all lines free is a deterministic automaton,
//! so its dispatch trajectory — the sequence of planes it picks for
//! consecutive cells of one flow — is a fixed sequence that a **single
//! forward run** can record. [`DispatchLog::record`] performs that run
//! once per input (at most `max_probes + 1` dispatches, stopping early
//! once every plane has appeared) and stores, per input, the *first
//! position* at which each plane occurs. The alignment plan for *every*
//! candidate plane then falls out by scanning that table: input `i` aligns
//! to plane `k` after exactly `first_occurrence(i, k)` probe cells. No
//! automaton state is cloned per peek, per probe, or per candidate plane —
//! the search takes one working copy via
//! [`ExplorableDemux::probe_copy`] and drives it forward.
//!
//! This is exact for every fully-distributed demultiplexor in the
//! workspace (round robin, per-flow round robin, static partition,
//! seeded-randomized): their state is per input port — Definition 5 gives
//! them nothing else to key on under a fixed all-free local view — so one
//! input's probes cannot perturb another's trajectory, and probing a plane
//! never depends on which plane the adversary later commits to. The
//! clone-per-peek reference implementation is retained under `#[cfg(test)]`
//! ([`oracle`]) and the property tests prove plan-for-plan equality
//! against it.
//!
//! The driver works for any [`ExplorableDemux`] — every `Demultiplexor +
//! Clone` qualifies via the blanket impl, including the seeded randomized
//! one, whose RNG state rides along in the working copy.

use pps_core::cell::Cell;
use pps_core::demux::{probe_dispatch, ExplorableDemux};
use pps_core::ids::{CellId, PlaneId, PortId};
use pps_core::time::Slot;

/// Result of steering a set of inputs toward `(output, plane)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlignmentPlan {
    /// The hot output `j`.
    pub output: u32,
    /// The concentrating plane `k`.
    pub plane: u32,
    /// Per aligned input: `(input, probe cells consumed)`. After consuming
    /// that many cells for `output`, the input's next dispatch for
    /// `output` uses `plane`.
    pub probes: Vec<(u32, usize)>,
}

impl AlignmentPlan {
    /// Number of aligned inputs — the concentration `d` of Theorem 6.
    pub fn d(&self) -> usize {
        self.probes.len()
    }

    /// Total alignment cells across inputs.
    pub fn total_probes(&self) -> usize {
        self.probes.iter().map(|&(_, c)| c).sum()
    }
}

fn probe_cell(input: u32, output: u32) -> Cell {
    Cell {
        id: CellId(0),
        input: PortId(input),
        output: PortId(output),
        seq: 0,
        arrival: 0,
    }
}

/// Sentinel: the plane never appeared within the probe budget.
const NEVER: u32 = u32::MAX;

/// The recorded dispatch trajectories of a set of inputs, reduced to the
/// table the alignment search needs: for each `(input, plane)` pair, the
/// first position (0-based, in probe cells consumed) at which the input's
/// forward trajectory dispatches to that plane.
///
/// Recording costs one forward run of at most `max_probes + 1` dispatches
/// per input; extracting a plan for any of the `K` candidate planes is a
/// table scan. Compare the previous search, which re-ran the automaton per
/// candidate plane and deep-cloned it per peek.
#[derive(Clone, Debug)]
pub struct DispatchLog {
    /// `first_occ[row * k + plane]`, [`NEVER`] when unreached.
    first_occ: Vec<u32>,
    /// The probed inputs (table rows, in caller order).
    inputs: Vec<u32>,
    /// Number of planes (table columns).
    k: usize,
    /// The hot output the probes were destined to.
    output: u32,
}

impl DispatchLog {
    /// Run each input's automaton forward for up to `max_probes + 1`
    /// dispatches (the positions the old peek loop examined) with all
    /// lines free, recording first plane occurrences. The recording stops
    /// early for an input once all `k` planes have appeared — no later
    /// position can be a first occurrence.
    pub fn record<D: ExplorableDemux>(
        demux: &D,
        inputs: &[u32],
        k: usize,
        output: u32,
        max_probes: usize,
    ) -> Self {
        let all_free: Vec<Slot> = vec![0; k];
        let mut sim = demux.probe_copy();
        let mut first_occ = vec![NEVER; inputs.len() * k];
        for (row, &input) in inputs.iter().enumerate() {
            let cell = probe_cell(input, output);
            let occ = &mut first_occ[row * k..(row + 1) * k];
            let mut unseen = k;
            for pos in 0..=max_probes {
                let p = probe_dispatch(&mut sim, &cell, 0, &all_free).idx();
                if occ[p] == NEVER {
                    occ[p] = pos as u32;
                    unseen -= 1;
                    if unseen == 0 {
                        break;
                    }
                }
            }
        }
        DispatchLog {
            first_occ,
            inputs: inputs.to_vec(),
            k,
            output,
        }
    }

    /// Number of planes (table columns).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The probed inputs, in caller order.
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// First position at which `input` (by row index) dispatches to
    /// `plane`, or `None` if it never did within the probe budget.
    pub fn first_occurrence(&self, row: usize, plane: u32) -> Option<usize> {
        match self.first_occ[row * self.k + plane as usize] {
            NEVER => None,
            pos => Some(pos as usize),
        }
    }

    /// The alignment plan for one candidate plane: every input whose
    /// trajectory reaches `plane`, with its probe-cell cost.
    pub fn plan_for(&self, plane: u32) -> AlignmentPlan {
        let probes = self
            .inputs
            .iter()
            .enumerate()
            .filter_map(|(row, &input)| self.first_occurrence(row, plane).map(|c| (input, c)))
            .collect();
        AlignmentPlan {
            output: self.output,
            plane,
            probes,
        }
    }

    /// One plane's `(d, Reverse(total probes))` score — a pure column scan
    /// of the recorded table.
    fn score(&self, plane: usize) -> (usize, std::cmp::Reverse<usize>) {
        let (mut d, mut total) = (0usize, 0usize);
        for row in 0..self.inputs.len() {
            let occ = self.first_occ[row * self.k + plane];
            if occ != NEVER {
                d += 1;
                total += occ as usize;
            }
        }
        (d, std::cmp::Reverse(total))
    }

    /// Score every plane into a plane-indexed vec. Tables big enough to pay
    /// for threads fan the column scans out over workers leased from the
    /// shared budget ([`pps_core::workers`]); scores are pure functions of
    /// the table, so the vec — and everything reduced from it — is
    /// identical at any budget.
    fn plane_scores(&self) -> Vec<(usize, std::cmp::Reverse<usize>)> {
        use pps_core::workers::WorkerLease;
        // Below this many table cells the scan is cheaper than a thread
        // spawn; stay on the calling thread.
        const PAR_THRESHOLD: usize = 1 << 15;
        let mut leases: Vec<WorkerLease> = Vec::new();
        if self.inputs.len() * self.k >= PAR_THRESHOLD {
            while leases.len() + 1 < self.k {
                match WorkerLease::try_new() {
                    Some(lease) => leases.push(lease),
                    None => break,
                }
            }
        }
        if leases.is_empty() {
            return (0..self.k).map(|p| self.score(p)).collect();
        }
        let threads = leases.len() + 1;
        let chunk = self.k.div_ceil(threads);
        let mut scores = vec![(0usize, std::cmp::Reverse(0usize)); self.k];
        std::thread::scope(|scope| {
            let mut rest = scores.as_mut_slice();
            let mut lo = 0usize;
            while rest.len() > chunk {
                let (head, tail) = rest.split_at_mut(chunk);
                rest = tail;
                let base = lo;
                lo += chunk;
                scope.spawn(move || {
                    for (i, slot) in head.iter_mut().enumerate() {
                        *slot = self.score(base + i);
                    }
                });
            }
            for (i, slot) in rest.iter_mut().enumerate() {
                *slot = self.score(lo + i);
            }
        });
        drop(leases);
        scores
    }

    /// The plan with the largest concentration `d` (ties: fewest total
    /// probe cells; equal on both: the highest plane, matching the old
    /// per-plane `max_by` search exactly). Only the winning plan is
    /// materialized. Large tables score their planes on leased workers —
    /// see [`plane_scores`](Self::plane_scores); the winner is reduced here
    /// in plane order, keeping the last-wins tie-break byte-exact.
    pub fn best_plan(&self) -> AlignmentPlan {
        assert!(self.k > 0, "at least one plane");
        let scores = self.plane_scores();
        let mut best = 0usize;
        let mut best_score = scores[0];
        for (plane, &s) in scores.iter().enumerate().skip(1) {
            if s >= best_score {
                best = plane;
                best_score = s;
            }
        }
        self.plan_for(best as u32)
    }
}

/// Record the raw forward dispatch trajectories of `inputs`: for each, the
/// planes its automaton picks for `count` consecutive cells destined to
/// `output`, with all lines free. Row-major, `count` entries per input.
/// This is the primitive beneath [`DispatchLog`], exposed for premises
/// that need positions beyond the first occurrence (e.g. the Theorem 10
/// symmetric-burst check in [`crate::adversary::urt_burst`]).
pub fn record_trajectories<D: ExplorableDemux>(
    demux: &D,
    inputs: &[u32],
    k: usize,
    output: u32,
    count: usize,
) -> Vec<PlaneId> {
    let all_free: Vec<Slot> = vec![0; k];
    let mut sim = demux.probe_copy();
    let mut out = Vec::with_capacity(inputs.len() * count);
    for &input in inputs {
        let cell = probe_cell(input, output);
        for _ in 0..count {
            out.push(probe_dispatch(&mut sim, &cell, 0, &all_free));
        }
    }
    out
}

/// Steer every input in `inputs` of a working copy of `demux` toward
/// dispatching its next `output`-cell to `plane`. Inputs that cannot be
/// aligned within `max_probes` cells are omitted from the plan.
///
/// `k` is the number of planes (probe contexts present all lines as free).
pub fn plan_alignment<D: ExplorableDemux>(
    demux: &D,
    inputs: &[u32],
    k: usize,
    output: u32,
    plane: u32,
    max_probes: usize,
) -> AlignmentPlan {
    DispatchLog::record(demux, inputs, k, output, max_probes).plan_for(plane)
}

/// Search all `(output, plane)` targets and return the plan with the
/// largest concentration `d` (ties: fewest total probe cells). This is how
/// the adversary finds the plane/output pair witnessing that the algorithm
/// is d-partitioned.
pub fn best_alignment<D: ExplorableDemux>(
    demux: &D,
    inputs: &[u32],
    k: usize,
    output: u32,
    max_probes: usize,
) -> AlignmentPlan {
    DispatchLog::record(demux, inputs, k, output, max_probes).best_plan()
}

/// The pre-optimization clone-based search, retained verbatim as the
/// reference oracle: the one-pass [`DispatchLog`] must produce exactly the
/// plans this produces (see the property tests below). Test-only — the
/// shipping path never clones automaton state per peek.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use pps_core::demux::Demultiplexor;

    /// Clone-per-peek rendition of [`super::plan_alignment`].
    pub fn plan_alignment<D: Demultiplexor + Clone>(
        demux: &D,
        inputs: &[u32],
        k: usize,
        output: u32,
        plane: u32,
        max_probes: usize,
    ) -> AlignmentPlan {
        let all_free: Vec<Slot> = vec![0; k];
        let mut sim = demux.clone();
        let mut probes = Vec::new();
        for &input in inputs {
            let cell = probe_cell(input, output);
            let mut consumed = 0usize;
            let aligned = loop {
                // Peek: what would the automaton do right now?
                let mut peek = sim.clone();
                if probe_dispatch(&mut peek, &cell, 0, &all_free) == PlaneId(plane) {
                    break true;
                }
                if consumed >= max_probes {
                    break false;
                }
                // Consume one probe cell for real.
                probe_dispatch(&mut sim, &cell, 0, &all_free);
                consumed += 1;
            };
            if aligned {
                probes.push((input, consumed));
            }
        }
        AlignmentPlan {
            output,
            plane,
            probes,
        }
    }

    /// Clone-based rendition of [`super::best_alignment`].
    pub fn best_alignment<D: Demultiplexor + Clone>(
        demux: &D,
        inputs: &[u32],
        k: usize,
        output: u32,
        max_probes: usize,
    ) -> AlignmentPlan {
        (0..k as u32)
            .map(|plane| plan_alignment(demux, inputs, k, output, plane, max_probes))
            .max_by(|a, b| {
                (a.d(), std::cmp::Reverse(a.total_probes()))
                    .cmp(&(b.d(), std::cmp::Reverse(b.total_probes())))
            })
            .expect("at least one plane")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::demux::{Demultiplexor, DispatchCtx, InfoClass};

    /// A toy automaton: cycles planes 0..k; destination-oblivious.
    #[derive(Clone)]
    struct Cycler {
        next: Vec<u32>,
        k: u32,
    }
    impl Demultiplexor for Cycler {
        fn info_class(&self) -> InfoClass {
            InfoClass::FullyDistributed
        }
        fn dispatch(&mut self, cell: &Cell, _ctx: &DispatchCtx<'_>) -> PlaneId {
            let i = cell.input.idx();
            let p = self.next[i];
            self.next[i] = (p + 1) % self.k;
            PlaneId(p)
        }
        fn reset(&mut self) {
            self.next.fill(0);
        }
        fn name(&self) -> &'static str {
            "cycler"
        }
    }

    #[test]
    fn aligns_cyclers_with_mixed_phases() {
        let demux = Cycler {
            next: vec![0, 1, 2, 3],
            k: 4,
        };
        let plan = plan_alignment(&demux, &[0, 1, 2, 3], 4, 0, 2, 8);
        assert_eq!(plan.d(), 4);
        // Input 0 needs 2 probes (0,1 consumed), input 2 needs 0, etc.
        let by_input: std::collections::BTreeMap<u32, usize> =
            plan.probes.iter().copied().collect();
        assert_eq!(by_input[&0], 2);
        assert_eq!(by_input[&1], 1);
        assert_eq!(by_input[&2], 0);
        assert_eq!(by_input[&3], 3);
    }

    #[test]
    fn unalignable_inputs_are_omitted() {
        /// Never chooses plane 1.
        #[derive(Clone)]
        struct Stubborn;
        impl Demultiplexor for Stubborn {
            fn info_class(&self) -> InfoClass {
                InfoClass::FullyDistributed
            }
            fn dispatch(&mut self, _c: &Cell, _ctx: &DispatchCtx<'_>) -> PlaneId {
                PlaneId(0)
            }
            fn reset(&mut self) {}
            fn name(&self) -> &'static str {
                "stubborn"
            }
        }
        let plan = plan_alignment(&Stubborn, &[0, 1], 2, 0, 1, 8);
        assert_eq!(plan.d(), 0);
        let plan0 = plan_alignment(&Stubborn, &[0, 1], 2, 0, 0, 8);
        assert_eq!(plan0.d(), 2);
        assert_eq!(plan0.total_probes(), 0);
    }

    #[test]
    fn best_alignment_maximizes_d_then_minimizes_probes() {
        let demux = Cycler {
            next: vec![1, 1, 1],
            k: 3,
        };
        let plan = best_alignment(&demux, &[0, 1, 2], 3, 0, 8);
        assert_eq!(plan.d(), 3);
        // All at phase 1: plane 1 costs zero probes and must be chosen.
        assert_eq!(plan.plane, 1);
        assert_eq!(plan.total_probes(), 0);
    }

    #[test]
    fn trajectories_are_the_raw_dispatch_sequences() {
        let demux = Cycler {
            next: vec![2, 0],
            k: 3,
        };
        let t = record_trajectories(&demux, &[0, 1], 3, 0, 4);
        let planes: Vec<u32> = t.iter().map(|p| p.0).collect();
        assert_eq!(planes, vec![2, 0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn parallel_scoring_matches_serial_byte_for_byte() {
        // A table past the parallel threshold (2048 × 16 = 32768 cells)
        // with every plane achieving the same d, so the tie-break — last
        // wins, i.e. the highest plane — is what the equality exercises.
        let n = 2048usize;
        let k = 16usize;
        let demux = Cycler {
            next: (0..n).map(|i| (i % k) as u32).collect(),
            k: k as u32,
        };
        let inputs: Vec<u32> = (0..n as u32).collect();
        let log = DispatchLog::record(&demux, &inputs, k, 0, 2 * k);
        let serial = log.best_plan();
        pps_core::workers::set_jobs(8);
        let parallel = log.best_plan();
        pps_core::workers::set_jobs(1);
        assert_eq!(serial, parallel);
        assert_eq!(
            serial.plane,
            (k - 1) as u32,
            "ties resolve to the highest plane"
        );
    }

    #[test]
    fn log_exposes_first_occurrences() {
        let demux = Cycler {
            next: vec![1],
            k: 4,
        };
        let log = DispatchLog::record(&demux, &[0], 4, 0, 8);
        assert_eq!(log.first_occurrence(0, 1), Some(0));
        assert_eq!(log.first_occurrence(0, 3), Some(2));
        assert_eq!(log.first_occurrence(0, 0), Some(3));
        let budget_limited = DispatchLog::record(&demux, &[0], 4, 0, 1);
        assert_eq!(budget_limited.first_occurrence(0, 0), None);
    }

    /// The property-test battery: one-pass plans are identical — plane,
    /// per-input probe counts, d — to the clone-based oracle, across every
    /// demultiplexor family the adversarial experiments probe.
    mod oracle_equality {
        use super::super::{best_alignment, oracle, plan_alignment};
        use pps_core::demux::FlowHashDemux;
        use pps_switch::demux::{
            HashFlowDemux, PerFlowRoundRobinDemux, RandomDemux, RoundRobinDemux,
            StaticPartitionDemux,
        };
        use proptest::prelude::*;

        /// Check every per-plane plan and the best plan against the oracle.
        fn assert_matches_oracle<D: pps_core::demux::ExplorableDemux>(
            demux: &D,
            n: usize,
            k: usize,
            max_probes: usize,
        ) {
            let inputs: Vec<u32> = (0..n as u32).collect();
            for plane in 0..k as u32 {
                let fast = plan_alignment(demux, &inputs, k, 0, plane, max_probes);
                let slow = oracle::plan_alignment(demux, &inputs, k, 0, plane, max_probes);
                assert_eq!(fast, slow, "plane {plane} plan diverged");
            }
            let fast = best_alignment(demux, &inputs, k, 0, max_probes);
            let slow = oracle::best_alignment(demux, &inputs, k, 0, max_probes);
            assert_eq!(fast, slow, "best plan diverged");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn round_robin(n in 2usize..24, k in 2usize..12, probes in 1usize..40) {
                assert_matches_oracle(&RoundRobinDemux::new(n, k), n, k, probes);
            }

            #[test]
            fn per_flow_round_robin(n in 2usize..24, k in 2usize..12, probes in 1usize..40) {
                assert_matches_oracle(&PerFlowRoundRobinDemux::new(n, k), n, k, probes);
            }

            #[test]
            fn static_partition(n in 2usize..24, groups in 1usize..4, r_prime in 1usize..4, probes in 1usize..40) {
                let k = groups * r_prime;
                let demux = StaticPartitionDemux::minimal(n, k, r_prime);
                assert_matches_oracle(&demux, n, k, probes);
            }

            #[test]
            fn seeded_randomized(n in 2usize..16, k in 2usize..10, seed in 0u64..1_000, probes in 1usize..48) {
                assert_matches_oracle(&RandomDemux::new(n, seed), n, k, probes);
            }

            #[test]
            fn sticky_flow_hash(n in 2usize..20, k in 2usize..10, seed in 0u64..1_000, probes in 1usize..40) {
                // The sticky pins make this one genuinely stateful: a probe
                // that deviates re-pins the flow, so later probes follow
                // the pin, not the hash home.
                assert_matches_oracle(&FlowHashDemux::new(n, k, seed), n, k, probes);
            }

            #[test]
            fn stateless_hash_flow(n in 2usize..20, k in 2usize..10, probes in 1usize..40) {
                assert_matches_oracle(&HashFlowDemux::new(n, k), n, k, probes);
            }
        }
    }
}
