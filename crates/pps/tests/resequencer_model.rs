//! Model-based property test for the FlowFifo resequencer.
//!
//! The production path — `CellPool` + `SeqRing` + the batched
//! `deliver_batch`/`emit` hot path of [`OutputMux`] — is checked against a
//! deliberately naive reference model built on `BTreeMap`/`BTreeSet`, which
//! transcribes the DESIGN.md semantics directly: per-flow reorder maps, an
//! eligible set ordered by `(arrival, id)`, per-flow gap timers that fire
//! during the limit-th consecutive blocked slot. Random per-plane delivery
//! delays produce reordered arrivals, watchdog skips, and late stragglers;
//! the emission sequence and every counter must match exactly, slot by
//! slot.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

use pps_core::prelude::*;
use pps_switch::output::OutputMux;

/// Naive FlowFifo resequencer: same observable contract as `OutputMux`,
/// structured for obviousness instead of speed.
struct ModelMux {
    reorder: Vec<BTreeMap<u32, CellId>>,
    next_seq: Vec<u32>,
    /// Eligible cells keyed exactly like the real emit heap.
    eligible: BTreeSet<(Slot, CellId)>,
    blocked_since: Vec<Option<Slot>>,
    watchdog: Option<Slot>,
    stalled_since: Option<Slot>,
    held: usize,
    emitted: u64,
    skipped: u64,
    stalled_slots: u64,
    late_dropped: u64,
}

impl ModelMux {
    fn new(n: usize, watchdog: Option<Slot>) -> Self {
        ModelMux {
            reorder: vec![BTreeMap::new(); n],
            next_seq: vec![0; n],
            eligible: BTreeSet::new(),
            blocked_since: vec![None; n],
            watchdog,
            stalled_since: None,
            held: 0,
            emitted: 0,
            skipped: 0,
            stalled_slots: 0,
            late_dropped: 0,
        }
    }

    fn eligible_of(&self, cells: &[Cell], input: usize) -> usize {
        self.eligible
            .iter()
            .filter(|(_, id)| cells[id.idx()].input.idx() == input)
            .count()
    }

    fn refresh_gap(&mut self, cells: &[Cell], i: usize, now: Slot) {
        if self.reorder[i].is_empty() || self.eligible_of(cells, i) > 0 {
            self.blocked_since[i] = None;
        } else if self.blocked_since[i].is_none() {
            self.blocked_since[i] = Some(now);
        }
    }

    /// Deliver one slot's batch, in order; returns per-cell accepted flags.
    fn deliver_batch(&mut self, cells: &[Cell], ids: &[CellId], now: Slot) -> Vec<bool> {
        let mut accepted = Vec::with_capacity(ids.len());
        let mut touched = Vec::new();
        for &id in ids {
            let c = &cells[id.idx()];
            let i = c.input.idx();
            if c.seq < self.next_seq[i] {
                self.late_dropped += 1;
                accepted.push(false);
                continue;
            }
            self.held += 1;
            if c.seq == self.next_seq[i] {
                self.eligible.insert((c.arrival, id));
            } else {
                self.reorder[i].insert(c.seq, id);
            }
            if !touched.contains(&i) {
                touched.push(i);
            }
            accepted.push(true);
        }
        for i in touched {
            self.refresh_gap(cells, i, now);
        }
        accepted
    }

    fn expire_gaps(&mut self, cells: &[Cell], now: Slot) {
        let Some(limit) = self.watchdog else { return };
        for i in 0..self.blocked_since.len() {
            let Some(since) = self.blocked_since[i] else {
                continue;
            };
            if now - since + 1 < limit {
                continue;
            }
            let (&seq, &head) = self.reorder[i].iter().next().expect("blocked => waiting");
            self.skipped += u64::from(seq - self.next_seq[i]);
            self.next_seq[i] = seq;
            self.reorder[i].remove(&seq);
            self.eligible.insert((cells[head.idx()].arrival, head));
            self.refresh_gap(cells, i, now);
        }
    }

    fn emit(&mut self, cells: &[Cell], now: Slot) -> Option<CellId> {
        self.expire_gaps(cells, now);
        if let Some((key, id)) = self.eligible.iter().next().copied() {
            self.eligible.remove(&(key, id));
            let i = cells[id.idx()].input.idx();
            self.next_seq[i] = cells[id.idx()].seq + 1;
            if let Some(next) = self.reorder[i].remove(&self.next_seq[i]) {
                self.eligible.insert((cells[next.idx()].arrival, next));
            }
            self.refresh_gap(cells, i, now);
            self.held -= 1;
            self.emitted += 1;
            self.stalled_since = None;
            return Some(id);
        }
        if self.held == 0 {
            self.stalled_since = None;
            return None;
        }
        self.stalled_since.get_or_insert(now);
        self.stalled_slots += 1;
        None
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Build one output's worth of flows — per input, `len` cells with
/// consecutive seqs and strictly increasing arrivals — then scatter each
/// cell's plane-delivery slot by a random delay. Ids follow global arrival
/// order, as `Trace::cells` assigns them.
fn build_run(
    lens: &[usize],
    seed: u64,
    max_delay: u64,
) -> (Vec<Cell>, BTreeMap<Slot, Vec<CellId>>) {
    let mut state = seed | 1;
    let mut protocells = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        let mut arrival: Slot = 0;
        for seq in 0..len as u32 {
            arrival += 1 + lcg(&mut state) % 3;
            protocells.push((arrival, i as u32, seq));
        }
    }
    protocells.sort_unstable();
    let cells: Vec<Cell> = protocells
        .iter()
        .enumerate()
        .map(|(id, &(arrival, input, seq))| Cell {
            id: CellId(id as u64),
            input: PortId(input),
            output: PortId(0),
            seq,
            arrival,
        })
        .collect();
    let mut schedule: BTreeMap<Slot, Vec<CellId>> = BTreeMap::new();
    for c in &cells {
        let deliver_at = c.arrival + lcg(&mut state) % (max_delay + 1);
        schedule.entry(deliver_at).or_default().push(c.id);
    }
    // Random within-slot delivery order (planes race each other).
    for batch in schedule.values_mut() {
        batch.sort_by_key(|id| (lcg(&mut state), id.0));
    }
    (cells, schedule)
}

/// Drive the real mux and the naive model over one built run, slot by
/// slot, and require identical emissions and counters. `lens[i]` is input
/// `i`'s flow length, so `lens.len()` is the switch size `n`.
fn check_against_model(
    lens: &[usize],
    seed: u64,
    max_delay: u64,
    watchdog: Option<Slot>,
) -> Result<(), TestCaseError> {
    let (cells, schedule) = build_run(lens, seed, max_delay);
    let n = lens.len();

    let mut pool = CellPool::new();
    for c in &cells {
        pool.ensure(c);
    }
    let mut real = OutputMux::new(n, OutputDiscipline::FlowFifo);
    real.set_watchdog(watchdog);
    let mut model = ModelMux::new(n, watchdog);

    let last = schedule.keys().next_back().copied().unwrap_or(0);
    // Everything is delivered by `last`; with gaps filled (or expired
    // by the watchdog) the mux drains one cell per slot afterwards.
    let horizon = last + cells.len() as u64 + watchdog.unwrap_or(0) + 2;
    let mut real_out = Vec::new();
    let mut model_out = Vec::new();
    for now in 0..=horizon {
        if let Some(batch) = schedule.get(&now) {
            let model_accepted = model.deliver_batch(&cells, batch, now);
            let real_accepted = real.deliver_batch(&pool, batch, now);
            prop_assert_eq!(
                real_accepted,
                model_accepted.iter().filter(|&&a| a).count(),
                "accepted count diverged in slot {}",
                now
            );
        }
        let r = real.emit(&pool, now);
        let m = model.emit(&cells, now);
        prop_assert_eq!(r, m, "emission diverged in slot {}", now);
        if let Some(id) = r {
            real_out.push(id);
        }
        if let Some(id) = m {
            model_out.push(id);
        }
    }

    // Fully drained, and the delivered sequence matches exactly.
    prop_assert_eq!(real.held(), 0, "real mux failed to drain");
    prop_assert_eq!(model.held, 0, "model failed to drain");
    prop_assert_eq!(&real_out, &model_out);

    // Per-flow order was preserved among emitted cells.
    let mut last_seq = vec![None::<u32>; n];
    for id in &real_out {
        let c = &cells[id.idx()];
        let prev = last_seq[c.input.idx()].replace(c.seq);
        prop_assert!(prev.is_none_or(|p| c.seq > p), "flow order violated");
    }

    // Counters agree: emitted + skipped-or-late accounts for every cell.
    prop_assert_eq!(real.emitted(), model.emitted);
    prop_assert_eq!(real.skipped(), model.skipped);
    prop_assert_eq!(real.late_dropped(), model.late_dropped);
    prop_assert_eq!(real.stalled_slots(), model.stalled_slots);
    if watchdog.is_none() {
        prop_assert_eq!(real.emitted() as usize, cells.len());
        prop_assert_eq!(real.skipped(), 0);
        prop_assert_eq!(real.late_dropped(), 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flow_fifo_matches_naive_reference_model(
        lens in proptest::collection::vec(0usize..10, 1usize..4),
        seed in 0u64..10_000,
        max_delay in 0u64..9,
        watchdog in (0u64..5).prop_map(|w| (w > 0).then_some(w)),
    ) {
        check_against_model(&lens, seed, max_delay, watchdog)?;
    }

    /// A large switch with only a few active flows — the shape of the
    /// paper's sparse attacks. The mux's flow table is sized lazily on the
    /// first delivery, so the highest input index `n − 1` (always active
    /// here) pins that it covers every input.
    #[test]
    fn sparse_large_n_matches_naive_reference_model(
        big in 0u8..2,
        others in proptest::collection::vec((0usize..1023, 1usize..10), 0usize..4),
        last_len in 1usize..10,
        seed in 0u64..10_000,
        max_delay in 0u64..9,
        watchdog in (0u64..5).prop_map(|w| (w > 0).then_some(w)),
    ) {
        let n = if big == 1 { 1024 } else { 64 };
        let mut lens = vec![0; n];
        lens[n - 1] = last_len;
        for (i, len) in others {
            lens[i % (n - 1)] = len;
        }
        check_against_model(&lens, seed, max_delay, watchdog)?;
    }
}
