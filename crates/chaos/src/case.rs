//! Randomized case generation.
//!
//! A [`ChaosCase`] is the complete, self-describing recipe for one fuzzing
//! run: switch geometry, first-stage buffering, output discipline,
//! demultiplexor choice, traffic generator, and fault schedule. Everything
//! is derived from `(master_seed, index)` through a fixed draw order, so a
//! case can always be regenerated from the two numbers printed in the
//! report — the repro story depends on it.

use pps_core::fault::FaultPlan;
use pps_core::time::Slot;
use pps_core::{BufferSpec, OutputDiscipline, PpsConfig, Trace};
use pps_traffic::gen::{BernoulliGen, OnOffGen, TrafficPattern};
use pps_workload::{materialize, MmppGen, Phase, ZipfGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MMPP modulator dwell parameters: mean calm stretch of 50 slots, mean
/// burst of 12.5 — several regime flips inside even a short chaos horizon.
const MMPP_CALM_EXIT: f64 = 0.02;
const MMPP_BURST_EXIT: f64 = 0.08;

/// Which demultiplexor the case drives the PPS with.
///
/// The chaos runner needs a concrete engine type, so the zoo is captured
/// as an enum (the engine's demux parameter is a generic, not a trait
/// object) and materialized by [`crate::fuzz_demux::FuzzDemux::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DemuxChoice {
    /// Plain per-input round-robin (fully distributed).
    RoundRobin,
    /// Per-flow round-robin (fully distributed).
    PerFlowRoundRobin,
    /// Uniform random over free planes, seeded per case.
    Random,
    /// Least-loaded according to the input's local estimate.
    LeastLoadedLocal,
    /// Flow-hash static assignment with overflow to next free.
    HashFlow,
    /// Fault-aware round-robin on the centralized information class.
    FaultAwareCentralized,
    /// Fault-aware round-robin on `u`-RT information (the `u` field).
    FaultAwareUrt(Slot),
    /// Chang–Lee two-stage load-balanced rotation (fully distributed,
    /// stateless).
    TwoStageLb,
    /// Power-of-`d` sampled least-loaded dispatch (the `d` field).
    LeastLoadedOfD(usize),
    /// Buffered round-robin — the default for buffered cases.
    BufferedRoundRobin,
    /// Buffered stale least-loaded on `u`-old information holding each
    /// cell `hold ≤ u` slots (fields `(u, hold)`).
    BufferedStale(Slot, Slot),
    /// Delayed CPA: hold `u` slots, then assign by FCFS-OQ deadlines
    /// (the `u` field). Drawn only in its Theorem 12 regime (global-FCFS
    /// output stage, speedup `K/r' ≥ 2`).
    DelayedCpa(Slot),
}

impl DemuxChoice {
    /// Short name used in report lines.
    pub fn name(self) -> &'static str {
        match self {
            DemuxChoice::RoundRobin => "rr",
            DemuxChoice::PerFlowRoundRobin => "pf-rr",
            DemuxChoice::Random => "random",
            DemuxChoice::LeastLoadedLocal => "ll-local",
            DemuxChoice::HashFlow => "hash",
            DemuxChoice::FaultAwareCentralized => "fa-rr-c",
            DemuxChoice::FaultAwareUrt(_) => "fa-rr-u",
            DemuxChoice::TwoStageLb => "2s-lb",
            DemuxChoice::LeastLoadedOfD(_) => "ll-of-d",
            DemuxChoice::BufferedRoundRobin => "buf-rr",
            DemuxChoice::BufferedStale(..) => "buf-stale",
            DemuxChoice::DelayedCpa(_) => "dcpa",
        }
    }

    /// The information delay the down-plane-dispatch oracle should assume,
    /// or `None` when the demux is fault-blind and the check must stay off.
    /// The buffered `u`-RT automata report their honest delay, but the
    /// runner additionally gates the check on bufferless cases, so for
    /// them the value is descriptive only.
    pub fn info_delay(self) -> Option<Slot> {
        match self {
            DemuxChoice::FaultAwareCentralized => Some(0),
            DemuxChoice::FaultAwareUrt(u) => Some(u),
            DemuxChoice::BufferedStale(u, _) => Some(u),
            DemuxChoice::DelayedCpa(u) => Some(u),
            _ => None,
        }
    }
}

/// Which scheduler the comparison crossbar runs alongside the PPS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossbarChoice {
    /// iSLIP at the runner's fixed iteration count.
    Islip,
    /// QPS-r with `r` accept rounds.
    QpsR(usize),
    /// SW-QPS with the given window size.
    SwQps(usize),
}

impl CrossbarChoice {
    /// Short name used in report lines and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            CrossbarChoice::Islip => "islip",
            CrossbarChoice::QpsR(_) => "qps-r",
            CrossbarChoice::SwQps(_) => "sw-qps",
        }
    }
}

/// Which traffic generator feeds the case.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficChoice {
    /// i.i.d. Bernoulli arrivals.
    Bernoulli {
        /// Destination pattern.
        pattern: TrafficPattern,
    },
    /// Bursty on/off arrivals (destination re-drawn per burst).
    OnOff {
        /// Mean ON-burst length, in tenths of a cell (fixed-point so the
        /// case stays `Eq`-comparable and reproducible).
        mean_burst_tenths: u32,
        /// Destination pattern.
        pattern: TrafficPattern,
    },
    /// Zipf-skewed flow population (`pps-workload`): destinations are a
    /// hash of the flow id, so elephant flows become hot outputs.
    Zipf {
        /// Zipf exponent `s`, in hundredths (fixed-point for `Eq`).
        s_hundredths: u32,
        /// Flow population size.
        flows: u64,
        /// Flow→output hash salt. Derived from the *master* seed, not the
        /// case seed, so every Zipf case of a campaign shares one flow
        /// universe: the same flow ids recur case after case and land on
        /// the same outputs, stressing `SeqRing` recycling with histories
        /// no single case produces.
        salt: u64,
    },
    /// Markov-modulated Bernoulli arrivals with a shared two-state burst
    /// modulator (`pps-workload`): bursts correlated across all inputs.
    Mmpp {
        /// Calm-phase per-slot arrival probability, in thousandths.
        calm_millis: u32,
        /// Burst-phase per-slot arrival probability, in thousandths.
        burst_millis: u32,
    },
}

impl TrafficChoice {
    /// Short name used in report lines.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficChoice::Bernoulli { .. } => "bern",
            TrafficChoice::OnOff { .. } => "onoff",
            TrafficChoice::Zipf { .. } => "zipf",
            TrafficChoice::Mmpp { .. } => "mmpp",
        }
    }

    fn pattern(&self) -> Option<&TrafficPattern> {
        match self {
            TrafficChoice::Bernoulli { pattern } => Some(pattern),
            TrafficChoice::OnOff { pattern, .. } => Some(pattern),
            TrafficChoice::Zipf { .. } | TrafficChoice::Mmpp { .. } => None,
        }
    }

    /// Pattern name for report lines.
    pub fn pattern_name(&self) -> &'static str {
        match self.pattern() {
            Some(TrafficPattern::Uniform) => "uniform",
            Some(TrafficPattern::Hotspot { .. }) => "hotspot",
            Some(TrafficPattern::Permutation(_)) => "rotation",
            Some(TrafficPattern::Diagonal) => "diagonal",
            // Stochastic generators pick destinations themselves.
            None => match self {
                TrafficChoice::Zipf { .. } => "flow-hash",
                _ => "modulated",
            },
        }
    }
}

/// One fully specified fuzzing case.
#[derive(Clone, Debug)]
pub struct ChaosCase {
    /// Case index within the run (also the report ordering key).
    pub index: usize,
    /// Per-case RNG seed, derived from the master seed and the index.
    pub seed: u64,
    /// Ports (`N`).
    pub n: usize,
    /// Planes (`K`).
    pub k: usize,
    /// Internal slowdown (`r'`).
    pub r_prime: usize,
    /// Per-input buffer capacity; 0 means bufferless.
    pub buffer: usize,
    /// Output-stage discipline.
    pub discipline: OutputDiscipline,
    /// Resequencer watchdog timeout, if armed.
    pub watchdog: Option<Slot>,
    /// Demultiplexor under test.
    pub demux: DemuxChoice,
    /// Traffic generator.
    pub traffic: TrafficChoice,
    /// Offered load per input, in thousandths (fixed-point).
    pub load_millis: u32,
    /// Arrival horizon in slots (the `--budget-slots` knob).
    pub horizon: Slot,
    /// Fault schedule applied to the PPS engine.
    pub plan: FaultPlan,
    /// When set by the shrinker, arrivals after this slot are removed
    /// from the (otherwise identical) generated trace.
    pub truncate_at: Option<Slot>,
}

/// Derive the RNG seed of case `index` under `master` — a SplitMix64-style
/// mix so neighbouring indices land far apart in seed space.
pub fn case_seed(master: u64, index: usize) -> u64 {
    let mut z = master ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosCase {
    /// Generate case `index` of a run with `master` seed and the given
    /// arrival horizon. The draw order below is part of the repro format:
    /// changing it invalidates every recorded `(seed, index)` pair.
    pub fn generate(master: u64, index: usize, horizon: Slot) -> ChaosCase {
        let seed = case_seed(master, index);
        let mut rng = StdRng::seed_from_u64(seed);

        // 1. Geometry. K >= r' keeps the bufferless engine's "some line is
        //    free" guarantee in the fault-free case.
        let n = *pick(&mut rng, &[4usize, 8, 16]);
        let r_prime = *pick(&mut rng, &[2usize, 3]);
        let k = r_prime * rng.random_range(1..=3usize);

        // 2. First stage: mostly bufferless (the paper's base model); a
        //    quarter of cases exercise the buffered engine with a capacity
        //    generous enough that admissible traffic cannot overflow it.
        let buffered = rng.random_range(0..4u32) == 0;
        let buffer = if buffered { horizon as usize + 8 } else { 0 };

        // 3. Output discipline + watchdog.
        let discipline = if rng.random_range(0..10u32) < 7 {
            OutputDiscipline::FlowFifo
        } else {
            OutputDiscipline::GlobalFcfs
        };

        // 4. Fault schedule: two thirds of cases inject faults.
        let fault_count = if rng.random_range(0..3u32) < 2 {
            rng.random_range(1..=10usize)
        } else {
            0
        };
        let plan = random_plan(&mut rng, fault_count, k, n, r_prime, horizon);

        // A lost cell head-of-line-blocks FlowFifo/GlobalFcfs forever, so
        // faulted cases almost always arm the watchdog; a sliver keeps it
        // off to fuzz the stall path too.
        let watchdog = if !plan.is_empty() && rng.random_range(0..10u32) < 9 {
            Some(rng.random_range((2 * r_prime as Slot)..=(4 * r_prime as Slot + 8)))
        } else {
            None
        };

        // 5. Demultiplexor. Buffered cases use the buffered round-robin;
        //    faulted bufferless cases prefer (but are not limited to) the
        //    fault-aware algorithms.
        let demux = if buffered {
            DemuxChoice::BufferedRoundRobin
        } else if !plan.is_empty() && rng.random_range(0..10u32) < 7 {
            if rng.random_bool(0.5) {
                DemuxChoice::FaultAwareCentralized
            } else {
                DemuxChoice::FaultAwareUrt(rng.random_range(1..=8u64))
            }
        } else {
            match rng.random_range(0..5u32) {
                0 => DemuxChoice::RoundRobin,
                1 => DemuxChoice::PerFlowRoundRobin,
                2 => DemuxChoice::Random,
                3 => DemuxChoice::LeastLoadedLocal,
                _ => DemuxChoice::HashFlow,
            }
        };

        // 6. Traffic: load in [0.30, 0.95], bursty 40% of the time.
        let load_millis = rng.random_range(300..=950u32);
        let pattern = match rng.random_range(0..100u32) {
            0..=39 => TrafficPattern::Uniform,
            40..=64 => {
                // The hot output's aggregate load is n·ρ·hot + ρ·(1−hot);
                // keeping it ≤ 0.95 (admissibility) caps hot at
                // (0.95 − ρ) / (ρ·(n−1)). When the cap leaves no room,
                // fall back to uniform destinations.
                let cap = (1000u64 * u64::from(950u32.saturating_sub(load_millis))
                    / (u64::from(load_millis) * (n as u64 - 1))) as u32;
                if cap >= 100 {
                    TrafficPattern::Hotspot {
                        target: rng.random_range(0..n as u32),
                        hot: f64::from(rng.random_range(100..=cap.min(900))) / 1000.0,
                    }
                } else {
                    TrafficPattern::Uniform
                }
            }
            65..=84 => TrafficPattern::rotation(n, rng.random_range(1..n)),
            _ => TrafficPattern::Diagonal,
        };
        let traffic = if rng.random_range(0..10u32) < 4 {
            TrafficChoice::OnOff {
                mean_burst_tenths: rng.random_range(15..=80u32),
                pattern,
            }
        } else {
            TrafficChoice::Bernoulli { pattern }
        };

        // 7. Stochastic upgrade. A seed-derived hash — the same idiom as
        //    [`stepping`](Self::stepping),
        //    *not* a fresh RNG draw, so the draw order above is untouched —
        //    swaps the classic generator for a pps-workload stochastic one
        //    in a quarter of cases: an eighth Zipf flow populations, an
        //    eighth correlated MMPP bursts. Parameters are further pure
        //    hashes of the case seed; the Zipf flow→output salt hashes the
        //    *master* seed, so every Zipf case of a campaign replays the
        //    same flow universe (cross-case flow-id reuse — consecutive
        //    cases keep returning to the same hot resequencer rings).
        let h = case_seed(seed, 0x570C_4A57);
        let traffic = match h >> 61 {
            0 => TrafficChoice::Zipf {
                s_hundredths: 80 + ((h >> 8) % 51) as u32,
                flows: if (h >> 16) & 1 == 0 { 1 << 16 } else { 1 << 20 },
                salt: case_seed(master ^ 0xF10E_5A17_C0DE_0B0E, 0),
            },
            1 => TrafficChoice::Mmpp {
                calm_millis: 50 + ((h >> 8) % 200) as u32,
                burst_millis: 800 + ((h >> 24) % 151) as u32,
            },
            _ => traffic,
        };

        // 8. Demux-zoo upgrade. Same seed-hash idiom as step 7 — pure
        //    hashes of the already-drawn case seed, never fresh RNG
        //    draws, so the draw order above and every recorded
        //    `(seed, index)` repro pair stay valid. A quarter of the
        //    buffered cases swap round-robin for one of the Section 4
        //    buffered automata, and a quarter of the plain bufferless
        //    bucket for a load-balancing transplant; the fault-aware
        //    bucket keeps its deliberate prevalence under faults.
        let h = case_seed(seed, 0x00DE_5A00);
        let demux = match demux {
            DemuxChoice::BufferedRoundRobin => {
                let u = 1 + ((h >> 8) % 8);
                match h >> 61 {
                    // Delayed CPA only in its Theorem 12 regime; outside
                    // it, fall back to the stale automaton at full hold.
                    0 if discipline == OutputDiscipline::GlobalFcfs && k >= 2 * r_prime => {
                        DemuxChoice::DelayedCpa(u)
                    }
                    0 => DemuxChoice::BufferedStale(u, u),
                    1 => DemuxChoice::BufferedStale(u, (h >> 16) % (u + 1)),
                    _ => demux,
                }
            }
            DemuxChoice::RoundRobin
            | DemuxChoice::PerFlowRoundRobin
            | DemuxChoice::Random
            | DemuxChoice::LeastLoadedLocal
            | DemuxChoice::HashFlow => match h >> 61 {
                0 => DemuxChoice::TwoStageLb,
                1 => DemuxChoice::LeastLoadedOfD(2 + ((h >> 8) & 1) as usize),
                _ => demux,
            },
            other => other,
        };

        ChaosCase {
            index,
            seed,
            n,
            k,
            r_prime,
            buffer,
            discipline,
            watchdog,
            demux,
            traffic,
            load_millis,
            horizon,
            plan,
            truncate_at: None,
        }
    }

    /// The engine configuration this case describes.
    pub fn config(&self) -> PpsConfig {
        PpsConfig {
            n: self.n,
            k: self.k,
            r_prime: self.r_prime,
            buffer: if self.buffer == 0 {
                BufferSpec::Bufferless
            } else {
                BufferSpec::Buffered { size: self.buffer }
            },
            discipline: self.discipline,
            watchdog: self.watchdog,
        }
    }

    /// Generate the case's arrival trace. The trace is always generated at
    /// the full horizon and then cut at [`ChaosCase::truncate_at`], so a
    /// truncated case sees an exact prefix of the original arrivals — the
    /// property the shrinker relies on.
    pub fn trace(&self) -> Trace {
        let load = f64::from(self.load_millis) / 1000.0;
        let full = match &self.traffic {
            TrafficChoice::Bernoulli { pattern } => BernoulliGen {
                load,
                pattern: pattern.clone(),
                seed: self.seed ^ 0xA5A5_5A5A_0F0F_F0F0,
            }
            .trace(self.n, self.horizon),
            TrafficChoice::OnOff {
                mean_burst_tenths,
                pattern,
            } => OnOffGen {
                mean_burst: f64::from(*mean_burst_tenths) / 10.0,
                load,
                pattern: pattern.clone(),
                seed: self.seed ^ 0xA5A5_5A5A_0F0F_F0F0,
            }
            .trace(self.n, self.horizon),
            TrafficChoice::Zipf {
                s_hundredths,
                flows,
                salt,
            } => {
                let mut g = ZipfGen::new(
                    self.seed ^ 0xA5A5_5A5A_0F0F_F0F0,
                    self.n,
                    load,
                    f64::from(*s_hundredths) / 100.0,
                    *flows,
                )
                .with_flow_salt(*salt);
                materialize(&mut g, self.horizon)
            }
            TrafficChoice::Mmpp {
                calm_millis,
                burst_millis,
            } => {
                let mut g = MmppGen::new(
                    self.seed ^ 0xA5A5_5A5A_0F0F_F0F0,
                    self.n,
                    Phase {
                        arrival_p: f64::from(*calm_millis) / 1000.0,
                        exit_p: MMPP_CALM_EXIT,
                    },
                    Phase {
                        arrival_p: f64::from(*burst_millis) / 1000.0,
                        exit_p: MMPP_BURST_EXIT,
                    },
                );
                materialize(&mut g, self.horizon)
            }
        };
        match self.truncate_at {
            None => full,
            Some(t) => {
                let kept: Vec<_> = full
                    .arrivals()
                    .iter()
                    .copied()
                    .filter(|a| a.slot <= t)
                    .collect();
                Trace::build(kept, self.n).expect("prefix of a valid trace is valid")
            }
        }
    }

    /// The slot-stepping mode this case runs its engines with. Derived
    /// from the already-drawn `seed` (a multiply-and-shift hash, *not* a
    /// fresh RNG draw), so adding it did not change the generation draw
    /// order and every recorded `(seed, index)` repro pair stays valid.
    /// Roughly half the cases fuzz each mode.
    pub fn stepping(&self) -> pps_core::Stepping {
        if self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63 == 0 {
            pps_core::Stepping::Dense
        } else {
            pps_core::Stepping::SkipAhead
        }
    }

    /// The scheduler the comparison crossbar runs for this case. Derived
    /// from the already-drawn `seed` by the same hash idiom as
    /// [`stepping`](Self::stepping) — *not* a fresh RNG draw — so adding
    /// it changed no recorded `(seed, index)` repro pair. Half the cases
    /// keep iSLIP (the historical comparison engine); the rest split
    /// between the sampling schedulers with hash-drawn parameters.
    pub fn crossbar_sched(&self) -> CrossbarChoice {
        let h = case_seed(self.seed, 0x5CED_0CB5);
        match h >> 62 {
            0 | 1 => CrossbarChoice::Islip,
            2 => CrossbarChoice::QpsR(1 + ((h >> 8) % 3) as usize),
            _ => CrossbarChoice::SwQps(2 + ((h >> 8) % 7) as usize),
        }
    }

    /// The matching policy the comparison CIOQ switch runs for this case:
    /// half the cases keep the critical-cell-first EDF matching, the rest
    /// run the Cogill–Lall maximal round-robin matching. Same seed-hash
    /// idiom as [`crossbar_sched`](Self::crossbar_sched).
    pub fn cioq_policy(&self) -> pps_crossbar::CioqPolicy {
        if case_seed(self.seed, 0x0C10_90CA) >> 63 == 0 {
            pps_crossbar::CioqPolicy::CriticalFirst
        } else {
            pps_crossbar::CioqPolicy::MaximalRr
        }
    }

    /// Whether the paper's relative-delay envelope is a sound oracle for
    /// this case: the bound is proved for fault-free bufferless runs with
    /// an order-preserving discipline and no watchdog skips, and the chaos
    /// harness additionally restricts it to the deterministic spreading
    /// demuxes (random/hash placement can concentrate a flow arbitrarily).
    pub fn relative_delay_eligible(&self) -> bool {
        self.buffer == 0
            && self.plan.is_empty()
            && self.watchdog.is_none()
            && self.discipline == OutputDiscipline::FlowFifo
            && matches!(
                self.demux,
                DemuxChoice::RoundRobin | DemuxChoice::PerFlowRoundRobin
            )
    }
}

fn pick<'a, T>(rng: &mut StdRng, options: &'a [T]) -> &'a T {
    &options[rng.random_range(0..options.len())]
}

/// Draw `count` random fault events against a `k`-plane switch.
///
/// Downs always outnumber what recovery can mask: planes are drawn from
/// the full range, so Down/Up pairs, double-downs and ups without a prior
/// down all occur — the engine treats those as no-ops, and the oracles
/// must too. At least one plane is always left standing by construction
/// (`fail_plane` on the last live plane is the engine's problem to refuse,
/// not ours to avoid — but a plan that downs all `k` planes at once makes
/// every arrival droppable and the run degenerate, so the drawer caps
/// simultaneous downs at `k - 1`).
fn random_plan(
    rng: &mut StdRng,
    count: usize,
    k: usize,
    n: usize,
    r_prime: usize,
    horizon: Slot,
) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let mut down = vec![false; k];
    for _ in 0..count {
        let at = rng.random_range(1..horizon.max(2));
        match rng.random_range(0..100u32) {
            0..=44 => {
                let plane = rng.random_range(0..k as u32);
                if down.iter().filter(|d| **d).count() < k - 1 || down[plane as usize] {
                    down[plane as usize] = true;
                    plan = plan.plane_down(plane, at);
                }
            }
            45..=74 => {
                let plane = rng.random_range(0..k as u32);
                down[plane as usize] = false;
                plan = plan.plane_up(plane, at);
            }
            _ => {
                let input = rng.random_range(0..n as u32);
                let plane = rng.random_range(0..k as u32);
                let until = at + rng.random_range(1..=(3 * r_prime as Slot));
                plan = plan.link_degraded(input, plane, at, until);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ChaosCase::generate(42, 7, 256);
        let b = ChaosCase::generate(42, 7, 256);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.n, b.n);
        assert_eq!(a.demux, b.demux);
        assert_eq!(a.plan.events(), b.plan.events());
        assert_eq!(a.trace().arrivals(), b.trace().arrivals());
    }

    #[test]
    fn different_indices_differ() {
        let a = ChaosCase::generate(42, 0, 256);
        let b = ChaosCase::generate(42, 1, 256);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn truncation_is_an_exact_prefix() {
        let mut case = ChaosCase::generate(42, 3, 256);
        let full = case.trace();
        case.truncate_at = Some(100);
        let cut = case.trace();
        let expect: Vec<_> = full
            .arrivals()
            .iter()
            .copied()
            .filter(|a| a.slot <= 100)
            .collect();
        assert_eq!(cut.arrivals(), expect.as_slice());
    }

    #[test]
    fn generated_plans_validate() {
        for i in 0..64 {
            let case = ChaosCase::generate(7, i, 128);
            case.plan
                .validate(&case.config())
                .unwrap_or_else(|e| panic!("case {i}: {e}"));
        }
    }

    #[test]
    fn hotspot_loads_stay_admissible() {
        for i in 0..256 {
            let case = ChaosCase::generate(1234, i, 128);
            if let Some(TrafficPattern::Hotspot { hot, .. }) = case.traffic.pattern() {
                let rho = f64::from(case.load_millis) / 1000.0;
                let aggregate = case.n as f64 * rho * hot + rho * (1.0 - hot);
                assert!(aggregate <= 0.96, "case {i}: hot output oversubscribed");
            }
        }
    }

    #[test]
    fn stochastic_upgrade_mixes_families() {
        // The seed-hash upgrade should leave the classic generators in the
        // majority while both stochastic families appear; expected split is
        // 6/8 classic, 1/8 each Zipf/MMPP.
        let mut seen = std::collections::HashMap::new();
        for i in 0..512 {
            let case = ChaosCase::generate(42, i, 64);
            *seen.entry(case.traffic.name()).or_insert(0usize) += 1;
        }
        assert!(seen.get("zipf").copied().unwrap_or(0) > 20, "{seen:?}");
        assert!(seen.get("mmpp").copied().unwrap_or(0) > 20, "{seen:?}");
        let classic =
            seen.get("bern").copied().unwrap_or(0) + seen.get("onoff").copied().unwrap_or(0);
        assert!(classic > 256, "classic generators crowded out: {seen:?}");
    }

    #[test]
    fn demux_zoo_upgrade_mixes_all_families() {
        // The step-8 remap must surface every new demux while leaving the
        // original families in place: buffered cases stay 3/4 round-robin,
        // the plain bufferless bucket stays 3/4 classic, and the
        // fault-aware bucket is untouched.
        let mut seen = std::collections::HashMap::new();
        for i in 0..2048 {
            let case = ChaosCase::generate(42, i, 64);
            *seen.entry(case.demux.name()).or_insert(0usize) += 1;
        }
        for name in ["2s-lb", "ll-of-d", "buf-stale", "buf-rr", "fa-rr-c"] {
            assert!(seen.get(name).copied().unwrap_or(0) > 8, "{name}: {seen:?}");
        }
        // Delayed CPA needs the (rarer) GlobalFcfs + speedup-2 regime but
        // must still appear in a campaign-sized corpus.
        assert!(seen.get("dcpa").copied().unwrap_or(0) > 0, "{seen:?}");
        assert!(
            seen.get("buf-rr").copied().unwrap_or(0) > seen.get("buf-stale").copied().unwrap_or(0),
            "{seen:?}"
        );
    }

    #[test]
    fn demux_zoo_upgrade_draws_valid_parameters() {
        for i in 0..2048 {
            let case = ChaosCase::generate(7, i, 64);
            match case.demux {
                DemuxChoice::BufferedStale(u, hold) => {
                    assert!(u >= 1 && hold <= u, "case {i}: u={u} hold={hold}");
                    assert!(case.buffer > u as usize, "case {i}: buffer too small");
                }
                DemuxChoice::DelayedCpa(u) => {
                    assert!(u >= 1, "case {i}");
                    assert!(case.buffer > u as usize, "case {i}: buffer too small");
                    assert_eq!(case.discipline, OutputDiscipline::GlobalFcfs, "case {i}");
                    assert!(case.k >= 2 * case.r_prime, "case {i}: speedup < 2");
                }
                DemuxChoice::LeastLoadedOfD(d) => {
                    assert!((2..=3).contains(&d), "case {i}: d={d}")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn comparison_engine_draws_mix_and_stay_deterministic() {
        let mut sched = std::collections::HashMap::new();
        let mut maximal = 0usize;
        for i in 0..512 {
            let case = ChaosCase::generate(42, i, 64);
            *sched.entry(case.crossbar_sched().name()).or_insert(0usize) += 1;
            if case.cioq_policy() == pps_crossbar::CioqPolicy::MaximalRr {
                maximal += 1;
            }
            assert_eq!(case.crossbar_sched(), case.crossbar_sched());
            assert_eq!(case.cioq_policy(), case.cioq_policy());
        }
        for name in ["islip", "qps-r", "sw-qps"] {
            assert!(sched.get(name).copied().unwrap_or(0) > 32, "{sched:?}");
        }
        assert!(
            sched["islip"] > sched["qps-r"] && sched["islip"] > sched["sw-qps"],
            "iSLIP must stay the majority comparison engine: {sched:?}"
        );
        assert!(
            (100..412).contains(&maximal),
            "CIOQ split skewed: {maximal}"
        );
    }

    #[test]
    fn recorded_repro_pair_still_regenerates() {
        // chaos-repros/case-001 was recorded before the scheduler-zoo
        // upgrades; the seed-hash idiom guarantees its case fields are
        // byte-identical today. Pin them so a draw-order regression is a
        // test failure, not a stale repro discovered in anger.
        let case = ChaosCase::generate(42, 1, 256);
        assert_eq!(case.seed, 13679457532755275413);
        assert_eq!(case.n, 16);
        assert_eq!(case.k, 6);
        assert_eq!(case.r_prime, 2);
        assert_eq!(case.buffer, 0);
        assert_eq!(case.discipline, OutputDiscipline::FlowFifo);
        assert_eq!(case.watchdog, Some(13));
        assert_eq!(case.demux, DemuxChoice::FaultAwareCentralized);
        assert_eq!(case.traffic.name(), "onoff");
        assert_eq!(case.load_millis, 568);
        // The on-disk repro keeps 1 of the original fault events (the
        // shrinker's doing; plan.csv overrides the plan at replay).
        assert_eq!(case.plan.events().len(), 7);
    }

    #[test]
    fn zipf_cases_share_one_flow_universe() {
        // Every Zipf case of a campaign carries the same master-derived
        // salt (cross-case flow-id reuse); a different master moves it.
        let salts: Vec<u64> = (0..512)
            .filter_map(|i| match ChaosCase::generate(42, i, 64).traffic {
                TrafficChoice::Zipf { salt, .. } => Some(salt),
                _ => None,
            })
            .collect();
        assert!(salts.len() > 20, "too few Zipf cases: {}", salts.len());
        assert!(salts.windows(2).all(|w| w[0] == w[1]));
        let other = (0..512)
            .filter_map(|i| match ChaosCase::generate(43, i, 64).traffic {
                TrafficChoice::Zipf { salt, .. } => Some(salt),
                _ => None,
            })
            .next()
            .unwrap();
        assert_ne!(salts[0], other);
    }

    #[test]
    fn stochastic_traces_are_deterministic_and_truncate() {
        let mut found = (false, false);
        for i in 0..512 {
            let mut case = ChaosCase::generate(9, i, 256);
            let fresh = match case.traffic {
                TrafficChoice::Zipf { .. } => {
                    found.0 = true;
                    true
                }
                TrafficChoice::Mmpp { .. } => {
                    found.1 = true;
                    true
                }
                _ => false,
            };
            if !fresh {
                continue;
            }
            let full = case.trace();
            assert_eq!(full.arrivals(), case.trace().arrivals());
            case.truncate_at = Some(64);
            let cut = case.trace();
            let expect: Vec<_> = full
                .arrivals()
                .iter()
                .copied()
                .filter(|a| a.slot <= 64)
                .collect();
            assert_eq!(cut.arrivals(), expect.as_slice());
            if found.0 && found.1 {
                return;
            }
        }
        panic!("corpus produced no stochastic case: {found:?}");
    }
}
