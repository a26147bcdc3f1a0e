//! Engine-construction benches (DESIGN.md §11, "state sized to activity"):
//! what a run pays before and around its traffic. Sparse large-N attacks
//! are dominated by this, not by slot work.
//!
//! * `pps_*` — `BufferlessPps::new` plus drop at N ∈ {256, 1024}, K = 8,
//!   for a FlowFifo and a GlobalFcfs output discipline. Output muxes size
//!   their per-flow tables on first use, so construction is O(N·K) for the
//!   planes and links, not O(N²) for the resequencers.
//! * `oq_hot_burst` — `run_oq` on a 1024-port switch where every input
//!   sends one cell to output 0 in slot 0: 1024 busy slots with a single
//!   non-empty queue, which the shadow OQ's bitset walks in N/64 words.
//!
//! Every entry is gated in CI via BENCH_baselines.json.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pps_core::prelude::*;
use pps_reference::oq::run_oq;
use pps_switch::demux::RoundRobinDemux;
use pps_switch::engine::BufferlessPps;

fn bench_pps_construct(c: &mut Criterion) {
    let mut g = c.benchmark_group("construct");
    g.sample_size(10);
    for (name, discipline) in [
        ("pps_flow_fifo", OutputDiscipline::FlowFifo),
        ("pps_global_fcfs", OutputDiscipline::GlobalFcfs),
    ] {
        for n in [256usize, 1024] {
            let cfg = PpsConfig::bufferless(n, 8, 4).with_discipline(discipline);
            g.bench_with_input(BenchmarkId::new(name, format!("n{n}")), &cfg, |b, &cfg| {
                b.iter(|| BufferlessPps::new(black_box(cfg), RoundRobinDemux::new(n, 8)))
            });
        }
    }
    g.finish();
}

fn bench_oq_hot_burst(c: &mut Criterion) {
    let n = 1024usize;
    let trace =
        Trace::build((0..n as u32).map(|i| Arrival::new(0, i, 0)).collect(), n).expect("trace");
    let mut g = c.benchmark_group("construct");
    g.sample_size(10);
    g.bench_with_input(
        BenchmarkId::new("oq_hot_burst", format!("n{n}")),
        &trace,
        |b, t| b.iter(|| run_oq(black_box(t), n).len()),
    );
    g.finish();
}

criterion_group!(benches, bench_pps_construct, bench_oq_hot_burst);
criterion_main!(benches);
