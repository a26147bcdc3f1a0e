//! Large-fabric benches: three shapes that stress the serial fabric walk
//! from different sides.
//!
//! * `plane_shard_*` — plane-heavy service sweeps at N = 512 and
//!   N = 2048 across K = 32 planes;
//! * `reseq_shard_n512` — an emit-dominated workload (every output
//!   active, GlobalFcfs reordering) that loads the resequencers;
//! * `barrier_*` — a small-N, long-horizon run at K = 8 and K = 32 where
//!   per-slot work is tiny, so fixed per-slot overhead dominates.
//!
//! The group, the shape names and the `intra1` suffix are the ids gated in
//! BENCH_baselines.json. They date from when the fabric could also split
//! one run across threads (removed; DESIGN.md §16), and they keep their
//! names so the committed baselines stay comparable across that removal.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use pps_core::prelude::*;
use pps_switch::demux::RoundRobinDemux;
use pps_switch::engine::BufferlessPps;

fn run(cfg: PpsConfig, trace: &Trace) -> u64 {
    let (n, k) = (cfg.n, cfg.k);
    let mut pps = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k)).expect("engine");
    pps.run(trace).expect("run").end_slot
}

/// Full-load bursts alternating between concentrating on output 0 and
/// spreading over all outputs: planes stay loaded and the active list
/// stays long, so both the service and emit sweeps have real work.
fn heavy_trace(n: usize, slots: u64) -> Trace {
    let mut v = Vec::new();
    for s in 0..slots {
        for i in 0..n as u32 {
            let j = if s % 2 == 0 {
                0
            } else {
                (i + s as u32) % n as u32
            };
            v.push(Arrival::new(s, i, j));
        }
    }
    Trace::build(v, n).expect("trace")
}

/// Giant port counts across K = 32 planes.
fn bench_plane_service(c: &mut Criterion) {
    for (n, slots) in [(512usize, 8u64), (2048, 2)] {
        let cfg = PpsConfig::bufferless(n, 32, 2);
        let trace = heavy_trace(n, slots);
        let mut g = c.benchmark_group("intra_run");
        g.sample_size(10);
        g.throughput(Throughput::Elements(trace.len() as u64));
        g.bench_with_input(
            BenchmarkId::new(format!("plane_shard_n{n}"), "intra1"),
            &trace,
            |b, t| b.iter(|| run(cfg, black_box(t))),
        );
        g.finish();
    }
}

/// GlobalFcfs makes every delivery pass through the reorder machinery,
/// and uniform spread keeps all N output muxes on the active list at once.
fn bench_resequencer(c: &mut Criterion) {
    let n = 512usize;
    let cfg = PpsConfig::bufferless(n, 8, 2).with_discipline(OutputDiscipline::GlobalFcfs);
    let mut v = Vec::new();
    for s in 0..12u64 {
        for i in 0..n as u32 {
            v.push(Arrival::new(s, i, (i + s as u32) % n as u32));
        }
    }
    let trace = Trace::build(v, n).expect("trace");
    let mut g = c.benchmark_group("intra_run");
    g.sample_size(10);
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_with_input(
        BenchmarkId::new("reseq_shard_n512", "intra1"),
        &trace,
        |b, t| b.iter(|| run(cfg, black_box(t))),
    );
    g.finish();
}

/// Per-slot overhead: tiny per-slot work over a long horizon. K = 8 vs
/// K = 32 varies how much state each slot touches.
fn bench_per_slot(c: &mut Criterion) {
    for k in [8usize, 32] {
        let n = 64usize;
        let cfg = PpsConfig::bufferless(n, k, 2);
        let trace = heavy_trace(n, 200);
        let mut g = c.benchmark_group("intra_run");
        g.sample_size(10);
        g.throughput(Throughput::Elements(trace.horizon()));
        g.bench_with_input(
            BenchmarkId::new(format!("barrier_k{k}"), "intra1"),
            &trace,
            |b, t| b.iter(|| run(cfg, black_box(t))),
        );
        g.finish();
    }
}

criterion_group!(
    intra_run,
    bench_plane_service,
    bench_resequencer,
    bench_per_slot
);
criterion_main!(intra_run);
