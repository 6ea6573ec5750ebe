//! Microkernels: timed loops with a fixed iteration count over one
//! public function each. They do not depend on the workload, so every
//! traced run measures them. A kernel that is not reachable through
//! today's public API is listed in the README as "needs an accessor".

use crate::common::JOBS;
use crate::inputs::{self, Scale};
use crate::report::Report;
use bench::proto::{decode_response, encode, Request, Response};
use bench::{
    point_cache_key, run_sweep_parallel, LatencyPoint, SchemeId, Store, SweepOptions, SweepResult,
    WireSpec,
};
use noc_core::rng::DetRng;
use noc_core::stats::Distribution;
use noc_core::topology::{Port, NUM_PORTS};
use noc_sim::arbiter::RoundRobin;
use noc_sim::routing::{
    DorXy, DorYx, EscapeVcRouting, FullyAdaptive, RouteReq, RoutingPolicy, WestFirst,
};
use noc_sim::Simulation;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use traffic::SyntheticPattern;

/// Times `iters` calls of `f`; returns nanoseconds per call.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let begun = Instant::now();
    for i in 0..iters {
        f(i);
    }
    begun.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// A saturated simulation whose buffers are full: the live state the
/// routing and arena kernels read.
fn live_sim(scale: Scale, seed: u64) -> Simulation {
    let size = match scale {
        Scale::Full => 8,
        Scale::Tiny => 4,
    };
    let mut sim = bench::runner::make_sim(
        SchemeId::EscapeVc,
        SyntheticPattern::Uniform,
        0.14,
        size,
        2,
        seed % 100_000,
    );
    sim.run(400);
    sim
}

/// Route requests for every head buffered in the live simulation.
fn route_requests(sim: &Simulation) -> Vec<RouteReq> {
    let core = &sim.core;
    let mut reqs = Vec::new();
    for node in core.mesh().nodes() {
        for port in Port::all() {
            for (vc, occ) in core.input(node, port.index()).occupied() {
                reqs.push(RouteReq::new(core, node, port, vc, occ.pkt));
            }
        }
    }
    reqs
}

/// Runs every kernel and stores its row.
pub fn run(report: &mut Report, scale: Scale, seed: u64, scratch: &Path) {
    // Tiny runs (possibly a debug build) only prove the kernels execute.
    let scaled = |n: u64| match scale {
        Scale::Full => n,
        Scale::Tiny => (n / 200).max(2),
    };

    report.set(
        "benchmark.timer_ns",
        ns_per_call(scaled(1_000_000), |_| {
            black_box(Instant::now());
        }),
    );

    let mut rng = DetRng::new(seed);
    let mut acc = 0.0;
    report.set(
        "noc-core.rng.ns_per_draw",
        ns_per_call(scaled(4_000_000), |_| acc += rng.f64()),
    );
    black_box(acc);

    let n = scaled(2_000_000);
    let mut dist = Distribution::new();
    report.set(
        "noc-core.stats.record_ns",
        ns_per_call(n, |i| dist.record(black_box(i & 0xFF))),
    );
    black_box(dist.count());

    // 60 requesters = 5 ports x 12 VCs, the EscapeVC router's width.
    let mut arbiter = RoundRobin::new(60);
    let mut granted = 0usize;
    report.set(
        "noc-sim.arbiter.grant_ns",
        ns_per_call(scaled(4_000_000), |i| {
            let words = [black_box(
                0x0842_1084_2108_4210u64.rotate_left((i % 5) as u32) & ((1 << 60) - 1),
            )];
            granted += arbiter.grant_words(&words).unwrap_or(0);
        }),
    );
    black_box(granted);

    let sim = live_sim(scale, seed);
    let reqs = route_requests(&sim);
    if !reqs.is_empty() {
        let mut policies: Vec<Box<dyn RoutingPolicy>> = vec![
            Box::new(DorXy),
            Box::new(DorYx),
            Box::new(FullyAdaptive::new(seed)),
            Box::new(WestFirst::new(seed)),
            Box::new(EscapeVcRouting::new(seed)),
        ];
        let rounds = scaled(400_000) / reqs.len() as u64 + 1;
        let mut routed = 0u64;
        let begun = Instant::now();
        for _ in 0..rounds {
            for policy in &mut policies {
                for req in &reqs {
                    routed += u64::from(policy.route(&sim.core, black_box(req)).is_some());
                }
            }
        }
        let calls = rounds * policies.len() as u64 * reqs.len() as u64;
        report.set(
            "noc-sim.routing.route_ns",
            begun.elapsed().as_nanos() as f64 / calls as f64,
        );
        black_box(routed);
    }

    let nodes: Vec<_> = sim.core.mesh().nodes().collect();
    let mut occupied = 0usize;
    let scans = scaled(2_000) * (nodes.len() * NUM_PORTS) as u64;
    let begun = Instant::now();
    for _ in 0..scaled(2_000) {
        for &node in &nodes {
            for port in 0..NUM_PORTS {
                occupied += black_box(sim.core.input(node, port)).occupied().count();
            }
        }
    }
    report.set(
        "noc-sim.arena.occupied_scan_ns",
        begun.elapsed().as_nanos() as f64 / scans as f64,
    );
    black_box(occupied);

    // One 24-point job: what the daemon's submit and result lines carry.
    let job = inputs::serve_job(scale, seed % 100_000);
    let mut keys = 0u64;
    let key_iters = scaled(20_000);
    report.set(
        "bench.runner.key_ns",
        ns_per_call(key_iters, |i| {
            let spec = &job[(i % job.len() as u64) as usize];
            keys ^= point_cache_key(black_box(spec), spec.rates[0]);
        }),
    );
    black_box(keys);

    let wire: Vec<WireSpec> = job.iter().map(WireSpec::from_spec).collect();
    let submit = Request::Submit { specs: wire };
    let mut bytes = 0usize;
    report.set(
        "bench.proto.encode_submit_us",
        ns_per_call(scaled(2_000), |_| bytes += encode(black_box(&submit)).len()) / 1e3,
    );
    let point = LatencyPoint {
        rate: 0.05,
        avg_latency: 12.345_678_9,
        throughput: 0.049_876_5,
        delivered: 1_234,
        fastpass_fraction: 0.123_456,
        dropped_fraction: 0.001_234,
    };
    let result_line = encode(&Response::Result {
        job: 1,
        sweeps: job
            .iter()
            .map(|s| SweepResult {
                scheme: s.id.name().to_string(),
                pattern: s.pattern.name().to_string(),
                size: s.size,
                points: s
                    .rates
                    .iter()
                    .map(|&rate| LatencyPoint {
                        rate,
                        ..point.clone()
                    })
                    .collect(),
            })
            .collect(),
    });
    report.set(
        "bench.proto.decode_result_us",
        ns_per_call(scaled(2_000), |_| {
            bytes += usize::from(decode_response(black_box(&result_line)).is_ok());
        }) / 1e3,
    );
    black_box(bytes);

    let dir = scratch.join("kernel-store");
    let store = Store::new(dir.clone());
    let n = scaled(400);
    report.set(
        "bench.store.write_us",
        ns_per_call(n, |i| {
            black_box(store.store(i, &point));
        }) / 1e3,
    );
    let stats = store.stats();
    report.set(
        "bench.store.bytes_per_point",
        stats.bytes as f64 / stats.entries.max(1) as f64,
    );
    let mut hits = 0u64;
    report.set(
        "bench.store.load_hit_us",
        ns_per_call(n, |i| hits += u64::from(store.load(black_box(i)).is_some())) / 1e3,
    );
    report.set(
        "bench.store.load_miss_us",
        ns_per_call(n, |i| {
            hits += u64::from(store.load(black_box(i + n)).is_some())
        }) / 1e3,
    );
    black_box(hits);
    // An empty spec list with the cache on: the part of a pass that is
    // not per point (thread scope, `git_sha`).
    let opts = SweepOptions {
        jobs: JOBS,
        cache_dir: Some(dir.clone()),
        progress: false,
    };
    report.set(
        "bench.runner.warm_pass_fixed_us",
        ns_per_call(scaled(200), |_| {
            black_box(run_sweep_parallel(&[], &opts).len());
        }) / 1e3,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
