//! The metric and workload catalogue: every name the benchmark prints,
//! with its unit, direction and time base. `BENCHMARK.json` at the repo
//! root carries the same names; the self-test fails when the two drift.

/// Which clock (or none) a metric is read from. Host time and simulated
/// time are never mixed in one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// Wall-clock time of the machine running the simulator.
    Host,
    /// Cycles (or per-cycle rates) of the modelled network; exact for a
    /// given seed.
    Sim,
    /// A plain count or size.
    Count,
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen (`None` on per-layer metrics).
    pub bound: Option<f64>,
    /// Clock the value is read from.
    pub base: Base,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_better: bool,
    bound: f64,
    base: Base,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_better,
        bound: Some(bound),
        base,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_better: bool,
    base: Base,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_better,
        bound: None,
        base,
    }
}

/// The six workloads, in run order, each with its one-line reason.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "engine_zeroload",
        "8x8, eight schemes x {uniform, transpose} at rate 0.01, serial: sparse active set, per-cycle fixed cost, traffic generation and NI work dominate; bypasses store and daemon",
    ),
    (
        "engine_saturated",
        "same 16-point matrix at rate 0.14, past every knee: every VC occupied, route/switch allocation, arena scans and the schemes' recovery paths do the work",
    ),
    (
        "engine_protocol",
        "Fig. 10 grid, seven apps x eight configs run to completion: closed-loop MSHR-limited coherence traffic that no synthetic workload touches",
    ),
    (
        "sweep_cold",
        "Fig. 7 transpose panel, 64 points through run_sweep_parallel with jobs=2 and a fresh store per pass: regenerate a figure panel from nothing",
    ),
    (
        "sweep_warm",
        "the same 64 points, store primed in set-up, all-hit passes: key hashing, store load and decode, thread spawn and git_sha do everything; the engine is bypassed",
    ),
    (
        "serve_mixed",
        "nocserve on a Unix socket, two closed-loop clients, 24-point 4x4 jobs with shared, primed and re-submitted seeds: registry, dedup, batch claim, proto and socket on the critical path",
    ),
];

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", false, 0.25, Base::Host),
    // Host-time bounds are as wide as the contract allows: on the shared
    // two-core sandbox the box's slow states outlast a run and shift the
    // same binary's numbers by up to 15% (README, "Run-to-run spread").
    e2e("points_per_s", "1/s", true, 0.25, Base::Host),
    e2e("sim_cycles_per_s", "1/s", true, 0.25, Base::Host),
    e2e("op_p50_ms", "ms", false, 0.25, Base::Host),
    e2e("peak_rss_mb", "MiB", false, 0.25, Base::Count),
    // Exact for one seed, but the driver compares across seeds: at 0.14
    // load they move the mean latency by 4-8% between quartiles.
    e2e("model_latency_cycles", "cycles", false, 0.25, Base::Sim),
    e2e(
        "model_accepted_load",
        "pkt/node/cycle",
        true,
        0.25,
        Base::Sim,
    ),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A row
/// whose layer the workload never enters reads 0.
pub const PER_LAYER: [MetricDef; 83] = [
    // noc-core kernels
    layer("noc-core.rng.ns_per_draw", "ns", false, Base::Host),
    layer("noc-core.stats.record_ns", "ns", false, Base::Host),
    // noc-sim.engine, from construct / warmup / measure spans
    layer("noc-sim.engine.construct_us", "us", false, Base::Host),
    layer(
        "noc-sim.engine.warmup_ns_per_cycle",
        "ns",
        false,
        Base::Host,
    ),
    layer(
        "noc-sim.engine.measure_ns_per_cycle",
        "ns",
        false,
        Base::Host,
    ),
    layer("noc-sim.engine.ns_per_link_flit", "ns", false, Base::Host),
    // noc-sim pipeline phases, self time per simulated cycle
    layer(
        "noc-sim.phase.workload_tick.ns_per_cycle",
        "ns",
        false,
        Base::Host,
    ),
    layer(
        "noc-sim.phase.scheme_step.ns_per_cycle",
        "ns",
        false,
        Base::Host,
    ),
    layer(
        "noc-sim.phase.route_alloc.ns_per_cycle",
        "ns",
        false,
        Base::Host,
    ),
    layer(
        "noc-sim.phase.switch_alloc.ns_per_cycle",
        "ns",
        false,
        Base::Host,
    ),
    layer("noc-sim.phase.eject.ns_per_cycle", "ns", false, Base::Host),
    layer("noc-sim.phase.inject.ns_per_cycle", "ns", false, Base::Host),
    layer(
        "noc-sim.phase.apply_staged.ns_per_cycle",
        "ns",
        false,
        Base::Host,
    ),
    layer(
        "noc-sim.phase.ni_consume.ns_per_cycle",
        "ns",
        false,
        Base::Host,
    ),
    layer(
        "noc-sim.phase.unattributed.ns_per_cycle",
        "ns",
        false,
        Base::Host,
    ),
    // noc-sim kernels
    layer("noc-sim.arbiter.grant_ns", "ns", false, Base::Host),
    layer("noc-sim.routing.route_ns", "ns", false, Base::Host),
    layer("noc-sim.arena.occupied_scan_ns", "ns", false, Base::Host),
    // noc-sim.batch
    layer("noc-sim.batch.cycles_per_s", "1/s", true, Base::Host),
    layer("noc-sim.batch.speedup_vs_serial", "ratio", true, Base::Host),
    // observation overheads
    layer("noc-sim.sampler.overhead_pct", "%", false, Base::Host),
    layer("noc-trace.counters.overhead_pct", "%", false, Base::Host),
    layer("noc-trace.full.overhead_pct", "%", false, Base::Host),
    // noc-sim.model: simulated counts, exact for a seed
    layer(
        "noc-sim.model.stall.link_suppressed",
        "1/kcycle",
        false,
        Base::Sim,
    ),
    layer("noc-sim.model.stall.sa_lost", "1/kcycle", false, Base::Sim),
    layer(
        "noc-sim.model.stall.ej_backpressure",
        "1/kcycle",
        false,
        Base::Sim,
    ),
    layer(
        "noc-sim.model.stall.ej_reserved",
        "1/kcycle",
        false,
        Base::Sim,
    ),
    layer(
        "noc-sim.model.stall.ej_preempted",
        "1/kcycle",
        false,
        Base::Sim,
    ),
    layer(
        "noc-sim.model.stall.no_free_vc",
        "1/kcycle",
        false,
        Base::Sim,
    ),
    layer(
        "noc-sim.model.stall.route_blocked",
        "1/kcycle",
        false,
        Base::Sim,
    ),
    layer("noc-sim.model.link_flits_regular", "count", true, Base::Sim),
    layer("noc-sim.model.link_flits_bypass", "count", true, Base::Sim),
    layer("noc-sim.model.mean_vc_occupancy", "count", false, Base::Sim),
    layer("noc-sim.model.rejections", "count", false, Base::Sim),
    layer("noc-sim.model.deflections", "count", false, Base::Sim),
    layer("noc-sim.model.collapsed_points", "count", false, Base::Sim),
    // fastpass
    layer("fastpass.scheme.ns_per_cycle", "ns", false, Base::Host),
    layer("fastpass.scheme.build_us", "us", false, Base::Host),
    layer("fastpass.model.bypass_fraction", "ratio", true, Base::Sim),
    layer("fastpass.model.dropped_fraction", "ratio", false, Base::Sim),
    layer(
        "fastpass.model.bypass_launches_per_kcycle",
        "1/kcycle",
        true,
        Base::Sim,
    ),
    layer(
        "fastpass.model.bufferless_latency_cycles",
        "cycles",
        false,
        Base::Sim,
    ),
    layer("fastpass.model.latency_cycles", "cycles", false, Base::Sim),
    layer(
        "fastpass.model.accepted_load",
        "pkt/node/cycle",
        true,
        Base::Sim,
    ),
    // baselines
    layer("baselines.escape_vc.ns_per_cycle", "ns", false, Base::Host),
    layer("baselines.spin.ns_per_cycle", "ns", false, Base::Host),
    layer("baselines.swap.ns_per_cycle", "ns", false, Base::Host),
    layer("baselines.drain.ns_per_cycle", "ns", false, Base::Host),
    layer("baselines.pitstop.ns_per_cycle", "ns", false, Base::Host),
    layer("baselines.minbd.ns_per_cycle", "ns", false, Base::Host),
    layer("baselines.tfc.ns_per_cycle", "ns", false, Base::Host),
    // traffic
    layer("traffic.synthetic.ns_per_packet", "ns", false, Base::Host),
    layer(
        "traffic.protocol.ns_per_transaction",
        "ns",
        false,
        Base::Host,
    ),
    // bench.runner
    layer("bench.runner.key_ns", "ns", false, Base::Host),
    layer("bench.runner.warm_pass_fixed_us", "us", false, Base::Host),
    layer(
        "bench.runner.parallel_efficiency",
        "ratio",
        true,
        Base::Host,
    ),
    // figure-level model ratios (simulated, exact for a seed)
    layer("bench.model.exec_norm", "ratio", false, Base::Sim),
    layer("bench.model.sat_ratio_spin", "ratio", true, Base::Sim),
    // bench.store / bench.proto / bench.serve_client kernels
    layer("bench.store.load_hit_us", "us", false, Base::Host),
    layer("bench.store.load_miss_us", "us", false, Base::Host),
    layer("bench.store.write_us", "us", false, Base::Host),
    layer("bench.store.bytes_per_point", "count", false, Base::Count),
    layer("bench.proto.encode_submit_us", "us", false, Base::Host),
    layer("bench.proto.decode_result_us", "us", false, Base::Host),
    layer("bench.serve_client.ping_rtt_us", "us", false, Base::Host),
    // noc-serve, from receipts, the wire MetricsReport and outside timers
    layer("noc-serve.core.resolved.memory", "count", true, Base::Count),
    layer("noc-serve.core.resolved.store", "count", true, Base::Count),
    layer("noc-serve.core.resolved.dedup", "count", true, Base::Count),
    layer(
        "noc-serve.core.resolved.enqueued",
        "count",
        false,
        Base::Count,
    ),
    layer("noc-serve.core.queue_wait_p50_ms", "ms", false, Base::Host),
    layer("noc-serve.core.batch_wall_p50_ms", "ms", false, Base::Host),
    layer(
        "noc-serve.core.points_per_batch",
        "count",
        true,
        Base::Count,
    ),
    layer(
        "noc-serve.core.worker_utilization",
        "ratio",
        true,
        Base::Host,
    ),
    layer("noc-serve.core.submit_collect_us", "us", false, Base::Host),
    layer("noc-serve.core.hit_job_p50_ms", "ms", false, Base::Host),
    layer("noc-serve.server.wire_overhead_us", "us", false, Base::Host),
    layer("noc-serve.server.job_p95_ms", "ms", false, Base::Host),
    layer("noc-serve.metrics.report_us", "us", false, Base::Host),
    layer("noc-serve.flight.overhead_pct", "%", false, Base::Host),
    layer("noc-serve.flight.dropped", "count", false, Base::Count),
    // the benchmark's own instrumentation
    layer("benchmark.trace_overhead_pct", "%", false, Base::Host),
    layer("benchmark.timer_ns", "ns", false, Base::Host),
    layer("benchmark.spans", "count", false, Base::Count),
];

/// Looks a workload up by name.
pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|(n, _)| *n == name)
}

/// The catalogue's `&'static` spelling of a per-layer name built at run
/// time (one row per phase, stall cause or scheme).
///
/// # Panics
///
/// Panics when the catalogue has no such row: a phase, cause or scheme
/// was added to the program without a row here.
pub fn per_layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|d| d.name)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("no per-layer row named {name}"))
}

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 14;

/// The text of `BENCHMARK.json`: the driver's contract, generated from
/// this catalogue (`benchmark catalogue > BENCHMARK.json`).
pub fn benchmark_json() -> String {
    use serde::Content;
    let s = |v: &str| Content::Str(v.to_string());
    let better = |d: &MetricDef| s(if d.higher_better { "higher" } else { "lower" });
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let doc = Content::Map(vec![
        (
            "command".into(),
            Content::Seq(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths".into(), Content::Seq(vec![s("benchmark")])),
        ("run_seconds".into(), Content::U128(u128::from(RUN_SECONDS))),
        (
            "workloads".into(),
            Content::Seq(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Content::Map(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Content::Seq(
                END_TO_END
                    .iter()
                    .map(|d| {
                        Content::Map(vec![
                            ("name".into(), s(d.name)),
                            ("unit".into(), s(d.unit)),
                            ("better".into(), better(d)),
                            ("bound".into(), Content::F64(d.bound.unwrap_or(0.0))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Content::Seq(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        Content::Map(vec![
                            ("name".into(), s(d.name)),
                            ("unit".into(), s(d.unit)),
                            ("better".into(), better(d)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("the catalogue serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(d.name, 64, "_.-"), "{}", d.name);
            assert!(
                d.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{}",
                d.name
            );
            assert!(
                well_formed(d.unit, 16, "_/%.-"),
                "{}: unit {}",
                d.name,
                d.unit
            );
            assert!(seen.insert(d.name), "{} used twice", d.name);
        }
        for d in &END_TO_END {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_better);
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk.trim(),
            benchmark_json().trim(),
            "regenerate with `benchmark catalogue > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
