//! The traced run: the same workloads with a span around each call into
//! a layer, the wall-clock phase probe and `TraceLevel::Counters` on,
//! plus the microkernels. It prints every per-layer metric and writes
//! the spans as Chrome `trace_event` JSON. End-to-end metrics are never
//! taken from this run.

use crate::common::{median, overhead_pct, ratio, Ctx, JOBS};
use crate::inputs::{self, Point, Scale};
use crate::lanes::{self, Want};
use crate::report::Report;
use crate::span::Spans;
use crate::wl_engine::Engine;
use crate::wl_serve::{self, Serve};
use crate::wl_sweep::{self, Sweep};
use crate::{kernels, Kind};
use bench::{LatencyPoint, PhaseTimes, SchemeId};
use noc_serve::Daemon;
use serde::Content;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

type Phases = Arc<Mutex<PhaseTimes>>;

fn point_wants<'a>(points: impl Iterator<Item = &'a LatencyPoint>) -> Vec<Want> {
    points
        .map(|p| Want {
            point: p.clone(),
            digest: None,
        })
        .collect()
}

/// `bench.model.exec_norm`: FastPass(0VN,4VC) execution cycles over
/// EscapeVC's, mean over apps.
fn exec_norm(wl: &Engine) -> f64 {
    let mut by_app: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (p, o) in wl.points.iter().zip(&wl.reference) {
        if let Point::Protocol {
            app, id, fp_vcs, ..
        } = p
        {
            let e = by_app.entry(app.name()).or_default();
            match (id, fp_vcs) {
                (SchemeId::EscapeVc, _) => e.0 = o.cycles as f64,
                (SchemeId::FastPass, 4) => e.1 = o.cycles as f64,
                _ => {}
            }
        }
    }
    let ratios: Vec<f64> = by_app
        .values()
        .filter(|(base, _)| *base > 0.0)
        .map(|(base, fp)| fp / base)
        .collect();
    ratio(ratios.iter().sum(), ratios.len() as f64)
}

fn trace_engine(kind: Kind, ctx: &Ctx, report: &mut Report, spans: &mut Spans, phases: &Phases) {
    let (wl, _) = spans.scope("benchmark.setup", 0, || Engine::setup(kind, ctx));
    report.fail(wl.setup_failures.clone());
    report.stats_digest = format!("{:016x}", wl.digest());
    let wants: Vec<Want> = wl
        .reference
        .iter()
        .map(|o| Want {
            point: o.point.clone(),
            digest: Some(o.digest),
        })
        .collect();
    let mut l = lanes::run(&wl.points, &wants, true, ctx.seconds, spans, phases);
    // Five serial lanes and the batched one per round.
    report.attempted = l.rounds * 6 * wl.points.len() as u64;
    report.fail(std::mem::take(&mut l.failures));
    lanes::rows(report, &wl.points, &l, phases);
    if kind == Kind::EngineProtocol {
        report.set("bench.model.exec_norm", exec_norm(&wl));
    }
}

/// Alternates spanned and plain passes for about `budget_s` seconds;
/// returns the fastest of each, ns.
fn alternate_passes(
    budget_s: f64,
    spans: &mut Spans,
    wl: &Sweep,
    report: &mut Report,
) -> (f64, f64) {
    let begun = Instant::now();
    let (mut spanned, mut plain) = (u64::MAX, u64::MAX);
    let mut n = 0u64;
    loop {
        spans.enter("bench.runner.run_sweep_parallel", n);
        let (ns, failures) = wl.pass(n);
        spans.exit();
        spanned = spanned.min(ns);
        report.fail(failures);
        let (ns, failures) = wl.pass(n + 1);
        plain = plain.min(ns);
        report.fail(failures);
        report.attempted += 2 * wl_sweep::count(&wl.specs);
        n += 2;
        if begun.elapsed().as_secs_f64() >= budget_s {
            return (spanned as f64, plain as f64);
        }
    }
}

fn trace_sweep(kind: Kind, ctx: &Ctx, report: &mut Report, spans: &mut Spans, phases: &Phases) {
    let (wl, _) = spans.scope("benchmark.setup", 0, || Sweep::setup(kind, ctx, "t"));
    report.fail(wl.setup_failures.clone());
    report.stats_digest = format!("{:016x}", wl.digest());
    report.set("bench.model.sat_ratio_spin", wl.sat_ratio_spin());
    let (mut serial_ns, mut heavy_share) = (0.0, 0.0);
    if !wl.warm {
        // The engine under this panel, serially: per-layer rows, and the
        // busy time the parallel pass divides between its workers.
        let points = inputs::points_of(&wl.specs);
        let wants = point_wants(wl.reference.iter().flat_map(|r| r.points.iter()));
        let mut l = lanes::run(&points, &wants, false, 0.0, spans, phases);
        report.attempted += l.rounds * 2 * points.len() as u64;
        report.fail(std::mem::take(&mut l.failures));
        serial_ns = l.serial_ns();
        let heavy: f64 = points
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Point::Synthetic { rate, .. } if *rate >= 0.10))
            .map(|(i, _)| l.serial_ns_of(i))
            .sum();
        heavy_share = 100.0 * ratio(heavy, serial_ns);
        lanes::rows(report, &points, &l, phases);
    }
    let (spanned, plain) = alternate_passes(ctx.seconds / 2.0, spans, &wl, report);
    if wl.warm {
        report.set("benchmark.trace_overhead_pct", overhead_pct(spanned, plain));
    } else {
        // The engine lanes' probed-against-spans overhead stands.
        report.set(
            "bench.runner.parallel_efficiency",
            ratio(serial_ns, JOBS as f64 * plain),
        );
        report.notes.push(format!(
            "cold pass {:.1} ms against {:.1} ms of serial engine time on {JOBS} workers",
            plain / 1e6,
            serial_ns / 1e6
        ));
        // The written-down prediction about where a cold pass goes.
        let n = wl_sweep::count(&wl.specs) as f64;
        let row = |name: &str| report.metrics.get(name).copied().unwrap_or(0.0);
        let store_key_ns = n * (row("bench.runner.key_ns") + 1e3 * row("bench.store.write_us"));
        report.notes.push(format!(
            "of a cold pass: key hashing + store writes {:.2}% of its {JOBS} workers' time; points at rate >= 0.10 are {heavy_share:.1}% of the serial engine time",
            100.0 * ratio(store_key_ns, JOBS as f64 * plain),
        ));
    }
}

/// Reads one counter of the daemon's wire metrics report.
fn counter(m: &bench::MetricsReport, name: &str) -> f64 {
    m.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

fn histogram_p50(m: &bench::MetricsReport, name: &str) -> f64 {
    m.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0.0, |h| h.p50 as f64)
}

/// Mean microseconds of `iters` calls of `f`.
fn mean_us<E>(iters: u32, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    let begun = Instant::now();
    for _ in 0..iters {
        f()?;
    }
    Ok(begun.elapsed().as_secs_f64() * 1e6 / f64::from(iters))
}

fn trace_serve(
    ctx: &Ctx,
    report: &mut Report,
    spans: &mut Spans,
    phases: &Phases,
) -> Result<(), String> {
    let epoch = Instant::now();
    let (wl, _) = spans.scope("benchmark.setup", 0, || Serve::setup(ctx, "a", false));
    let mut wl = wl?;
    report.fail(wl.setup_failures.clone());
    report.fail(wl.verify());
    report.stats_digest = format!("{:016x}", wl.digest());

    // The engine under one job, serially.
    let job = wl.hit_job();
    let points = inputs::points_of(&job);
    let serial: Vec<LatencyPoint> = job
        .iter()
        .flat_map(|s| s.rates.iter().map(|&r| bench::simulate_point(s, r)))
        .collect();
    let mut l = lanes::run(
        &points,
        &point_wants(serial.iter()),
        false,
        0.0,
        spans,
        phases,
    );
    report.attempted += l.rounds * 2 * points.len() as u64;
    report.fail(std::mem::take(&mut l.failures));
    lanes::rows(report, &points, &l, phases);

    // Session A: flight recorder and statsd off, one span per job.
    spans.enter("benchmark.session", 0);
    let mut a = wl.session(ctx.seconds / 2.0, Some(epoch));
    for s in std::mem::take(&mut a.spans) {
        spans.absorb(s);
    }
    spans.exit();
    report.attempted += a.timed.points;
    report.fail(a.timed.failures.clone());
    let m = wl.client().metrics()?;
    report.set("noc-serve.core.resolved.memory", counter(&m, "memory_hits"));
    report.set("noc-serve.core.resolved.store", counter(&m, "store_hits"));
    report.set("noc-serve.core.resolved.dedup", counter(&m, "dedup_waits"));
    report.set(
        "noc-serve.core.resolved.enqueued",
        counter(&m, "points_enqueued"),
    );
    let (queue_wait, batch_wall) = (
        histogram_p50(&m, "queue_wait_ms"),
        histogram_p50(&m, "batch_wall_ms"),
    );
    report.set("noc-serve.core.queue_wait_p50_ms", queue_wait);
    report.set("noc-serve.core.batch_wall_p50_ms", batch_wall);
    let batches: u64 = m.workers.iter().map(|w| w.batches).sum();
    let computed: u64 = m.workers.iter().map(|w| w.points).sum();
    report.set(
        "noc-serve.core.points_per_batch",
        ratio(computed as f64, batches as f64),
    );
    report.set(
        "noc-serve.core.worker_utilization",
        ratio(
            m.workers.iter().map(|w| w.utilization).sum(),
            m.workers.len() as f64,
        ),
    );
    report.set(
        "noc-serve.server.job_p95_ms",
        wl_serve::job_p95_ms(&mut a.all_jobs_ms),
    );
    let hit_p50 = median(&mut a.hit_jobs_ms);
    report.set("noc-serve.core.hit_job_p50_ms", hit_p50);
    let mut computed_ms = a.timed.ops_ms.clone();
    let computed_p50 = median(&mut computed_ms);
    report.notes.push(format!(
        "session A: {} jobs in {} blocks ({} computed, p50 {computed_p50:.2} ms; {} hit-only, p50 {hit_p50:.3} ms); job_p95 over n = {}",
        a.jobs,
        a.timed.blocks,
        computed_ms.len(),
        a.hit_jobs_ms.len(),
        a.all_jobs_ms.len()
    ));

    // Kernels that need the live daemon: an all-hit job over the socket
    // and the same job against an in-process daemon on the same store.
    let iters = match ctx.scale {
        Scale::Full => 300,
        Scale::Tiny => 3,
    };
    report.set(
        "bench.serve_client.ping_rtt_us",
        mean_us(iters, || wl.client().ping().map(|_| ()))?,
    );
    wl.client().submit(&job, |_, _| {})?;
    let socket_us = mean_us(iters, || wl.client().submit(&job, |_, _| {}).map(|_| ()))?;
    let local = Daemon::start(&wl_serve::config(&wl.sock, &wl.store_dir, None, None))?;
    wl_serve::submit_collect(&local, job.clone())?;
    let local_us = mean_us(iters, || {
        wl_serve::submit_collect(&local, job.clone()).map(|_| ())
    })?;
    report.set(
        "noc-serve.metrics.report_us",
        mean_us(iters, || {
            std::hint::black_box(local.metrics_report());
            Ok::<(), String>(())
        })?,
    );
    local.request_shutdown();
    report.set("noc-serve.core.submit_collect_us", local_us);
    report.set("noc-serve.server.wire_overhead_us", socket_us - local_us);
    report.notes.push(format!(
        "prediction op_p50 ~ queue_wait + batch_wall + wire: {computed_p50:.2} ms measured against {queue_wait:.0} + {batch_wall:.0} ms from the daemon's per-batch histograms (1-2-5 buckets, upper bounds) + {:.2} ms wire",
        (socket_us - local_us) / 1e3
    ));
    let pps_a = a.timed.points_per_s;
    drop(wl);

    // Session B: the same walk with the flight recorder and statsd on.
    let mut wl = Serve::setup(ctx, "b", true)?;
    report.fail(wl.setup_failures.clone());
    let b = wl.session(ctx.seconds / 2.0, None);
    report.attempted += b.timed.points;
    report.fail(b.timed.failures.clone());
    let m = wl.client().metrics()?;
    report.set("noc-serve.flight.dropped", m.flight.dropped as f64);
    report.set(
        "noc-serve.flight.overhead_pct",
        overhead_pct(pps_a, b.timed.points_per_s),
    );
    // One span per job is all the benchmark adds to session A; the
    // engine lanes' probed-against-spans overhead stands.
    report.notes.push(format!(
        "points/s: {pps_a:.0} with flight+statsd off, {:.0} with them on",
        b.timed.points_per_s
    ));
    Ok(())
}

/// The traced run of one workload.
///
/// # Errors
///
/// When the daemon cannot be booted or reached, or the trace cannot be
/// written.
pub fn run(kind: Kind, ctx: &Ctx, out: &Path) -> Result<Report, String> {
    let mut report = Report::new(kind.name(), true);
    let mut spans = Spans::new(Instant::now(), 1);
    let phases = Arc::new(Mutex::new(PhaseTimes::default()));
    spans.enter("benchmark.run", 0);
    // Kernels first: the workload's notes quote their rows.
    spans.scope("benchmark.kernels", 0, || {
        kernels::run(&mut report, ctx.scale, ctx.seed, &ctx.work);
    });
    match kind {
        Kind::EngineZeroload | Kind::EngineSaturated | Kind::EngineProtocol => {
            trace_engine(kind, ctx, &mut report, &mut spans, &phases);
        }
        Kind::SweepCold | Kind::SweepWarm => {
            trace_sweep(kind, ctx, &mut report, &mut spans, &phases);
        }
        Kind::ServeMixed => trace_serve(ctx, &mut report, &mut spans, &phases)?,
    }
    spans.exit();
    report.set("benchmark.spans", spans.all().len() as f64);
    report
        .info
        .push(("spans".into(), Content::U128(spans.all().len() as u128)));

    let json = spans.chrome_json(kind.name());
    bench::check_chrome_trace(&json, false).map_err(|e| format!("trace does not validate: {e}"))?;
    let path = out.join(format!("{}.trace.json", kind.name()));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    report
        .notes
        .push(format!("trace written to {}", path.display()));

    report
        .notes
        .push("self time by span (ms): name calls total self".into());
    for (name, calls, total, own) in spans.table().into_iter().take(12) {
        report.notes.push(format!(
            "  {name:<40} {calls:>7} {:>10.2} {:>10.2}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    Ok(report)
}
