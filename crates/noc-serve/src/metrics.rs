//! The in-process metrics registry: counters, gauges and exact
//! histograms behind the `metrics` wire command.
//!
//! A count a [`FlightEvent`] determines has one writer,
//! [`MetricsRegistry::apply`], so the daemon counts a lifecycle step only
//! by recording its event, and a flight log replays to the same counts.
//! Counters are atomics, each histogram has its own small lock, and the
//! gauges are levels the engine passes in. Two consumers read it:
//!
//! * the **drainer**: the sampler tick calls
//!   [`MetricsRegistry::drain_into`], which forwards counter *deltas*
//!   and gauge levels to the [`StatsdSink`] and flushes it — the sink
//!   is a periodic drain target, not an inline emitter;
//! * the **reporter**: [`MetricsRegistry::report`] snapshots everything
//!   into the wire [`MetricsReport`] for `nocctl metrics` — the
//!   daemon's one report.
//!
//! A histogram is the simulator's [`Distribution`] — the one histogram
//! type in the workspace — so its percentiles are exact sample values.

use crate::proto::{FlightStats, HistogramSummary, MetricValue, MetricsReport, WorkerReport};
use crate::statsd::StatsdSink;
use crate::{FlightEvent, Resolution};
use noc_core::stats::Distribution;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A monotone counter that remembers how much of it has been drained
/// (so the statsd drain emits deltas while `metrics` reports totals).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    drained: AtomicU64,
}

impl Counter {
    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The lifetime total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The increase since the last drain (and marks it drained). Only
    /// the single drainer thread calls this, so the read-then-add pair
    /// needs no stronger ordering.
    pub fn take_delta(&self) -> u64 {
        let value = self.value.load(Ordering::Relaxed);
        let drained = self.drained.swap(value, Ordering::Relaxed);
        value.saturating_sub(drained)
    }
}

/// An exact histogram any thread can record into: the simulator's
/// [`Distribution`] behind a mutex, summarized with exact p50/p90/p99.
#[derive(Debug, Default)]
pub struct Histogram(Mutex<Distribution>);

impl Histogram {
    fn lock(&self) -> MutexGuard<'_, Distribution> {
        self.0
            .lock()
            .expect("a histogram record never panics while holding the lock")
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.lock().record(value);
    }

    /// Snapshots the histogram into its wire summary (all zero when
    /// empty).
    pub fn summary(&self, name: &str) -> HistogramSummary {
        let d = self.lock();
        let pct = |p| d.percentile(p).unwrap_or(0);
        HistogramSummary {
            name: name.to_string(),
            count: d.count() as u64,
            sum: u64::try_from(d.sum()).unwrap_or(u64::MAX),
            max: d.max().unwrap_or(0),
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
        }
    }
}

/// One worker's counters. `busy` is flipped by the worker around each
/// batch, and the sampler tick turns it into a busy/idle duty cycle
/// (`busy_samples / samples`); the rest is folded from `batch_done`.
#[derive(Debug, Default)]
pub struct WorkerStats {
    busy: AtomicBool,
    samples: AtomicU64,
    busy_samples: AtomicU64,
    batches: AtomicU64,
    points: AtomicU64,
    busy_ms: AtomicU64,
}

impl WorkerStats {
    fn sample(&self) {
        self.samples.fetch_add(1, Ordering::Relaxed);
        if self.busy.load(Ordering::Relaxed) {
            self.busy_samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn report(&self, worker: u64) -> WorkerReport {
        let samples = self.samples.load(Ordering::Relaxed);
        let busy_samples = self.busy_samples.load(Ordering::Relaxed);
        WorkerReport {
            worker,
            batches: self.batches.load(Ordering::Relaxed),
            points: self.points.load(Ordering::Relaxed),
            busy_ms: self.busy_ms.load(Ordering::Relaxed),
            utilization: busy_samples as f64 / samples.max(1) as f64,
        }
    }
}

/// The daemon's metrics registry. One instance lives in the engine's
/// shared block. The public fields are the counts no event determines;
/// `default()` tracks no worker slot.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Connections accepted.
    pub connections: Counter,
    /// Well-formed request lines.
    pub requests: Counter,
    /// Malformed request lines.
    pub bad_requests: Counter,
    /// Submit requests accepted.
    jobs_submitted: Counter,
    /// Submit requests fully answered.
    pub jobs_completed: Counter,
    /// Points requested across all jobs (with multiplicity).
    points_requested: Counter,
    /// Points newly enqueued at submit time.
    points_enqueued: Counter,
    /// Points actually simulated by the worker pool.
    points_computed: Counter,
    /// Points whose simulation panicked.
    points_failed: Counter,
    /// Points served from the on-disk store.
    store_hits: Counter,
    /// Points served from the in-memory results map.
    memory_hits: Counter,
    /// Points deduplicated onto another job's in-flight computation.
    dedup_waits: Counter,
    /// Store entries evicted via `evict`.
    pub evictions: Counter,
    /// Store entries removed by gc passes.
    pub gc_dropped: Counter,
    /// Wall-clock per claimed batch.
    batch_wall_ms: Histogram,
    /// Queue wait per claimed point (enqueue → claim).
    pub queue_wait_ms: Histogram,
    /// Points per submitted job.
    points_per_job: Histogram,
    workers: Vec<WorkerStats>,
}

impl MetricsRegistry {
    /// A registry tracking `workers` worker slots.
    pub fn new(workers: usize) -> MetricsRegistry {
        let workers = (0..workers.max(1)).map(|_| WorkerStats::default());
        MetricsRegistry {
            workers: workers.collect(),
            ..MetricsRegistry::default()
        }
    }

    /// Every counter with its statsd/report name, in report order.
    fn counters(&self) -> [(&'static str, &Counter); 14] {
        [
            ("connections", &self.connections),
            ("requests", &self.requests),
            ("bad_requests", &self.bad_requests),
            ("jobs_submitted", &self.jobs_submitted),
            ("jobs_completed", &self.jobs_completed),
            ("points_requested", &self.points_requested),
            ("points_enqueued", &self.points_enqueued),
            ("points_computed", &self.points_computed),
            ("points_failed", &self.points_failed),
            ("store_hits", &self.store_hits),
            ("memory_hits", &self.memory_hits),
            ("dedup_waits", &self.dedup_waits),
            ("evictions", &self.evictions),
            ("gc_dropped", &self.gc_dropped),
        ]
    }

    /// Marks worker `id` busy or idle (the worker flips this around
    /// each claimed batch).
    pub fn worker_busy(&self, id: usize, busy: bool) {
        if let Some(w) = self.workers.get(id) {
            w.busy.store(busy, Ordering::Relaxed);
        }
    }

    /// Folds one flight event into the counts it determines. A
    /// `batch_done` naming no worker slot still counts its wall time.
    pub fn apply(&self, event: &FlightEvent) {
        match event {
            FlightEvent::Submitted { points, .. } => {
                self.jobs_submitted.add(1);
                self.points_requested.add(*points);
                self.points_per_job.record(*points);
            }
            FlightEvent::Resolved { kind, .. } => match kind {
                Resolution::Memory => &self.memory_hits,
                Resolution::Store => &self.store_hits,
                Resolution::Dedup => &self.dedup_waits,
                Resolution::Enqueued => &self.points_enqueued,
            }
            .add(1),
            FlightEvent::Stored { .. } => self.points_computed.add(1),
            FlightEvent::Failed { .. } => self.points_failed.add(1),
            FlightEvent::BatchDone {
                worker,
                points,
                wall_ms,
                ..
            } => {
                self.batch_wall_ms.record(*wall_ms);
                let slot = usize::try_from(*worker)
                    .ok()
                    .and_then(|i| self.workers.get(i));
                if let Some(w) = slot {
                    w.batches.fetch_add(1, Ordering::Relaxed);
                    w.points.fetch_add(*points, Ordering::Relaxed);
                    w.busy_ms.fetch_add(*wall_ms, Ordering::Relaxed);
                }
            }
            FlightEvent::Claimed { .. }
            | FlightEvent::Responded { .. }
            | FlightEvent::Queue { .. } => {}
        }
    }

    /// One tick's utilization sample of every worker's busy bit.
    pub fn sample_workers(&self) {
        for w in &self.workers {
            w.sample();
        }
    }

    /// Drains counter deltas and the gauge `levels` (`[queue_depth,
    /// inflight]`) into the statsd sink, then flushes it. Called from
    /// the sampler tick and once more at shutdown; a disabled sink makes
    /// this a near-no-op (deltas are still consumed).
    pub fn drain_into(&self, sink: &StatsdSink, levels: [u64; 2]) {
        for (name, counter) in self.counters() {
            let delta = counter.take_delta();
            if delta > 0 {
                sink.count(name, delta);
            }
        }
        sink.gauge("queue_depth", levels[0]);
        sink.gauge("inflight", levels[1]);
        sink.flush();
    }

    /// Snapshots the registry, with the gauge `levels` (`[queue_depth,
    /// inflight]`), into the wire report.
    pub fn report(&self, uptime_secs: u64, levels: [u64; 2], flight: FlightStats) -> MetricsReport {
        let workers = self.workers.iter().enumerate();
        MetricsReport {
            proto: crate::PROTO_VERSION,
            uptime_secs,
            counters: Vec::from(self.counters().map(|(name, c)| metric(name, c.get()))),
            gauges: vec![
                metric("queue_depth", levels[0]),
                metric("inflight", levels[1]),
            ],
            histograms: vec![
                self.batch_wall_ms.summary("batch_wall_ms"),
                self.queue_wait_ms.summary("queue_wait_ms"),
                self.points_per_job.summary("points_per_job"),
            ],
            workers: workers.map(|(id, w)| w.report(id as u64)).collect(),
            flight,
        }
    }
}

fn metric(name: &str, value: u64) -> MetricValue {
    let name = name.to_string();
    MetricValue { name, value }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_deltas_drain_once() {
        let c = Counter::default();
        c.add(3);
        assert_eq!(c.take_delta(), 3);
        assert_eq!(c.take_delta(), 0, "already drained");
        c.add(2);
        assert_eq!((c.get(), c.take_delta()), (5, 2));
    }

    #[test]
    fn histogram_percentiles_are_exact_values() {
        let h = Histogram::default();
        for _ in 0..98 {
            h.record(3);
        }
        h.record(150);
        h.record(70_000);
        let s = h.summary("t");
        assert_eq!((s.count, s.sum, s.max), (100, 70_444, 70_000));
        assert_eq!((s.p50, s.p90), (3, 3), "the bulk's exact value");
        assert_eq!(s.p99, 150, "99th sample is the 150ms one");
        let h = Histogram::default();
        h.record(1_000_000);
        assert_eq!(h.summary("o").p50, 1_000_000);
        // Empty histogram: everything zero.
        assert_eq!(
            Histogram::default().summary("e"),
            HistogramSummary {
                name: "e".to_string(),
                ..HistogramSummary::default()
            }
        );
    }

    #[test]
    fn worker_utilization_counts_tick_samples_only() {
        let reg = MetricsRegistry::new(2);
        reg.worker_busy(0, true);
        reg.sample_workers();
        reg.worker_busy(0, false);
        reg.sample_workers();
        reg.worker_busy(1, true);
        let report = reg.report(1, [4, 2], FlightStats::default());
        assert_eq!(report.workers.len(), 2);
        let w0 = &report.workers[0];
        assert!((w0.utilization - 0.5).abs() < 1e-9, "{w0:?}");
        assert_eq!(
            report.workers[1].utilization, 0.0,
            "a report samples no worker"
        );
        let gauges: Vec<_> = report.gauges.iter().map(|g| (&*g.name, g.value)).collect();
        assert_eq!(gauges, [("queue_depth", 4), ("inflight", 2)]);
    }

    /// Every counter, histogram count/sum and worker field that applying
    /// `event` to a fresh two-worker registry moves, as `name=value`.
    fn moved_by(event: FlightEvent) -> Vec<String> {
        let reg = MetricsRegistry::new(2);
        reg.apply(&event);
        let r = reg.report(0, [0, 0], FlightStats::default());
        let counters = r.counters.iter().map(|c| (c.name.clone(), c.value));
        let mut fields: Vec<(String, u64)> = counters.collect();
        for h in &r.histograms {
            fields.push((format!("{}.count", h.name), h.count));
            fields.push((format!("{}.sum", h.name), h.sum));
        }
        for w in &r.workers {
            let id = w.worker;
            fields.push((format!("w{id}.batches"), w.batches));
            fields.push((format!("w{id}.points"), w.points));
            fields.push((format!("w{id}.busy_ms"), w.busy_ms));
            fields.push((format!("w{id}.utilization"), w.utilization.to_bits()));
        }
        let moved = fields.into_iter().filter(|(_, value)| *value != 0);
        moved
            .map(|(name, value)| format!("{name}={value}"))
            .collect()
    }

    #[test]
    fn apply_moves_exactly_the_fields_each_event_determines() {
        let key = || "00000000000000aa".to_string();
        let resolved = |kind| FlightEvent::Resolved {
            key: key(),
            kind,
            job: 1,
        };
        let cases: [(FlightEvent, &[&str]); 13] = [
            (
                FlightEvent::Submitted { job: 1, points: 5 },
                &[
                    "jobs_submitted=1",
                    "points_requested=5",
                    "points_per_job.count=1",
                    "points_per_job.sum=5",
                ],
            ),
            (resolved(Resolution::Memory), &["memory_hits=1"]),
            (resolved(Resolution::Store), &["store_hits=1"]),
            (resolved(Resolution::Dedup), &["dedup_waits=1"]),
            (resolved(Resolution::Enqueued), &["points_enqueued=1"]),
            (
                FlightEvent::Stored {
                    key: key(),
                    worker: 1,
                },
                &["points_computed=1"],
            ),
            (
                FlightEvent::Failed {
                    key: key(),
                    worker: 1,
                },
                &["points_failed=1"],
            ),
            (
                FlightEvent::BatchDone {
                    worker: 1,
                    points: 3,
                    wall_ms: 40,
                    cycles: 300,
                },
                &[
                    "batch_wall_ms.count=1",
                    "batch_wall_ms.sum=40",
                    "w1.batches=1",
                    "w1.points=3",
                    "w1.busy_ms=40",
                ],
            ),
            // A worker id with no slot: the batch's wall time counts,
            // no worker is credited.
            (
                FlightEvent::BatchDone {
                    worker: 7,
                    points: 3,
                    wall_ms: 40,
                    cycles: 300,
                },
                &["batch_wall_ms.count=1", "batch_wall_ms.sum=40"],
            ),
            (
                FlightEvent::BatchDone {
                    worker: u64::MAX,
                    points: 3,
                    wall_ms: 40,
                    cycles: 300,
                },
                &["batch_wall_ms.count=1", "batch_wall_ms.sum=40"],
            ),
            (
                FlightEvent::Claimed {
                    worker: 1,
                    points: 3,
                    cycles: 300,
                },
                &[],
            ),
            (FlightEvent::Responded { job: 1 }, &[]),
            (FlightEvent::Queue { depth: 9 }, &[]),
        ];
        for (event, want) in cases {
            assert_eq!(moved_by(event.clone()), want, "{event:?}");
        }
    }

    /// Each fact is one counter: hits, dedup and enqueues are counted
    /// once, and the benchmark and CI read these names.
    #[test]
    fn counters_are_the_report_vocabulary() {
        let reg = MetricsRegistry::new(1);
        let names: Vec<&str> = reg.counters().iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "connections",
                "requests",
                "bad_requests",
                "jobs_submitted",
                "jobs_completed",
                "points_requested",
                "points_enqueued",
                "points_computed",
                "points_failed",
                "store_hits",
                "memory_hits",
                "dedup_waits",
                "evictions",
                "gc_dropped",
            ]
        );
    }
}
