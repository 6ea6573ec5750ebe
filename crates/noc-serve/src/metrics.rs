//! The in-process metrics registry: counters, gauges and exact
//! histograms behind the `metrics` wire command.
//!
//! Counters and gauges are atomics and each histogram has its own small
//! lock, so recording from workers and connection threads never
//! contends on the engine lock — the registry is written from wherever
//! the event happens and read by two consumers:
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

/// One worker's utilization counters. `busy` is flipped by the worker
/// around each batch; the sampler tick turns it into a busy/idle duty
/// cycle (`busy_samples / samples`).
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
            utilization: if samples == 0 {
                0.0
            } else {
                busy_samples as f64 / samples as f64
            },
        }
    }
}

/// The daemon's metrics registry. One instance lives in the engine's
/// shared block; every field is independently updatable without the
/// engine lock.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Connections accepted.
    pub connections: Counter,
    /// Well-formed request lines.
    pub requests: Counter,
    /// Malformed request lines.
    pub bad_requests: Counter,
    /// Submit requests accepted.
    pub jobs_submitted: Counter,
    /// Submit requests fully answered.
    pub jobs_completed: Counter,
    /// Points requested across all jobs (with multiplicity).
    pub points_requested: Counter,
    /// Points newly enqueued at submit time.
    pub points_enqueued: Counter,
    /// Points actually simulated by the worker pool.
    pub points_computed: Counter,
    /// Points whose simulation panicked.
    pub points_failed: Counter,
    /// Points served from the on-disk store.
    pub store_hits: Counter,
    /// Points served from the in-memory results map.
    pub memory_hits: Counter,
    /// Points deduplicated onto another job's in-flight computation.
    pub dedup_waits: Counter,
    /// Store entries evicted via `evict`.
    pub evictions: Counter,
    /// Store entries removed by gc passes.
    pub gc_dropped: Counter,
    /// Wall-clock per claimed batch.
    pub batch_wall_ms: Histogram,
    /// Queue wait per claimed point (enqueue → claim).
    pub queue_wait_ms: Histogram,
    /// Points per submitted job.
    pub points_per_job: Histogram,
    /// Last-sampled queue depth (gauge).
    pub queue_depth: AtomicU64,
    /// Last-sampled in-flight point count (gauge).
    pub inflight: AtomicU64,
    workers: Vec<WorkerStats>,
}

impl MetricsRegistry {
    /// A registry tracking `workers` worker slots.
    pub fn new(workers: usize) -> MetricsRegistry {
        MetricsRegistry {
            connections: Counter::default(),
            requests: Counter::default(),
            bad_requests: Counter::default(),
            jobs_submitted: Counter::default(),
            jobs_completed: Counter::default(),
            points_requested: Counter::default(),
            points_enqueued: Counter::default(),
            points_computed: Counter::default(),
            points_failed: Counter::default(),
            store_hits: Counter::default(),
            memory_hits: Counter::default(),
            dedup_waits: Counter::default(),
            evictions: Counter::default(),
            gc_dropped: Counter::default(),
            batch_wall_ms: Histogram::default(),
            queue_wait_ms: Histogram::default(),
            points_per_job: Histogram::default(),
            queue_depth: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            workers: (0..workers.max(1))
                .map(|_| WorkerStats::default())
                .collect(),
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

    /// Credits worker `id` with one finished batch.
    pub fn worker_batch(&self, id: usize, points: u64, wall_ms: u64) {
        if let Some(w) = self.workers.get(id) {
            w.batches.fetch_add(1, Ordering::Relaxed);
            w.points.fetch_add(points, Ordering::Relaxed);
            w.busy_ms.fetch_add(wall_ms, Ordering::Relaxed);
        }
    }

    /// One sampler observation: records the gauge levels and each
    /// worker's busy/idle state.
    pub fn sample(&self, queue_depth: u64, inflight: u64) {
        self.queue_depth.store(queue_depth, Ordering::Relaxed);
        self.inflight.store(inflight, Ordering::Relaxed);
        for w in &self.workers {
            w.sample();
        }
    }

    /// Drains counter deltas and gauge levels into the statsd sink,
    /// then flushes it. Called from the sampler tick and
    /// once more at shutdown; a disabled sink makes this a near-no-op
    /// (deltas are still consumed).
    pub fn drain_into(&self, sink: &StatsdSink) {
        for (name, counter) in self.counters() {
            let delta = counter.take_delta();
            if delta > 0 {
                sink.count(name, delta);
            }
        }
        sink.gauge("queue_depth", self.queue_depth.load(Ordering::Relaxed));
        sink.gauge("inflight", self.inflight.load(Ordering::Relaxed));
        sink.flush();
    }

    /// Snapshots the registry into the wire report.
    pub fn report(&self, uptime_secs: u64, flight: FlightStats) -> MetricsReport {
        MetricsReport {
            proto: crate::PROTO_VERSION,
            uptime_secs,
            counters: self
                .counters()
                .iter()
                .map(|(name, counter)| MetricValue {
                    name: (*name).to_string(),
                    value: counter.get(),
                })
                .collect(),
            gauges: vec![
                MetricValue {
                    name: "queue_depth".to_string(),
                    value: self.queue_depth.load(Ordering::Relaxed),
                },
                MetricValue {
                    name: "inflight".to_string(),
                    value: self.inflight.load(Ordering::Relaxed),
                },
            ],
            histograms: vec![
                self.batch_wall_ms.summary("batch_wall_ms"),
                self.queue_wait_ms.summary("queue_wait_ms"),
                self.points_per_job.summary("points_per_job"),
            ],
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(id, w)| w.report(id as u64))
                .collect(),
            flight,
        }
    }
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
    fn worker_utilization_tracks_sampled_busy_state() {
        let reg = MetricsRegistry::new(2);
        reg.worker_busy(0, true);
        reg.sample(4, 2);
        reg.worker_busy(0, false);
        reg.sample(0, 0);
        reg.worker_batch(0, 4, 120);
        let report = reg.report(1, FlightStats::default());
        assert_eq!(report.workers.len(), 2);
        let w0 = &report.workers[0];
        assert!((w0.utilization - 0.5).abs() < 1e-9, "{w0:?}");
        assert_eq!((w0.batches, w0.points, w0.busy_ms), (1, 4, 120));
        assert_eq!(report.workers[1].utilization, 0.0);
        assert_eq!(report.gauges[0].value, 0, "last sample wins");
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
