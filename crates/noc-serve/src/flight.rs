//! The flight recorder: an append-only JSONL log of every job's
//! lifecycle, plus the live `watch` fan-out and the Perfetto exporter.
//!
//! Producers (the accept loop, submit path and workers) call
//! [`FlightBus::publish`] with a [`FlightRecord`]; the bus stamps the
//! daemon-relative timestamp and hands the record to
//!
//! * a dedicated **writer thread** over a bounded channel — the hot
//!   path only formats one JSON line and `try_send`s it, so a slow or
//!   full disk can *never* stall a worker (the record is dropped and
//!   counted instead);
//! * every live **watcher** (a `watch` connection) over its own bounded
//!   channel — again `try_send`, so a stalled watcher misses records
//!   rather than back-pressuring the engine.
//!
//! The offline half of this module consumes the JSONL file:
//! [`load_flight`] parses it, [`validate_chains`] proves every job's
//! span chain is complete, and [`chrome_trace`] renders it as Chrome
//! `trace_event` JSON (Perfetto-loadable) with workers and jobs as
//! threads under one daemon process — the service-level counterpart of
//! `noc-trace`'s per-flit exporter, following the same conventions.

use crate::proto::{flight_event, FlightStats};
use crate::FlightRecord;
use noc_trace::chrome::{counter, instant, meta, num, span, text, validate};
use serde::Content;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Records buffered between the hot path and the writer thread. When
/// the writer falls this far behind, further records are dropped (and
/// counted) rather than blocking the engine.
const WRITER_QUEUE: usize = 4_096;

/// Records buffered per `watch` subscriber.
const WATCH_QUEUE: usize = 1_024;

/// The writer flushes after this many buffered records, and whenever
/// the queue goes idle.
const FLUSH_EVERY: u64 = 64;

/// The trace pid under which the daemon's tracks live. `noc-trace`
/// claims pids 0–2 (routers, lanes, telemetry); the service level gets
/// the next one so a daemon trace and a flit trace could coexist.
const PID_DAEMON: u64 = 3;

/// Worker tracks are `tid = WORKER_TID_BASE + worker`.
const WORKER_TID_BASE: u64 = 1;

/// Job tracks are `tid = JOB_TID_BASE + job`, far above any worker id.
const JOB_TID_BASE: u64 = 1_000;

enum WriterMsg {
    Record(String),
    Stop,
}

struct FlightSink {
    tx: SyncSender<WriterMsg>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

/// The daemon-side event bus. Cheap to publish to from any thread;
/// holds the writer thread (when a log path is configured) and the
/// live watcher registry.
pub struct FlightBus {
    sink: Option<FlightSink>,
    watchers: Mutex<Vec<SyncSender<FlightRecord>>>,
    start: Instant,
    emitted: AtomicU64,
    dropped: AtomicU64,
    written: Arc<AtomicU64>,
}

impl FlightBus {
    /// A bus logging to `path` (`None` disables the on-disk log;
    /// publishing and watching still work). Truncates any previous log
    /// — the flight log is one daemon run's story.
    pub fn new(path: Option<&Path>) -> Result<FlightBus, String> {
        FlightBus::with_queue(path, WRITER_QUEUE)
    }

    fn with_queue(path: Option<&Path>, queue: usize) -> Result<FlightBus, String> {
        let written = Arc::new(AtomicU64::new(0));
        let sink = match path {
            None => None,
            Some(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| format!("flight: create {}: {e}", parent.display()))?;
                    }
                }
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("flight: open {}: {e}", path.display()))?;
                let (tx, rx) = sync_channel::<WriterMsg>(queue);
                let written = Arc::clone(&written);
                let handle = std::thread::Builder::new()
                    .name("flight-writer".to_string())
                    .spawn(move || writer_loop(file, rx, &written))
                    .map_err(|e| format!("flight: spawn writer: {e}"))?;
                Some(FlightSink {
                    tx,
                    handle: Mutex::new(Some(handle)),
                })
            }
        };
        Ok(FlightBus {
            sink,
            watchers: Mutex::new(Vec::new()),
            start: Instant::now(),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            written,
        })
    }

    /// Stamps `record` with the daemon-relative timestamp and fans it
    /// out to the log writer and every watcher. Never blocks: a full
    /// writer queue drops the record (counted in [`FlightStats`]), a
    /// full watcher queue skips that watcher.
    pub fn publish(&self, mut record: FlightRecord) {
        record.ts_us = self.start.elapsed().as_micros() as u64;
        self.emitted.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            match serde_json::to_string(&record) {
                Ok(line) => {
                    if sink.tx.try_send(WriterMsg::Record(line)).is_err() {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut watchers = self.watchers.lock().expect("flight watchers lock");
        watchers.retain(|tx| match tx.try_send(record.clone()) {
            Ok(()) => true,
            // A slow watcher misses this record but stays subscribed.
            Err(TrySendError::Full(_)) => true,
            Err(TrySendError::Disconnected(_)) => false,
        });
    }

    /// Subscribes a live watcher; every subsequent publish is offered
    /// to the returned receiver. The subscription ends when the
    /// receiver is dropped (or the bus shuts down).
    pub fn subscribe(&self) -> Receiver<FlightRecord> {
        let (tx, rx) = sync_channel(WATCH_QUEUE);
        self.watchers.lock().expect("flight watchers lock").push(tx);
        rx
    }

    /// Current bus statistics for the `metrics` report.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            emitted: self.emitted.load(Ordering::Relaxed),
            written: self.written.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            watchers: self.watchers.lock().expect("flight watchers lock").len() as u64,
        }
    }

    /// Flushes and joins the writer thread and disconnects every
    /// watcher. Called once at the end of `serve()`; publishing after
    /// shutdown silently drops records.
    pub fn shutdown(&self) {
        if let Some(sink) = &self.sink {
            // Blocking send: shutdown *should* wait for the queue to
            // drain so the log is complete on disk.
            let _ = sink.tx.send(WriterMsg::Stop);
            let handle = sink.handle.lock().expect("flight writer handle").take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
        self.watchers.lock().expect("flight watchers lock").clear();
    }
}

fn writer_loop(file: std::fs::File, rx: Receiver<WriterMsg>, written: &AtomicU64) {
    let mut out = std::io::BufWriter::new(file);
    let mut unflushed = 0u64;
    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(WriterMsg::Record(line)) => {
                if writeln!(out, "{line}").is_ok() {
                    written.fetch_add(1, Ordering::Relaxed);
                    unflushed += 1;
                    if unflushed >= FLUSH_EVERY {
                        let _ = out.flush();
                        unflushed = 0;
                    }
                }
            }
            Ok(WriterMsg::Stop) => break,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if unflushed > 0 {
                    let _ = out.flush();
                    unflushed = 0;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let _ = out.flush();
}

/// Parses a flight JSONL file. Blank lines are skipped; a malformed
/// line is an error naming its line number (the writer emits one record
/// per line, so damage means truncation or external edits).
pub fn load_flight(path: &Path) -> Result<Vec<FlightRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("flight: read {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: FlightRecord = serde_json::from_str(line)
            .map_err(|e| format!("flight: {}:{}: {e:?}", path.display(), idx + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Proves every job's span chain in `records` is complete. Returns the
/// list of violations (empty = the log tells a coherent story):
///
/// * every `submitted` job has exactly one `responded` record and as
///   many `resolved` records as it declared points;
/// * every point that was `resolved{enqueued}` was eventually `stored`
///   or `failed`;
/// * per worker, `claimed` and `batch_done` counts agree (no batch
///   vanished mid-flight);
/// * the log carries at least one `queue` depth sample.
pub fn validate_chains(records: &[FlightRecord]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut submitted: BTreeMap<u64, u64> = BTreeMap::new();
    let mut responded: BTreeMap<u64, u64> = BTreeMap::new();
    let mut resolved: BTreeMap<u64, u64> = BTreeMap::new();
    let mut enqueued_keys: BTreeSet<&str> = BTreeSet::new();
    let mut settled_keys: BTreeSet<&str> = BTreeSet::new();
    let mut per_worker: BTreeMap<u64, [u64; 2]> = BTreeMap::new();
    let mut queue_samples = 0u64;
    for r in records {
        match r.event.as_str() {
            flight_event::SUBMITTED => {
                if let Some(job) = r.job {
                    submitted.insert(job, r.points.unwrap_or(0));
                }
            }
            flight_event::RESPONDED => {
                if let Some(job) = r.job {
                    *responded.entry(job).or_insert(0) += 1;
                }
            }
            flight_event::RESOLVED => {
                if let Some(job) = r.job {
                    *resolved.entry(job).or_insert(0) += 1;
                }
                if r.kind.as_deref() == Some(flight_event::KIND_ENQUEUED) {
                    if let Some(key) = &r.key {
                        enqueued_keys.insert(key);
                    }
                }
            }
            flight_event::STORED | flight_event::FAILED => {
                if let Some(key) = &r.key {
                    settled_keys.insert(key);
                }
            }
            flight_event::CLAIMED => {
                per_worker.entry(r.worker.unwrap_or(0)).or_default()[0] += 1;
            }
            flight_event::BATCH_DONE => {
                per_worker.entry(r.worker.unwrap_or(0)).or_default()[1] += 1;
            }
            flight_event::QUEUE => queue_samples += 1,
            other => problems.push(format!("unknown event {other:?}")),
        }
    }
    for (job, points) in &submitted {
        match responded.get(job) {
            None => problems.push(format!("job {job}: submitted but never responded")),
            Some(1) => {}
            Some(n) => problems.push(format!("job {job}: responded {n} times")),
        }
        let seen = resolved.get(job).copied().unwrap_or(0);
        if seen != *points {
            problems.push(format!(
                "job {job}: {points} points submitted but {seen} resolved"
            ));
        }
    }
    for (job, _) in responded.iter().filter(|(j, _)| !submitted.contains_key(j)) {
        problems.push(format!("job {job}: responded but never submitted"));
    }
    for key in enqueued_keys.difference(&settled_keys) {
        problems.push(format!("point {key}: enqueued but never stored or failed"));
    }
    for (worker, [claimed, done]) in &per_worker {
        if claimed != done {
            problems.push(format!("worker {worker}: {claimed} claimed / {done} done"));
        }
    }
    if queue_samples == 0 {
        problems.push("no queue depth samples".to_string());
    }
    problems
}

/// Renders flight records as Chrome `trace_event` JSON (the same array
/// format `noc-trace` emits, loadable at `ui.perfetto.dev`):
///
/// * one process (`pid 3`, "nocserve daemon");
/// * one thread per **worker** carrying its batches as complete spans
///   (`batch`, back-computed from `batch_done` and its `wall_ms`) plus
///   `claimed`/`stored`/`failed` instants;
/// * one thread per **job** carrying the job's `submitted → responded`
///   lifetime as a complete span plus per-point `resolved:<kind>`
///   instants;
/// * a `queue_depth` counter track from the sampler's `queue` records.
///
/// Timestamps are already microseconds since daemon start, Perfetto's
/// native unit.
pub fn chrome_trace(records: &[FlightRecord]) -> String {
    let mut events: Vec<Content> = Vec::new();
    events.push(meta("process_name", PID_DAEMON, None, "nocserve daemon"));
    let workers: BTreeSet<u64> = records.iter().filter_map(|r| r.worker).collect();
    for w in &workers {
        events.push(meta(
            "thread_name",
            PID_DAEMON,
            Some(WORKER_TID_BASE + w),
            &format!("worker {w}"),
        ));
    }
    let mut job_bounds: BTreeMap<u64, (Option<u64>, Option<u64>, u64)> = BTreeMap::new();
    for r in records {
        let Some(job) = r.job else { continue };
        let entry = job_bounds.entry(job).or_insert((None, None, 0));
        match r.event.as_str() {
            flight_event::SUBMITTED => {
                entry.0 = Some(r.ts_us);
                entry.2 = r.points.unwrap_or(0);
            }
            flight_event::RESPONDED => entry.1 = Some(r.ts_us),
            _ => {}
        }
    }
    for (job, (start, end, points)) in &job_bounds {
        let tid = JOB_TID_BASE + job;
        events.push(meta(
            "thread_name",
            PID_DAEMON,
            Some(tid),
            &format!("job {job}"),
        ));
        if let (Some(start), Some(end)) = (start, end) {
            events.push(span(
                &format!("job {job}"),
                "job",
                PID_DAEMON,
                tid,
                *start,
                end.saturating_sub(*start),
                vec![num("points", *points)],
            ));
        }
    }
    for r in records {
        match r.event.as_str() {
            flight_event::RESOLVED => {
                if let Some(job) = r.job {
                    let kind = r.kind.as_deref().unwrap_or("?");
                    let mut args = vec![text("kind", kind)];
                    args.extend(r.key.as_deref().map(|key| text("key", key)));
                    events.push(instant(
                        &format!("resolved:{kind}"),
                        "resolve",
                        PID_DAEMON,
                        JOB_TID_BASE + job,
                        r.ts_us,
                        args,
                    ));
                }
            }
            flight_event::BATCH_DONE => {
                if let Some(worker) = r.worker {
                    let dur = r.wall_ms.unwrap_or(0).saturating_mul(1_000);
                    let mut args = Vec::new();
                    args.extend(r.points.map(|points| num("points", points)));
                    args.extend(r.cycles.map(|cycles| num("cycles", cycles)));
                    events.push(span(
                        "batch",
                        "batch",
                        PID_DAEMON,
                        WORKER_TID_BASE + worker,
                        r.ts_us.saturating_sub(dur),
                        dur,
                        args,
                    ));
                }
            }
            flight_event::CLAIMED | flight_event::STORED | flight_event::FAILED => {
                if let Some(worker) = r.worker {
                    events.push(instant(
                        &r.event,
                        "worker",
                        PID_DAEMON,
                        WORKER_TID_BASE + worker,
                        r.ts_us,
                        r.key.iter().map(|key| text("key", key)).collect(),
                    ));
                }
            }
            flight_event::QUEUE => {
                events.push(counter(
                    "queue_depth",
                    PID_DAEMON,
                    None,
                    r.ts_us,
                    vec![num("depth", r.depth.unwrap_or(0))],
                ));
            }
            _ => {}
        }
    }
    serde_json::to_string(&Content::Seq(events)).expect("chrome trace serializes")
}

/// What [`check_daemon_trace`] verified about an exported trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonTraceSummary {
    /// Jobs with a complete lifetime span.
    pub jobs: u64,
    /// Worker batch spans.
    pub batch_spans: u64,
    /// `queue_depth` counter samples.
    pub counter_samples: u64,
}

/// Validates an exported daemon trace: structurally sound (the
/// workspace's one validator, [`noc_trace::chrome::validate`]), every
/// event under `pid 3`, a named daemon process, every job thread
/// carrying its lifetime span, and a non-empty counter track holding
/// nothing but `queue_depth` samples.
pub fn check_daemon_trace(json: &str) -> Result<DaemonTraceSummary, String> {
    let heads = validate(json)?;
    if let Some(idx) = heads.iter().position(|h| h.pid != PID_DAEMON) {
        let pid = heads[idx].pid;
        return Err(format!("event {idx}: pid {pid}, expected {PID_DAEMON}"));
    }
    if !heads.iter().any(|h| h.name == "process_name") {
        return Err("no process_name metadata".to_string());
    }
    // Job tracks sit at `JOB_TID_BASE` and above, worker tracks below.
    let job_tids = |ph: char| -> BTreeSet<u64> {
        heads
            .iter()
            .filter(|h| h.ph == ph)
            .filter_map(|h| h.tid.filter(|&tid| tid >= JOB_TID_BASE))
            .collect()
    };
    let job_spans = job_tids('X');
    if let Some(tid) = job_tids('M').difference(&job_spans).next() {
        return Err(format!(
            "job thread {} has no lifetime span",
            tid - JOB_TID_BASE
        ));
    }
    let counters = || heads.iter().filter(|h| h.ph == 'C');
    if let Some(stray) = counters().find(|h| h.name != "queue_depth") {
        return Err(format!("unexpected counter {:?}", stray.name));
    }
    let counter_samples = counters().count() as u64;
    if counter_samples == 0 {
        return Err("no queue_depth counter samples".to_string());
    }
    let batch_spans = heads
        .iter()
        .filter(|h| h.ph == 'X' && h.tid.is_some_and(|tid| tid < JOB_TID_BASE))
        .count();
    Ok(DaemonTraceSummary {
        jobs: job_spans.len() as u64,
        batch_spans: batch_spans as u64,
        counter_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::flight_event as ev;

    fn record(event: &str) -> FlightRecord {
        FlightRecord::of(event)
    }

    /// A minimal coherent log: one job, one enqueued point, one batch.
    fn coherent_log() -> Vec<FlightRecord> {
        let mut log = Vec::new();
        let mut r = record(ev::SUBMITTED);
        r.job = Some(1);
        r.points = Some(2);
        log.push(r);
        let mut r = record(ev::RESOLVED);
        r.job = Some(1);
        r.key = Some("00000000000000aa".to_string());
        r.kind = Some(ev::KIND_STORE.to_string());
        log.push(r);
        let mut r = record(ev::RESOLVED);
        r.job = Some(1);
        r.key = Some("00000000000000bb".to_string());
        r.kind = Some(ev::KIND_ENQUEUED.to_string());
        log.push(r);
        let mut r = record(ev::QUEUE);
        r.depth = Some(1);
        log.push(r);
        let mut r = record(ev::CLAIMED);
        r.worker = Some(0);
        r.points = Some(1);
        log.push(r);
        let mut r = record(ev::BATCH_DONE);
        r.worker = Some(0);
        r.points = Some(1);
        r.wall_ms = Some(12);
        r.cycles = Some(3_000);
        r.ts_us = 20_000;
        log.push(r);
        let mut r = record(ev::STORED);
        r.worker = Some(0);
        r.key = Some("00000000000000bb".to_string());
        r.ts_us = 20_001;
        log.push(r);
        let mut r = record(ev::RESPONDED);
        r.job = Some(1);
        r.ts_us = 20_500;
        log.push(r);
        log
    }

    #[test]
    fn bus_writes_jsonl_and_counts() {
        let dir = std::env::temp_dir().join(format!("flight-bus-{}", std::process::id()));
        let path = dir.join("log").join("run.flight");
        let bus = FlightBus::new(Some(&path)).expect("bus");
        for event in [ev::SUBMITTED, ev::QUEUE, ev::RESPONDED] {
            bus.publish(record(event));
        }
        bus.shutdown();
        let stats = bus.stats();
        assert_eq!((stats.emitted, stats.written, stats.dropped), (3, 3, 0));
        let records = load_flight(&path).expect("load");
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].event, ev::SUBMITTED);
        assert!(
            records.windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
            "timestamps are monotone"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn full_writer_queue_drops_instead_of_blocking() {
        let dir = std::env::temp_dir().join(format!("flight-full-{}", std::process::id()));
        let path = dir.join("run.flight");
        // Queue of 1 with the writer thread racing us: publish a burst
        // far larger than the queue and require the hot path neither
        // blocked nor lost count.
        let bus = FlightBus::with_queue(Some(&path), 1).expect("bus");
        for _ in 0..500 {
            bus.publish(record(ev::QUEUE));
        }
        bus.shutdown();
        let stats = bus.stats();
        assert_eq!(stats.emitted, 500);
        assert_eq!(
            stats.written + stats.dropped,
            500,
            "every record either hit disk or was counted dropped: {stats:?}"
        );
        let on_disk = load_flight(&path).expect("load").len() as u64;
        assert_eq!(on_disk, stats.written);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn watchers_receive_until_dropped() {
        let bus = FlightBus::new(None).expect("bus");
        let rx = bus.subscribe();
        assert_eq!(bus.stats().watchers, 1);
        bus.publish(record(ev::SUBMITTED));
        let got = rx.recv().expect("watcher sees the record");
        assert_eq!(got.event, ev::SUBMITTED);
        drop(rx);
        bus.publish(record(ev::RESPONDED));
        assert_eq!(bus.stats().watchers, 0, "disconnected watcher pruned");
        // No sink, so nothing written and nothing dropped.
        assert_eq!((bus.stats().written, bus.stats().dropped), (0, 0));
    }

    #[test]
    fn chain_validator_accepts_coherent_and_names_gaps() {
        assert_eq!(validate_chains(&coherent_log()), Vec::<String>::new());

        // Drop the response: the job chain is broken.
        let mut log = coherent_log();
        log.retain(|r| r.event != ev::RESPONDED);
        let problems = validate_chains(&log);
        assert!(
            problems.iter().any(|p| p.contains("never responded")),
            "{problems:?}"
        );

        // Drop the store: the enqueued point never settled.
        let mut log = coherent_log();
        log.retain(|r| r.event != ev::STORED);
        let problems = validate_chains(&log);
        assert!(
            problems.iter().any(|p| p.contains("never stored")),
            "{problems:?}"
        );

        // Lose a resolution: point counts disagree.
        let mut log = coherent_log();
        let idx = log
            .iter()
            .position(|r| r.event == ev::RESOLVED)
            .expect("has resolved");
        log.remove(idx);
        let problems = validate_chains(&log);
        assert!(
            problems.iter().any(|p| p.contains("resolved")),
            "{problems:?}"
        );
    }

    #[test]
    fn chrome_export_round_trips_the_checker() {
        let json = chrome_trace(&coherent_log());
        let summary = check_daemon_trace(&json).expect("valid trace");
        assert_eq!(summary.jobs, 1);
        assert_eq!(summary.batch_spans, 1);
        assert_eq!(summary.counter_samples, 1);
        // The checker rejects a trace whose job thread lost its span.
        let amputated = chrome_trace(
            &coherent_log()
                .into_iter()
                .filter(|r| r.event != ev::RESPONDED)
                .collect::<Vec<_>>(),
        );
        let err = check_daemon_trace(&amputated).expect_err("span missing");
        assert!(err.contains("no lifetime span"), "{err}");
    }
}
