//! The flight recorder: an append-only JSONL log of every job's
//! lifecycle, plus the live `watch` fan-out and the Perfetto exporter.
//!
//! Producers (the accept loop, submit path and workers) call
//! [`FlightBus::publish`] with a [`FlightEvent`]; the bus stamps the
//! daemon-relative timestamp and hands the [`FlightRecord`] to
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
//! span chain is complete, and [`chrome_trace`] streams it as Chrome
//! `trace_event` JSON (Perfetto-loadable) with workers and jobs as
//! threads under one daemon process — the service-level counterpart of
//! `noc-trace`'s per-flit exporter, through the same writer.

use crate::proto::{encode, FlightEvent, FlightRecord, FlightStats, Resolution};
use noc_trace::chrome::{validate, Arg};
use noc_trace::ChromeWriter;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, Write};
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

    /// Stamps `event` with the daemon-relative timestamp and fans the
    /// record out to the log writer and every watcher. Never blocks: a
    /// full writer queue drops the record (counted in [`FlightStats`]),
    /// a full watcher queue skips that watcher.
    pub fn publish(&self, event: FlightEvent) {
        let record = FlightRecord {
            ts_us: self.start.elapsed().as_micros() as u64,
            event,
        };
        self.emitted.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            let line = encode(&record);
            if sink.tx.try_send(WriterMsg::Record(line)).is_err() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
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
/// line — including an unknown event, or one missing a field its event
/// carries — is an error naming its line number (the writer emits one
/// record per line, so damage means truncation or external edits).
pub fn load_flight(path: &Path) -> Result<Vec<FlightRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("flight: read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| {
            serde_json::from_str(line)
                .map_err(|e| format!("flight: {}:{}: {e:?}", path.display(), idx + 1))
        })
        .collect()
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
    let mut enqueued_keys = BTreeSet::new();
    let mut settled_keys = BTreeSet::new();
    let mut per_worker: BTreeMap<u64, [u64; 2]> = BTreeMap::new();
    let mut queue_samples = 0u64;
    for r in records {
        match &r.event {
            FlightEvent::Submitted { job, points } => {
                submitted.insert(*job, *points);
            }
            FlightEvent::Responded { job } => *responded.entry(*job).or_insert(0) += 1,
            FlightEvent::Resolved { key, kind, job } => {
                *resolved.entry(*job).or_insert(0) += 1;
                if *kind == Resolution::Enqueued {
                    enqueued_keys.insert(key);
                }
            }
            FlightEvent::Stored { key, .. } | FlightEvent::Failed { key, .. } => {
                settled_keys.insert(key);
            }
            FlightEvent::Claimed { worker, .. } => per_worker.entry(*worker).or_default()[0] += 1,
            FlightEvent::BatchDone { worker, .. } => per_worker.entry(*worker).or_default()[1] += 1,
            FlightEvent::Queue { .. } => queue_samples += 1,
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

/// Streams flight records onto `out` as compact Chrome `trace_event`
/// JSON (the same array format `noc-trace` emits, through the same
/// [`ChromeWriter`], loadable at `ui.perfetto.dev`):
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
/// native unit. The thread names come first, so one pass over the
/// records collects the tracks and a second writes the events.
///
/// # Errors
///
/// Propagates `out`'s write errors.
pub fn chrome_trace(records: &[FlightRecord], out: impl Write) -> io::Result<()> {
    let (mut workers, mut jobs) = (BTreeSet::new(), BTreeSet::new());
    for r in records {
        match &r.event {
            FlightEvent::Submitted { job, .. }
            | FlightEvent::Responded { job }
            | FlightEvent::Resolved { job, .. } => {
                jobs.insert(*job);
            }
            FlightEvent::BatchDone { worker, .. }
            | FlightEvent::Claimed { worker, .. }
            | FlightEvent::Stored { worker, .. }
            | FlightEvent::Failed { worker, .. } => {
                workers.insert(*worker);
            }
            FlightEvent::Queue { .. } => {}
        }
    }
    let mut trace = ChromeWriter::compact(out);
    trace.meta("process_name", PID_DAEMON, None, "nocserve daemon")?;
    let worker_names = workers
        .iter()
        .map(|w| (WORKER_TID_BASE + w, format!("worker {w}")));
    let job_names = jobs.iter().map(|j| (JOB_TID_BASE + j, format!("job {j}")));
    for (tid, name) in worker_names.chain(job_names) {
        trace.meta("thread_name", PID_DAEMON, Some(tid), &name)?;
    }

    // Each job's submitted (ts, points), until `responded` closes its span.
    let mut open = BTreeMap::new();
    for r in records {
        let ts = r.ts_us;
        match &r.event {
            FlightEvent::Submitted { job, points } => {
                open.insert(*job, (ts, *points));
            }
            FlightEvent::Responded { job } => {
                if let Some((start, points)) = open.remove(job) {
                    let (tid, dur) = (JOB_TID_BASE + job, ts.saturating_sub(start));
                    let args = [Arg::Num("points", points)];
                    trace.span(
                        &format!("job {job}"),
                        "job",
                        PID_DAEMON,
                        tid,
                        start,
                        dur,
                        &args,
                    )?;
                }
            }
            FlightEvent::Resolved { key, kind, job } => {
                // The kind as the line spells it.
                let kind = serde::Serialize::to_content(kind);
                let kind = kind.as_str().unwrap_or_default();
                let args = [Arg::Text("kind", kind), Arg::Text("key", key)];
                let (name, tid) = (format!("resolved:{kind}"), JOB_TID_BASE + job);
                trace.instant(&name, "resolve", PID_DAEMON, tid, ts, &args)?;
            }
            FlightEvent::BatchDone {
                worker,
                points,
                wall_ms,
                cycles,
            } => {
                let dur = wall_ms.saturating_mul(1_000);
                let (tid, start) = (WORKER_TID_BASE + worker, ts.saturating_sub(dur));
                let args = [Arg::Num("points", *points), Arg::Num("cycles", *cycles)];
                trace.span("batch", "batch", PID_DAEMON, tid, start, dur, &args)?;
            }
            FlightEvent::Claimed { worker, .. } => {
                let tid = WORKER_TID_BASE + worker;
                trace.instant("claimed", "worker", PID_DAEMON, tid, ts, &[])?;
            }
            FlightEvent::Stored { key, worker } => {
                let (tid, args) = (WORKER_TID_BASE + worker, [Arg::Text("key", key)]);
                trace.instant("stored", "worker", PID_DAEMON, tid, ts, &args)?;
            }
            FlightEvent::Failed { key, worker } => {
                let (tid, args) = (WORKER_TID_BASE + worker, [Arg::Text("key", key)]);
                trace.instant("failed", "worker", PID_DAEMON, tid, ts, &args)?;
            }
            FlightEvent::Queue { depth } => {
                let args = [Arg::Num("depth", *depth)];
                trace.counter("queue_depth", PID_DAEMON, None, ts, &args)?;
            }
        }
    }
    trace.finish()?;
    Ok(())
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

/// Validates an exported daemon trace, read as a stream: structurally
/// sound (the workspace's one validator,
/// [`noc_trace::chrome::validate`]), every event under `pid 3`, a named
/// daemon process, every job thread carrying its lifetime span, and a
/// non-empty counter track holding nothing but `queue_depth` samples.
///
/// # Errors
///
/// Returns a message naming the first requirement the trace breaks.
pub fn check_daemon_trace(trace: impl BufRead) -> Result<DaemonTraceSummary, String> {
    let mut idx = 0u64;
    let mut named_process = false;
    // Job tracks sit at `JOB_TID_BASE` and above, worker tracks below.
    let (mut job_threads, mut job_spans) = (BTreeSet::new(), BTreeSet::new());
    let (mut batch_spans, mut counter_samples) = (0, 0);
    validate(trace, |h| {
        if h.pid != PID_DAEMON {
            return Err(format!("event {idx}: pid {}, expected {PID_DAEMON}", h.pid));
        }
        idx += 1;
        named_process |= h.name == "process_name";
        let job_tid = h.tid.filter(|&tid| tid >= JOB_TID_BASE);
        match h.ph {
            'M' => job_threads.extend(job_tid),
            'X' if job_tid.is_some() => job_spans.extend(job_tid),
            'X' => batch_spans += 1,
            'C' if h.name != "queue_depth" => {
                return Err(format!("unexpected counter {:?}", h.name));
            }
            'C' => counter_samples += 1,
            _ => {}
        }
        Ok(())
    })?;
    if !named_process {
        return Err("no process_name metadata".to_string());
    }
    if let Some(tid) = job_threads.difference(&job_spans).next() {
        return Err(format!(
            "job thread {} has no lifetime span",
            tid - JOB_TID_BASE
        ));
    }
    if counter_samples == 0 {
        return Err("no queue_depth counter samples".to_string());
    }
    Ok(DaemonTraceSummary {
        jobs: job_spans.len() as u64,
        batch_spans,
        counter_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal coherent log: one job, one enqueued point, one batch.
    const COHERENT_LOG: &str = r#"{"ts_us":0,"event":"submitted","job":1,"points":2}
{"ts_us":0,"event":"resolved","key":"00000000000000aa","kind":"store","job":1}
{"ts_us":0,"event":"resolved","key":"00000000000000bb","kind":"enqueued","job":1}
{"ts_us":0,"event":"queue","depth":1}
{"ts_us":0,"event":"claimed","worker":0,"points":1,"cycles":3000}
{"ts_us":20000,"event":"batch_done","worker":0,"points":1,"wall_ms":12,"cycles":3000}
{"ts_us":20001,"event":"stored","key":"00000000000000bb","worker":0}
{"ts_us":20500,"event":"responded","job":1}"#;

    /// [`COHERENT_LOG`] without the lines containing `cut` (`""` cuts
    /// nothing).
    fn coherent_log(cut: &str) -> Vec<FlightRecord> {
        let lines = COHERENT_LOG
            .lines()
            .filter(|l| cut.is_empty() || !l.contains(cut));
        lines
            .map(|l| serde_json::from_str(l).expect("pinned line"))
            .collect()
    }

    #[test]
    fn bus_writes_jsonl_and_counts() {
        let dir = std::env::temp_dir().join(format!("flight-bus-{}", std::process::id()));
        let path = dir.join("log").join("run.flight");
        let bus = FlightBus::new(Some(&path)).expect("bus");
        let events = [
            FlightEvent::Submitted { job: 1, points: 0 },
            FlightEvent::Queue { depth: 0 },
            FlightEvent::Responded { job: 1 },
        ];
        for event in events.clone() {
            bus.publish(event);
        }
        bus.shutdown();
        let stats = bus.stats();
        assert_eq!((stats.emitted, stats.written, stats.dropped), (3, 3, 0));
        let records = load_flight(&path).expect("load");
        let logged: Vec<FlightEvent> = records.iter().map(|r| r.event.clone()).collect();
        assert_eq!(logged, events);
        assert!(
            records.windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
            "timestamps are monotone"
        );
        // A line the vocabulary does not know stops the load, naming
        // the line; so does a known event missing a field it carries.
        for (bad, why) in [
            (r#"{"ts_us":1,"event":"warp"}"#, "unknown event `warp`"),
            (r#"{"ts_us":1,"event":"queue"}"#, "missing field `depth`"),
        ] {
            let log = std::fs::read_to_string(&path).expect("read");
            std::fs::write(&path, format!("{log}{bad}\n")).expect("append");
            let err = load_flight(&path).expect_err(bad);
            assert!(err.contains("run.flight:4:") && err.contains(why), "{err}");
            std::fs::write(&path, log).expect("restore");
        }
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
        for depth in 0..500 {
            bus.publish(FlightEvent::Queue { depth });
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
        let submitted = FlightEvent::Submitted { job: 1, points: 0 };
        bus.publish(submitted.clone());
        let got = rx.recv().expect("watcher sees the record");
        assert_eq!(got.event, submitted);
        drop(rx);
        bus.publish(FlightEvent::Responded { job: 1 });
        assert_eq!(bus.stats().watchers, 0, "disconnected watcher pruned");
        // No sink, so nothing written and nothing dropped.
        assert_eq!((bus.stats().written, bus.stats().dropped), (0, 0));
    }

    #[test]
    fn chain_validator_accepts_coherent_and_names_gaps() {
        assert_eq!(validate_chains(&coherent_log("")), Vec::<String>::new());
        for (cut, problem) in [
            // Drop the response: the job chain is broken.
            ("responded", "never responded"),
            // Drop the store: the enqueued point never settled.
            ("stored", "never stored"),
            // Lose a resolution: point counts disagree.
            ("\"store\"", "2 points submitted but 1 resolved"),
        ] {
            let problems = validate_chains(&coherent_log(cut));
            assert!(problems.iter().any(|p| p.contains(problem)), "{problems:?}");
        }
    }

    #[test]
    fn chrome_export_round_trips_the_checker() {
        let export = |records: &[FlightRecord]| {
            let mut json = Vec::new();
            chrome_trace(records, &mut json).expect("in-memory write");
            json
        };
        let json = export(&coherent_log(""));
        let summary = check_daemon_trace(&json[..]).expect("valid trace");
        assert_eq!(summary.jobs, 1);
        assert_eq!(summary.batch_spans, 1);
        assert_eq!(summary.counter_samples, 1);
        // The checker rejects a trace whose job thread lost its span.
        let amputated = export(&coherent_log("responded"));
        let err = check_daemon_trace(&amputated[..]).expect_err("span missing");
        assert!(err.contains("no lifetime span"), "{err}");
    }
}
