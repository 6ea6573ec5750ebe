//! The daemon engine: point registry, worker pool, job tracking.
//!
//! Every sweep point is identified by its content-derived cache key
//! ([`crate::SpecKey`]), hashed before the engine lock is taken. The
//! engine keeps one state per key —
//! `Queued → Running → Done`/`Failed` — in a single registry shared by
//! all jobs, which is what makes cross-client deduplication free: a
//! submit that names a key another job is already computing simply
//! *observes* that key instead of enqueueing it again. Lookup order on
//! submit is memory (resolved this lifetime), then the on-disk store,
//! then the queue.
//!
//! Workers claim queued points in batches that share a
//! `(warmup, measure)` window shape and compute them one after another
//! with [`crate::simulate_point`] — the function the batch executor
//! ([`crate::run_sweep_parallel`]) and the serial reference
//! ([`crate::runner::sweep`]) call, which is the whole
//! bitwise-equivalence argument: there is one point path, so a point's
//! bytes cannot depend on who asked for it. A panicking point fails
//! only itself: the worker catches the unwind around each point, marks
//! that key `Failed`, stores the rest of its batch and keeps serving.
//!
//! A lifecycle step is counted only by recording its [`FlightEvent`] on
//! a [`Trail`]: applied to the [`MetricsRegistry`] under the engine lock
//! (a client that sees the step reads counters that include it), then
//! published to the [`FlightBus`] after the lock drops. A sampler thread
//! takes utilization samples, records queue depth and drains statsd
//! every [`ServeConfig::tick_ms`]. Worker-computed points are stored with
//! a [`Provenance`] stamp (the point's own wall time, worker id, daemon
//! git sha) so a fetched result can say where it came from.

use crate::flight::FlightBus;
use crate::metrics::MetricsRegistry;
use crate::statsd::StatsdSink;
use crate::store::{format_key, Provenance};
use crate::{
    simulate_point, FlightEvent, FlightRecord, LatencyPoint, MetricsReport, Resolution, SpecKey,
    Store, SweepResult, SweepSpec,
};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration: [`ServeConfig::from_env`], then `nocserve`'s
/// flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Socket path to listen on.
    pub socket: PathBuf,
    /// Result store directory (shared with batch runs' `FP_CACHE`).
    pub store_dir: PathBuf,
    /// Worker threads simulating points.
    pub workers: usize,
    /// Max points per worker claim (same-window batch).
    pub batch: usize,
    /// statsd file path, if telemetry is wanted.
    pub statsd: Option<String>,
    /// Flight-recorder JSONL path, if lifecycle logging is wanted.
    pub flight: Option<PathBuf>,
    /// Sampler tick period: gauge sampling, worker utilization and the
    /// statsd drain all run at this cadence.
    pub tick_ms: u64,
}

impl ServeConfig {
    /// The configuration a bare `nocserve` runs with. It reads only the
    /// environment names it shares with clients and the batch executor;
    /// every other setting is a `nocserve` flag:
    ///
    /// * the socket: `NOC_SERVE` ([`crate::client::SOCK_ENV`], which
    ///   also puts a figure binary in serve mode), then
    ///   `results/nocserve.sock`;
    /// * the store: `FP_CACHE` when it names a directory
    ///   ([`crate::runner::fp_cache_dir`]; a daemon always stores, so
    ///   `off` does not apply), then `results/cache` — deliberately the
    ///   batch executor's default, so daemon and batch runs share one
    ///   store;
    /// * `NOC_JOBS` workers (default: available cores);
    /// * 4 points per claim;
    /// * no statsd target and no flight recorder;
    /// * a 500 ms sampler tick.
    pub fn from_env() -> ServeConfig {
        ServeConfig {
            socket: std::env::var(crate::client::SOCK_ENV)
                .ok()
                .filter(|s| !s.is_empty())
                .map_or_else(crate::client::default_socket, PathBuf::from),
            store_dir: crate::runner::fp_cache_dir(std::env::var("FP_CACHE").ok().as_deref())
                .unwrap_or_else(|| PathBuf::from("results/cache")),
            workers: crate::num_jobs(),
            batch: 4,
            statsd: None,
            flight: None,
            tick_ms: 500,
        }
    }
}

/// Lifecycle of one point in the registry.
enum PointState {
    /// Waiting for a worker; carries everything needed to simulate it.
    Queued {
        spec: SweepSpec,
        rate: f64,
        /// When it entered the queue (feeds the queue-wait histogram).
        since: Instant,
    },
    /// A worker is simulating it right now.
    Running,
    /// Resolved; served from memory from now on.
    Done(LatencyPoint),
    /// The simulation panicked; jobs naming it fail with this message.
    Failed(String),
}

/// Mutable engine state, guarded by one mutex. Counters live in the
/// atomic [`MetricsRegistry`] instead.
struct State {
    points: HashMap<u64, PointState>,
    queue: VecDeque<u64>,
    next_job: u64,
    inflight: u64,
}

/// Everything shared between connections, workers and the sampler.
struct Shared {
    state: Mutex<State>,
    /// Signals workers: the queue grew or shutdown was requested.
    work_cv: Condvar,
    /// Signals job waiters: some point resolved or shutdown was requested.
    done_cv: Condvar,
    store: Store,
    statsd: StatsdSink,
    metrics: MetricsRegistry,
    flight: FlightBus,
    /// Daemon-wide build identity, stamped into point provenance.
    git_sha: String,
    started: Instant,
    batch: usize,
    shutdown: AtomicBool,
}

impl Shared {
    /// The engine's gauge levels: `[queue_depth, inflight]`.
    fn levels(&self) -> [u64; 2] {
        let state = self.state.lock().expect("engine lock");
        [state.queue.len() as u64, state.inflight]
    }
}

/// The one way the daemon records a lifecycle step: [`Trail::record`]
/// counts a flight event at once (under the engine lock, where one is
/// held), and [`Trail::publish`] hands the events to the bus after the
/// lock drops, so the bus never extends the critical section.
struct Trail<'a> {
    shared: &'a Shared,
    events: Vec<FlightEvent>,
}

impl<'a> Trail<'a> {
    fn new(shared: &'a Shared) -> Trail<'a> {
        Trail {
            shared,
            events: Vec::new(),
        }
    }

    fn record(&mut self, event: FlightEvent) -> &mut Trail<'a> {
        self.shared.metrics.apply(&event);
        self.events.push(event);
        self
    }

    /// How many recorded `resolved` events have one of `kinds`.
    fn tally(&self, kinds: &[Resolution]) -> u64 {
        let resolved = self
            .events
            .iter()
            .filter(|e| matches!(e, FlightEvent::Resolved { kind, .. } if kinds.contains(kind)));
        resolved.count() as u64
    }

    fn publish(&mut self) {
        for event in self.events.drain(..) {
            self.shared.flight.publish(event);
        }
    }
}

/// A submitted job: the accepted counts plus the key grid to collect.
#[derive(Debug, Clone)]
pub struct Job {
    /// Job id, unique within this daemon.
    pub id: u64,
    /// Total points (with multiplicity across specs).
    pub total: u64,
    /// Points newly enqueued by this submit.
    pub computed: u64,
    /// Points served from the store or memory at submit time.
    pub cached: u64,
    /// Points already in flight for another job.
    pub deduped: u64,
    specs: Vec<SweepSpec>,
    /// `keys[i][j]` = key of `specs[i].rates[j]`.
    keys: Vec<Vec<u64>>,
}

/// A progress snapshot for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// Points resolved (done or failed) so far.
    pub done: u64,
    /// Total points in the job.
    pub total: u64,
    /// Whether every point has resolved.
    pub complete: bool,
}

/// The sweep-service engine. Cheap to clone (an [`Arc`] handle); the
/// worker pool runs until [`Daemon::request_shutdown`].
#[derive(Clone)]
pub struct Daemon {
    shared: Arc<Shared>,
}

impl Daemon {
    /// Boots the engine: opens the store, starts the flight recorder,
    /// and spawns the worker pool plus the sampler tick. Threads are
    /// detached; they exit promptly after [`Daemon::request_shutdown`].
    ///
    /// # Errors
    ///
    /// If the flight-recorder log cannot be created — a misconfigured
    /// `--flight` path should fail loudly at boot, not silently record
    /// nothing.
    pub fn start(config: &ServeConfig) -> Result<Daemon, String> {
        let flight = FlightBus::new(config.flight.as_deref())?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                points: HashMap::new(),
                queue: VecDeque::new(),
                next_job: 1,
                inflight: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            store: Store::new(config.store_dir.clone()),
            statsd: StatsdSink::new(config.statsd.as_deref()),
            metrics: MetricsRegistry::new(config.workers.max(1)),
            flight,
            git_sha: crate::git_sha(),
            started: Instant::now(),
            batch: config.batch.max(1),
            shutdown: AtomicBool::new(false),
        });
        for worker in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, worker));
        }
        let tick = Arc::clone(&shared);
        let tick_ms = config.tick_ms.max(1);
        std::thread::spawn(move || tick_loop(&tick, tick_ms));
        Ok(Daemon { shared })
    }

    /// The store this daemon owns.
    pub fn store(&self) -> &Store {
        &self.shared.store
    }

    /// Registers a sweep job: resolves each point against memory, then
    /// the store, then the in-flight registry, enqueueing only what no
    /// one has computed or started. Returns the job handle to collect.
    pub fn submit(&self, specs: Vec<SweepSpec>) -> Job {
        // Every key is hashed before the lock is taken: the critical
        // section below only looks keys up.
        let keys: Vec<Vec<u64>> = specs
            .iter()
            .map(|spec| {
                let spec_key = SpecKey::new(spec);
                spec.rates.iter().map(|&r| spec_key.point(r)).collect()
            })
            .collect();
        let points: u64 = keys.iter().map(|k| k.len() as u64).sum();
        let mut trail = Trail::new(&self.shared);
        let mut state = self.shared.state.lock().expect("engine lock");
        let id = state.next_job;
        state.next_job += 1;
        trail.record(FlightEvent::Submitted { job: id, points });
        for (spec, spec_keys) in specs.iter().zip(&keys) {
            for (&rate, &key) in spec.rates.iter().zip(spec_keys) {
                let kind = match state.points.get(&key) {
                    Some(PointState::Done(_) | PointState::Failed(_)) => Resolution::Memory,
                    Some(PointState::Queued { .. } | PointState::Running) => Resolution::Dedup,
                    None => {
                        if let Some(point) = self.shared.store.load(key) {
                            state.points.insert(key, PointState::Done(point));
                            Resolution::Store
                        } else {
                            state.points.insert(
                                key,
                                PointState::Queued {
                                    spec: spec.clone(),
                                    rate,
                                    since: Instant::now(),
                                },
                            );
                            state.queue.push_back(key);
                            Resolution::Enqueued
                        }
                    }
                };
                trail.record(FlightEvent::Resolved {
                    key: format_key(key),
                    kind,
                    job: id,
                });
            }
        }
        trail.record(FlightEvent::Queue {
            depth: state.queue.len() as u64,
        });
        drop(state);
        self.shared.work_cv.notify_all();
        let job = Job {
            id,
            total: points,
            computed: trail.tally(&[Resolution::Enqueued]),
            cached: trail.tally(&[Resolution::Memory, Resolution::Store]),
            deduped: trail.tally(&[Resolution::Dedup]),
            specs,
            keys,
        };
        trail.publish();
        job
    }

    fn progress_locked(&self, state: &State, job: &Job) -> JobProgress {
        let mut done = 0u64;
        for spec_keys in &job.keys {
            for key in spec_keys {
                if matches!(
                    state.points.get(key),
                    Some(PointState::Done(_) | PointState::Failed(_))
                ) {
                    done += 1;
                }
            }
        }
        JobProgress {
            done,
            total: job.total,
            complete: done == job.total,
        }
    }

    /// Blocks until `job`'s done count exceeds `last_done`, the job
    /// completes, or shutdown is requested; returns the fresh snapshot.
    pub fn wait_progress(&self, job: &Job, last_done: u64) -> JobProgress {
        let mut state = self.shared.state.lock().expect("engine lock");
        loop {
            let snap = self.progress_locked(&state, job);
            if snap.complete || snap.done > last_done || self.is_shutdown() {
                return snap;
            }
            let (next, _) = self
                .shared
                .done_cv
                .wait_timeout(state, Duration::from_millis(200))
                .expect("engine lock");
            state = next;
        }
    }

    /// Assembles a completed job's sweeps in spec/rate order.
    ///
    /// # Errors
    ///
    /// If any point failed (worker panic) or the daemon is shutting
    /// down before completion, a readable message naming the first
    /// failed point.
    pub fn collect(&self, job: &Job) -> Result<Vec<SweepResult>, String> {
        let state = self.shared.state.lock().expect("engine lock");
        let mut sweeps = Vec::with_capacity(job.specs.len());
        for (spec, spec_keys) in job.specs.iter().zip(&job.keys) {
            let mut points = Vec::with_capacity(spec_keys.len());
            for (key, &rate) in spec_keys.iter().zip(&spec.rates) {
                match state.points.get(key) {
                    Some(PointState::Done(point)) => points.push(point.clone()),
                    Some(PointState::Failed(msg)) => {
                        return Err(format!(
                            "point {} ({} {} rate={rate}) failed: {msg}",
                            format_key(*key),
                            spec.id.name(),
                            spec.pattern.name()
                        ));
                    }
                    _ => {
                        return Err(format!(
                            "point {} unresolved (daemon shutting down?)",
                            format_key(*key)
                        ));
                    }
                }
            }
            sweeps.push(SweepResult {
                scheme: spec.id.name().to_string(),
                pattern: spec.pattern.name().to_string(),
                size: spec.size,
                points,
            });
        }
        drop(state);
        self.shared.metrics.jobs_completed.add(1);
        Ok(sweeps)
    }

    /// Looks up one stored point together with its provenance stamp.
    /// The store is consulted first (it carries provenance); memory
    /// covers points whose envelope predates the stamp or that only
    /// live in this lifetime.
    pub fn fetch_entry(&self, key: u64) -> Option<(LatencyPoint, Option<Provenance>)> {
        if let Some(entry) = self.shared.store.load_entry(key) {
            return Some(entry);
        }
        let state = self.shared.state.lock().expect("engine lock");
        if let Some(PointState::Done(point)) = state.points.get(&key) {
            return Some((point.clone(), None));
        }
        None
    }

    /// Evicts `key` from both memory and the store. Returns whether
    /// anything was removed. Queued/running points are left alone —
    /// evicting an in-flight point would break jobs waiting on it.
    pub fn evict(&self, key: u64) -> bool {
        let mut state = self.shared.state.lock().expect("engine lock");
        let in_memory = matches!(state.points.get(&key), Some(PointState::Done(_)));
        if in_memory {
            state.points.remove(&key);
        }
        let removed = self.shared.store.evict(key) || in_memory;
        drop(state);
        self.shared.metrics.evictions.add(u64::from(removed));
        removed
    }

    /// Runs a store gc pass (see [`Store::gc`]).
    pub fn gc(&self) -> crate::GcReport {
        let report = self.shared.store.gc();
        self.shared.metrics.gc_dropped.add(report.dropped());
        report
    }

    /// Records an accepted connection (transport layer calls this).
    pub fn note_connection(&self) {
        self.shared.metrics.connections.add(1);
    }

    /// Records a parsed request or a malformed line.
    pub fn note_request(&self, well_formed: bool) {
        if well_formed {
            self.shared.metrics.requests.add(1);
        } else {
            self.shared.metrics.bad_requests.add(1);
        }
    }

    /// Publishes the `responded` flight record that closes `job`'s span:
    /// the transport stopped answering it, with a result, an error, or
    /// because the peer hung up. The transport calls this exactly once
    /// per submitted job, before writing any terminal line.
    pub fn note_responded(&self, job: u64) {
        Trail::new(&self.shared)
            .record(FlightEvent::Responded { job })
            .publish();
    }

    /// Subscribes a live `watch` stream to the flight bus.
    pub fn subscribe_flight(&self) -> Receiver<FlightRecord> {
        self.shared.flight.subscribe()
    }

    /// The wire report behind `nocctl metrics`, the daemon's one report:
    /// counters, gauges read now, histograms, worker utilization over
    /// the ticks so far (a report takes no sample), flight-bus health.
    pub fn metrics_report(&self) -> MetricsReport {
        let uptime = self.shared.started.elapsed().as_secs();
        let (levels, flight) = (self.shared.levels(), self.shared.flight.stats());
        self.shared.metrics.report(uptime, levels, flight)
    }

    /// Flags shutdown and wakes every worker and job waiter.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Final observability drain: pushes remaining counter deltas and
    /// gauges to statsd, then flushes and joins the flight writer so
    /// the JSONL log is complete on disk. Call once, after the last
    /// request is answered.
    pub fn flush_observability(&self) {
        let levels = self.shared.levels();
        self.shared.metrics.drain_into(&self.shared.statsd, levels);
        self.shared.flight.shutdown();
    }
}

/// Sampler tick body: every `tick_ms`, sample the worker busy bits,
/// record the queue depth, and drain the registry into the statsd sink.
fn tick_loop(shared: &Arc<Shared>, tick_ms: u64) {
    loop {
        std::thread::sleep(Duration::from_millis(tick_ms));
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let levels = shared.levels();
        shared.metrics.sample_workers();
        Trail::new(shared)
            .record(FlightEvent::Queue { depth: levels[0] })
            .publish();
        shared.metrics.drain_into(&shared.statsd, levels);
    }
}

/// One claimed point: key plus what to simulate.
struct Claim {
    key: u64,
    spec: SweepSpec,
    rate: f64,
    /// How long it sat queued before this claim.
    queued_ms: u64,
}

/// Pops a batch of queued points sharing one `(warmup, measure)` window
/// shape (a claim's flight records carry one `cycles` value).
fn claim_batch(state: &mut State, max: usize) -> Vec<Claim> {
    let mut batch: Vec<Claim> = Vec::new();
    let mut window: Option<(u64, u64)> = None;
    let mut skipped = VecDeque::new();
    while batch.len() < max {
        let Some(key) = state.queue.pop_front() else {
            break;
        };
        let fits = match state.points.get(&key) {
            Some(PointState::Queued { spec, .. }) => {
                window.is_none() || window == Some((spec.warmup, spec.measure))
            }
            // Not queued anymore (evicted mid-queue): drop the stale
            // queue entry silently.
            _ => {
                continue;
            }
        };
        if !fits {
            skipped.push_back(key);
            continue;
        }
        let Some(PointState::Queued { spec, rate, since }) =
            state.points.insert(key, PointState::Running)
        else {
            unreachable!("checked Queued above");
        };
        window = Some((spec.warmup, spec.measure));
        batch.push(Claim {
            key,
            spec,
            rate,
            queued_ms: since.elapsed().as_millis() as u64,
        });
    }
    // Mismatched-window points go back to the queue front, in order.
    while let Some(key) = skipped.pop_back() {
        state.queue.push_front(key);
    }
    state.inflight += batch.len() as u64;
    batch
}

/// Simulates one claimed batch, point after point: each point's value
/// with the wall time it took, or the message of its panic. A point
/// that panics fails alone; the points around it still run.
fn run_claims(claims: &[Claim]) -> Vec<Result<(LatencyPoint, u64), String>> {
    claims
        .iter()
        .map(|c| {
            let begun = Instant::now();
            catch_unwind(AssertUnwindSafe(|| simulate_point(&c.spec, c.rate)))
                .map(|point| (point, begun.elapsed().as_millis() as u64))
                .map_err(|panic| panic_message(&*panic))
        })
        .collect()
}

/// Worker thread body: claim, simulate, persist, publish, repeat.
fn worker_loop(shared: &Arc<Shared>, worker: usize) {
    let worker_id = worker as u64;
    loop {
        let claims = {
            let mut state = shared.state.lock().expect("engine lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let claims = claim_batch(&mut state, shared.batch);
                if !claims.is_empty() {
                    break claims;
                }
                let (next, _) = shared
                    .work_cv
                    .wait_timeout(state, Duration::from_millis(200))
                    .expect("engine lock");
                state = next;
            }
        };

        let m = &shared.metrics;
        let n = claims.len() as u64;
        let cycles = claims[0].spec.warmup + claims[0].spec.measure;
        m.worker_busy(worker, true);
        for claim in &claims {
            m.queue_wait_ms.record(claim.queued_ms);
        }
        Trail::new(shared)
            .record(FlightEvent::Claimed {
                worker: worker_id,
                points: n,
                cycles,
            })
            .publish();

        let begun = Instant::now();
        let outcomes = run_claims(&claims);
        let wall_ms = begun.elapsed().as_millis() as u64;

        // Persist outside the lock: identical keys can only ever race
        // to write identical bytes (provenance differs per writer, but
        // the *point* — the only payload correctness depends on — is
        // key-determined).
        for (claim, outcome) in claims.iter().zip(&outcomes) {
            if let Ok((point, point_ms)) = outcome {
                let provenance =
                    Provenance::now(*point_ms, Some(worker_id), shared.git_sha.clone(), cycles);
                shared
                    .store
                    .store_with_provenance(claim.key, point, Some(&provenance));
            }
        }

        let mut trail = Trail::new(shared);
        let mut state = shared.state.lock().expect("engine lock");
        state.inflight -= n;
        for (claim, outcome) in claims.into_iter().zip(outcomes) {
            let (key, worker) = (format_key(claim.key), worker_id);
            let (event, settled) = match outcome {
                Ok((point, _)) => (FlightEvent::Stored { key, worker }, PointState::Done(point)),
                Err(msg) => (FlightEvent::Failed { key, worker }, PointState::Failed(msg)),
            };
            trail.record(event);
            state.points.insert(claim.key, settled);
        }
        // Counted before the points are visible as settled, so a client
        // that sees its job complete reads a registry that has this batch.
        trail.record(FlightEvent::BatchDone {
            worker: worker_id,
            points: n,
            wall_ms,
            cycles,
        });
        drop(state);
        m.worker_busy(worker, false);
        trail.publish();
        shared.done_cv.notify_all();
    }
}

/// Renders a caught panic payload readably.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{point_cache_key, SchemeId};
    use traffic::SyntheticPattern;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nocserve_core_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(tag: &str) -> ServeConfig {
        ServeConfig {
            socket: temp_dir(tag).join("sock"),
            store_dir: temp_dir(tag),
            workers: 2,
            batch: 4,
            statsd: None,
            flight: None,
            tick_ms: 500,
        }
    }

    fn boot(cfg: &ServeConfig) -> Daemon {
        Daemon::start(cfg).expect("engine boots")
    }

    fn tiny_spec(seed: u64) -> SweepSpec {
        SweepSpec {
            id: SchemeId::Vct,
            pattern: SyntheticPattern::Uniform,
            rates: vec![0.02, 0.05],
            size: 4,
            fp_vcs: 2,
            warmup: 100,
            measure: 200,
            seed,
        }
    }

    /// The lifetime total of counter `name` in `daemon`'s report.
    fn counter(daemon: &Daemon, name: &str) -> u64 {
        let report = daemon.metrics_report();
        let found = report.counters.iter().find(|c| c.name == name);
        found.map_or(u64::MAX, |c| c.value)
    }

    fn wait_complete(daemon: &Daemon, job: &Job) {
        let mut done = 0;
        loop {
            let snap = daemon.wait_progress(job, done);
            done = snap.done;
            if snap.complete {
                return;
            }
        }
    }

    #[test]
    fn computes_then_serves_from_memory() {
        let cfg = config("memory");
        let daemon = boot(&cfg);
        let job = daemon.submit(vec![tiny_spec(7)]);
        assert_eq!((job.total, job.computed, job.cached), (2, 2, 0));
        wait_complete(&daemon, &job);
        let first = daemon.collect(&job).expect("job completes");
        assert_eq!(first[0].points.len(), 2);

        // Same submit again: all memory hits, nothing recomputed.
        let again = daemon.submit(vec![tiny_spec(7)]);
        assert_eq!((again.computed, again.cached), (0, 2));
        wait_complete(&daemon, &again);
        let second = daemon.collect(&again).expect("cached job completes");
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap()
        );
        assert_eq!(counter(&daemon, "points_computed"), 2);
        assert_eq!(counter(&daemon, "memory_hits"), 2);
        daemon.request_shutdown();
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn warm_store_restart_serves_without_recompute() {
        let cfg = config("restart");
        let daemon = boot(&cfg);
        let job = daemon.submit(vec![tiny_spec(9)]);
        wait_complete(&daemon, &job);
        let first = daemon.collect(&job).expect("job completes");
        daemon.request_shutdown();

        // "Restart": a fresh engine over the same store directory.
        let daemon = boot(&cfg);
        let job = daemon.submit(vec![tiny_spec(9)]);
        assert_eq!((job.computed, job.cached), (0, 2), "warm store serves all");
        wait_complete(&daemon, &job);
        let second = daemon.collect(&job).expect("warm job completes");
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap()
        );
        assert_eq!(counter(&daemon, "points_computed"), 0);
        assert_eq!(counter(&daemon, "store_hits"), 2);
        daemon.request_shutdown();
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn concurrent_identical_jobs_compute_each_point_once() {
        let cfg = config("dedup");
        let daemon = boot(&cfg);
        let jobs: Vec<Job> = (0..4).map(|_| daemon.submit(vec![tiny_spec(11)])).collect();
        for job in &jobs {
            wait_complete(&daemon, job);
        }
        let baseline = serde_json::to_string(&daemon.collect(&jobs[0]).unwrap()).unwrap();
        for job in &jobs[1..] {
            let sweeps = daemon.collect(job).expect("deduped job completes");
            assert_eq!(serde_json::to_string(&sweeps).unwrap(), baseline);
        }
        let counter = |name| counter(&daemon, name);
        assert_eq!(
            counter("points_computed"),
            2,
            "each unique point exactly once"
        );
        assert_eq!(counter("points_requested"), 8);
        assert_eq!(
            counter("store_hits") + counter("memory_hits") + counter("dedup_waits"),
            6,
            "the other six lookups resolved without simulation"
        );
        daemon.request_shutdown();
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn evict_forces_recompute_of_exactly_that_point() {
        let cfg = config("evict");
        let daemon = boot(&cfg);
        let spec = tiny_spec(13);
        let job = daemon.submit(vec![spec.clone()]);
        wait_complete(&daemon, &job);
        daemon.collect(&job).unwrap();
        let key = point_cache_key(&spec, spec.rates[0]);
        assert!(daemon.evict(key));
        assert!(!daemon.evict(key), "second evict finds nothing");

        let again = daemon.submit(vec![spec]);
        assert_eq!((again.computed, again.cached), (1, 1));
        wait_complete(&daemon, &again);
        daemon.collect(&again).unwrap();
        assert_eq!(counter(&daemon, "points_computed"), 3);
        daemon.request_shutdown();
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn computed_points_carry_worker_provenance() {
        let cfg = config("provenance");
        let daemon = boot(&cfg);
        let spec = tiny_spec(17);
        let job = daemon.submit(vec![spec.clone()]);
        wait_complete(&daemon, &job);
        daemon.collect(&job).expect("job completes");
        let key = point_cache_key(&spec, spec.rates[0]);
        let (_, provenance) = daemon.fetch_entry(key).expect("stored point");
        let provenance = provenance.expect("worker-computed points are stamped");
        assert!(provenance.worker.is_some(), "{provenance:?}");
        assert_eq!(provenance.cycles, spec.warmup + spec.measure);
        daemon.request_shutdown();
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    /// A NaN rate hashes to a key like any other and panics inside the
    /// simulation; it fails alone, and the points claimed with it are
    /// computed and stored.
    #[test]
    fn a_panicking_point_fails_only_itself() {
        let flight =
            std::env::temp_dir().join(format!("nocserve_core_panic_{}.flight", std::process::id()));
        let cfg = ServeConfig {
            workers: 1,
            flight: Some(flight.clone()),
            ..config("panic")
        };
        let daemon = boot(&cfg);
        let spec = SweepSpec {
            rates: vec![0.02, f64::NAN, 0.04],
            ..tiny_spec(23)
        };
        let job = daemon.submit(vec![spec.clone()]);
        wait_complete(&daemon, &job);
        let err = daemon
            .collect(&job)
            .expect_err("the NaN point fails the job");
        assert!(err.contains("probability is NaN"), "{err}");
        daemon.note_responded(job.id);
        let counts = ["points_computed", "points_failed"].map(|name| counter(&daemon, name));
        assert_eq!(counts, [2, 1]);
        for rate in [0.02, 0.04] {
            let key = point_cache_key(&spec, rate);
            assert!(daemon.store().load(key).is_some(), "rate {rate} not stored");
        }
        daemon.request_shutdown();
        daemon.flush_observability();
        let records = crate::flight::load_flight(&flight).expect("flight log loads");
        assert_eq!(
            crate::flight::validate_chains(&records),
            Vec::<String>::new()
        );
        let _ = std::fs::remove_file(&flight);
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    /// Utilization is a duty cycle over sampler ticks: a `metrics` poll
    /// while a worker is busy reads the gauges but takes no sample.
    #[test]
    fn a_metrics_poll_takes_no_utilization_sample() {
        let cfg = ServeConfig {
            tick_ms: 3_600_000,
            ..config("poll")
        };
        let daemon = boot(&cfg);
        daemon.submit(vec![SweepSpec {
            measure: 20_000,
            ..tiny_spec(29)
        }]);
        let mut busy_polls = 0;
        loop {
            let report = daemon.metrics_report();
            let inflight = report.gauges.iter().find(|g| g.name == "inflight");
            busy_polls += u32::from(inflight.expect("inflight gauge").value > 0);
            for w in &report.workers {
                assert_eq!(w.utilization, 0.0, "a poll sampled {w:?}");
            }
            if counter(&daemon, "points_computed") == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(busy_polls > 0, "no poll ran while the batch was in flight");
        daemon.request_shutdown();
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn metrics_report_tracks_engine_activity() {
        let cfg = config("metrics");
        let daemon = boot(&cfg);
        let job = daemon.submit(vec![tiny_spec(19)]);
        wait_complete(&daemon, &job);
        daemon.collect(&job).expect("job completes");
        for (name, want) in [
            ("jobs_submitted", 1),
            ("points_computed", 2),
            ("points_enqueued", 2),
        ] {
            assert_eq!(counter(&daemon, name), want, "{name}");
        }
        let report = daemon.metrics_report();
        let batches = report
            .histograms
            .iter()
            .find(|h| h.name == "batch_wall_ms")
            .expect("batch histogram");
        assert!(batches.count >= 1, "{batches:?}");
        let per_job = report
            .histograms
            .iter()
            .find(|h| h.name == "points_per_job")
            .expect("per-job histogram");
        assert_eq!((per_job.count, per_job.max), (1, 2));
        assert_eq!(report.workers.len(), 2);
        assert_eq!(
            report.workers.iter().map(|w| w.points).sum::<u64>(),
            2,
            "{report:?}"
        );
        daemon.request_shutdown();
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }
}
