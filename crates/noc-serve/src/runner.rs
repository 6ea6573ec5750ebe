//! Sweep runners.
//!
//! Every figure of the paper is an embarrassingly parallel grid of
//! independent simulation points — `(scheme, pattern, rate)` triples
//! that each construct their own [`Simulation`] from a seeded RNG. The
//! runners here exploit that:
//!
//! * [`parallel_map`] — an ordered work-queue executor (the calling
//!   thread plus helpers from a process-wide pool of parked threads,
//!   claiming jobs from one atomic cursor, no dependencies) behind
//!   every figure's own jobs;
//! * [`run_sweep_parallel`] — the latency-vs-rate sweep entry point,
//!   with per-point progress lines and a deterministic on-disk result
//!   cache under `results/cache/` so interrupted sweeps resume instead
//!   of recomputing;
//! * [`sweep`] — the serial reference path. Parallel results are
//!   bitwise identical to it because every point's simulation is
//!   self-contained (enforced by a test in `tests/parallel_sweep.rs`).
//!
//! Knobs: `NOC_JOBS` (worker threads, default = available cores),
//! `FP_CACHE` (cache directory; `off`, `0` or empty disables —
//! [`fp_cache_dir`]).

use crate::registry::SchemeId;
use crate::store::{git_sha, Provenance, Store};
use noc_sim::Simulation;
use serde::{Deserialize, Serialize};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use traffic::{SyntheticPattern, SyntheticWorkload};

/// Reads a `u64` knob from the environment with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Number of worker threads requested via `NOC_JOBS`, defaulting to the
/// machine's available parallelism. Always at least 1.
pub fn num_jobs() -> usize {
    let default = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (env_u64("NOC_JOBS", default as u64) as usize).max(1)
}

/// Runs `jobs` on `workers` threads and returns the results in job
/// order. `on_done` fires on the thread that ran the job as soon as it
/// finishes (in completion order), for progress reporting.
///
/// The calling thread is one of the workers: it runs jobs beside
/// `workers - 1` helpers from a process-wide pool, so `workers == 1`
/// touches no helper. A helper is spawned the first time a call finds
/// none parked, and parks again when its call is done, so a later call
/// wakes it instead of paying a spawn. Each job is claimed from a
/// shared atomic cursor, so long and short jobs balance across workers.
/// Every worker keeps its own `(index, value)` pairs, and once every
/// helper has reported, the output `Vec` is assembled by job index,
/// which makes the caller's view independent of scheduling order — the
/// cornerstone of the serial-vs-parallel determinism guarantee.
///
/// Jobs, results and `on_done` are `'static` because a parked helper
/// outlives any borrow the caller could lend it; a helper lets go of
/// the call's state before it reports, so nothing of a call (an
/// unclaimed job, `on_done`'s captures) outlives the call. A job may
/// itself call `parallel_map`, and several threads may call at once:
/// each call takes helpers no other call holds.
///
/// # Panics
///
/// A panicking job stops every worker from claiming more; once all have
/// stopped, its original payload is re-raised unchanged. The helper
/// that ran it survives and serves later calls.
pub fn parallel_map_with<T, F, D>(jobs: Vec<F>, workers: usize, on_done: D) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
    D: Fn(usize, &T) + Send + Sync + 'static,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let call = Arc::new(Call {
        queue: jobs.into_iter().map(|f| Mutex::new(Some(f))).collect(),
        next: AtomicUsize::new(0),
        on_done,
    });
    let (report, reports) = mpsc::channel();
    let helpers: Vec<Arc<Helper>> = (1..workers.clamp(1, n))
        .map(|_| {
            let (call, report) = (Arc::clone(&call), report.clone());
            Helper::start(Box::new(move || {
                let outcome = call.work();
                // Let go of the call's jobs before reporting, so none
                // outlives the call.
                drop(call);
                let _ = report.send(outcome);
            }))
        })
        .collect();
    // Only the helpers hold senders now: a helper lost without a
    // report closes the channel instead of hanging the caller.
    drop(report);
    let own = call.work();
    let outcomes: Vec<_> = std::iter::once(own)
        .chain(
            helpers
                .iter()
                .map(|_| reports.recv().expect("every helper reports")),
        )
        .collect();
    if !helpers.is_empty() {
        idle_helpers().extend(helpers);
    }
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for outcome in outcomes {
        for (i, value) in outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload)) {
            results[i] = Some(value);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("worker completed every claimed job"))
        .collect()
}

/// [`parallel_map_with`] without a progress callback.
pub fn parallel_map<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    parallel_map_with(jobs, workers, |_, _| {})
}

/// One [`parallel_map_with`] call's shared state: the jobs, the cursor
/// every worker claims from, and the progress callback.
struct Call<F, D> {
    queue: Vec<Mutex<Option<F>>>,
    next: AtomicUsize,
    on_done: D,
}

impl<F, D> Call<F, D> {
    /// Claims and runs jobs until the cursor passes the last one,
    /// keeping each result with its index.
    fn work<T>(&self) -> std::thread::Result<Vec<(usize, T)>>
    where
        F: FnOnce() -> T,
        D: Fn(usize, &T),
    {
        let n = self.queue.len();
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut done = Vec::new();
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                let job = self.queue[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job claimed twice");
                let value = job();
                (self.on_done)(i, &value);
                done.push((i, value));
            }
        }))
        // A panic empties the queue for every other worker.
        .inspect_err(|_| self.next.store(n, Ordering::Relaxed))
    }
}

/// What a helper runs for one call: its share of the call's jobs, then
/// its report.
type Task = Box<dyn FnOnce() + Send>;

/// A pooled helper thread. It parks on `wake` until a caller puts a
/// task in `slot`, runs it, and parks again; the caller puts it back
/// among the idle helpers once it has reported.
struct Helper {
    slot: Mutex<Option<Task>>,
    wake: Condvar,
}

/// Helpers that no call holds, the most recently parked last.
fn idle_helpers() -> MutexGuard<'static, Vec<Arc<Helper>>> {
    static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());
    IDLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Helper threads spawned by this process, for the tests' reuse check.
#[cfg(test)]
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

impl Helper {
    /// Hands `task` to an idle helper, spawning one if none is parked,
    /// and returns the helper, now held by the caller.
    fn start(task: Task) -> Arc<Helper> {
        let parked = idle_helpers().pop();
        let helper = parked.unwrap_or_else(|| {
            let helper = Arc::new(Helper {
                slot: Mutex::new(None),
                wake: Condvar::new(),
            });
            let own = Arc::clone(&helper);
            std::thread::Builder::new()
                .name("parallel_map".into())
                .spawn(move || own.serve())
                .expect("spawn a helper thread");
            #[cfg(test)]
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            helper
        });
        *helper.slot.lock().expect("helper slot poisoned") = Some(task);
        helper.wake.notify_one();
        helper
    }

    /// The helper thread's body: run each task it is handed, forever.
    fn serve(&self) {
        loop {
            let mut slot = self.slot.lock().expect("helper slot poisoned");
            let task = loop {
                match slot.take() {
                    Some(task) => break task,
                    None => slot = self.wake.wait(slot).expect("helper slot poisoned"),
                }
            };
            drop(slot);
            // A task catches its jobs' panics. Anything else it raises
            // (a job's `Drop`) ends this thread and drops the task's
            // report sender, so the caller's `recv` fails instead of
            // waiting, and the helper never returns to the pool.
            task();
        }
    }
}

/// One point of a latency-vs-injection-rate curve (Fig. 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// Offered injection rate (packets/node/cycle).
    pub rate: f64,
    /// Average end-to-end packet latency (cycles).
    pub avg_latency: f64,
    /// Accepted throughput (packets/node/cycle).
    pub throughput: f64,
    /// Packets delivered in the measurement window.
    pub delivered: u64,
    /// Fraction delivered as FastPass-Packets (0 for baselines).
    pub fastpass_fraction: f64,
    /// Fraction of generated packets dropped (FastPass bubble).
    pub dropped_fraction: f64,
}

/// A full sweep for one scheme on one pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Scheme name.
    pub scheme: String,
    /// Pattern name.
    pub pattern: String,
    /// Mesh edge length.
    pub size: usize,
    /// Points in rate order.
    pub points: Vec<LatencyPoint>,
}

impl SweepResult {
    /// The saturation rate: the last offered rate *before* the first
    /// point whose latency exceeds `3 ×` the first point's latency or is
    /// not finite (the definition used in Figs. 7/8), or the last rate if
    /// no point does; 0 for an empty sweep. Latencies 10, 12, 50 at rates
    /// 0.1, 0.2, 0.3 give 0.2.
    pub fn saturation_rate(&self) -> f64 {
        let zero_load = self.points.first().map(|p| p.avg_latency).unwrap_or(0.0);
        for w in self.points.windows(2) {
            if w[1].avg_latency > 3.0 * zero_load || !w[1].avg_latency.is_finite() {
                return w[0].rate;
            }
        }
        self.points.last().map(|p| p.rate).unwrap_or(0.0)
    }
}

/// Everything that identifies one sweep: a scheme/pattern pair plus the
/// rate axis and simulation parameters.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Scheme under test.
    pub id: SchemeId,
    /// Synthetic destination pattern.
    pub pattern: SyntheticPattern,
    /// Injection rates, in output order.
    pub rates: Vec<f64>,
    /// Mesh edge length.
    pub size: usize,
    /// FastPass VCs per input buffer (ignored by VN-based schemes).
    pub fp_vcs: usize,
    /// Warmup cycles (statistics discarded).
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Simulation seed.
    pub seed: u64,
}

impl SweepSpec {
    /// The one rule for whether this spec can run. Every front end
    /// calls it before it simulates and keeps no check of its own: the
    /// daemon through [`WireSpec::to_spec`], `nocsim`, and the figures'
    /// `bench::run_sweeps`. A spec it admits builds and runs; the
    /// daemon worker's `catch_unwind` is only a backstop.
    ///
    /// # Errors
    ///
    /// Names the first axis out of bounds and its bound: the rates
    /// (non-empty, each in `(0, 1]`), the mesh edge and VC count with
    /// the scheme's own refusal ([`SchemeId::try_sim_config`]), the
    /// pattern's mesh ([`SyntheticPattern::check`]), then the windows
    /// (at least one measured cycle, a total that fits in a `u64`).
    ///
    /// [`WireSpec::to_spec`]: crate::proto::WireSpec::to_spec
    pub fn admit(&self) -> Result<(), String> {
        if self.rates.is_empty() {
            return Err("spec has no rates".to_string());
        }
        for &rate in &self.rates {
            traffic::check_rate(rate)?;
        }
        let cfg = self
            .id
            .try_sim_config(self.size, self.fp_vcs, self.seed)
            .map_err(|e| {
                let (name, size, fp_vcs) = (self.id.name(), self.size, self.fp_vcs);
                format!("{name} at size {size} with fp_vcs {fp_vcs}: {e}")
            })?;
        self.pattern.check(cfg.mesh)?;
        if self.measure == 0 {
            return Err("measure window must be at least 1 cycle".to_string());
        }
        self.warmup
            .checked_add(self.measure)
            .ok_or("warmup + measure window overflows u64")?;
        Ok(())
    }
}

/// Execution options for [`run_sweep_parallel`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads.
    pub jobs: usize,
    /// Completed-point cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Whether to emit per-point progress lines on stderr.
    pub progress: bool,
}

/// The cache directory an `FP_CACHE` value names: `results/cache` when
/// unset, `None` (caching off) for `off`, `0` or empty, else the value
/// as a path. Both executors read `FP_CACHE` through this one parser.
pub fn fp_cache_dir(value: Option<&str>) -> Option<PathBuf> {
    match value {
        None => Some(PathBuf::from("results/cache")),
        Some("" | "off" | "0") => None,
        Some(dir) => Some(PathBuf::from(dir)),
    }
}

impl SweepOptions {
    /// Options from the environment: `NOC_JOBS` workers, the cache
    /// directory [`fp_cache_dir`] reads from `FP_CACHE`, progress on.
    pub fn from_env() -> Self {
        SweepOptions {
            jobs: num_jobs(),
            cache_dir: fp_cache_dir(std::env::var("FP_CACHE").ok().as_deref()),
            progress: true,
        }
    }

    /// Quiet, uncached options with an explicit worker count (tests).
    #[must_use]
    pub fn quiet(jobs: usize) -> Self {
        SweepOptions {
            jobs,
            cache_dir: None,
            progress: false,
        }
    }
}

pub use crate::store::CACHE_SCHEMA_VERSION;

/// FNV-1a 64-bit, used for stable cache keys (`DefaultHasher` makes no
/// cross-version stability promise). A streaming state: it folds one
/// byte at a time, so hashing a text in pieces gives the same value as
/// hashing it whole, and `write!` feeds it formatted text without
/// building a `String`.
#[derive(Debug, Clone, Copy)]
struct Fnv1a64(u64);

impl Fnv1a64 {
    const BASIS: Fnv1a64 = Fnv1a64(0xcbf2_9ce4_8422_2325);

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::BASIS;
    h.write(bytes);
    h.0
}

/// One spec's cache-key derivation, done once per spec.
///
/// A point's key is the FNV-1a hash of the canonical text
/// `v{version}|{scheme}|{pattern}|{cfg_json}|{rate:?}|{seed}|{warmup}|{measure}`,
/// where `cfg_json` is the spec's full serialized [`SimConfig`]. Within
/// a spec only the rate changes, so this holds the hash state after the
/// prefix up to and including the fourth `|`, and [`SpecKey::point`]
/// continues it over the tail. Because FNV-1a is a streaming hash the
/// result is exactly the hash of the whole text: splitting it changes no
/// key. This is the only place the key text is built.
///
/// [`SimConfig`]: noc_core::config::SimConfig
#[derive(Debug, Clone, Copy)]
pub struct SpecKey {
    prefix: Fnv1a64,
    seed: u64,
    warmup: u64,
    measure: u64,
}

impl SpecKey {
    /// Hashes `spec`'s prefix under the current [`CACHE_SCHEMA_VERSION`].
    pub fn new(spec: &SweepSpec) -> SpecKey {
        SpecKey::with_version(spec, CACHE_SCHEMA_VERSION)
    }

    /// [`SpecKey::new`] with an explicit schema version — factored out
    /// so tests can prove that bumping [`CACHE_SCHEMA_VERSION`] changes
    /// every key (and therefore forces recomputation instead of stale
    /// cache hits).
    fn with_version(spec: &SweepSpec, version: u32) -> SpecKey {
        use std::fmt::Write;
        let cfg = spec.id.sim_config(spec.size, spec.fp_vcs, spec.seed);
        let cfg_json = serde_json::to_string(&cfg).expect("SimConfig serializes");
        let mut prefix = Fnv1a64::BASIS;
        write!(
            prefix,
            "v{version}|{}|{}|{cfg_json}|",
            spec.id.name(),
            spec.pattern.name(),
        )
        .expect("hashing never fails");
        SpecKey {
            prefix,
            seed: spec.seed,
            warmup: spec.warmup,
            measure: spec.measure,
        }
    }

    /// The cache key of this spec's point at `rate`.
    pub fn point(&self, rate: f64) -> u64 {
        use std::fmt::Write;
        let mut h = self.prefix;
        write!(h, "{rate:?}|{}|{}|{}", self.seed, self.warmup, self.measure)
            .expect("hashing never fails");
        h.0
    }
}

/// The cache key of one simulation point: a stable hash over everything
/// that determines its result — scheme, pattern, the full [`SimConfig`]
/// (serialized), rate, seed and window lengths. Callers keying many
/// rates of one spec should build its [`SpecKey`] once instead.
///
/// [`SimConfig`]: noc_core::config::SimConfig
pub fn point_cache_key(spec: &SweepSpec, rate: f64) -> u64 {
    SpecKey::new(spec).point(rate)
}

/// The stats digest of the golden fixtures and bitwise gates: a run's
/// full serialized [`NetStats`] (every counter and every distribution's
/// value → count histogram)
/// under the cache keys' FNV-1a, as 16 hex digits.
///
/// [`NetStats`]: noc_core::stats::NetStats
pub fn netstats_fnv64(stats: &noc_core::stats::NetStats) -> String {
    let json = serde_json::to_string(stats).expect("NetStats serializes");
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

/// Builds a fresh simulation for a scheme/pattern/rate triple at the
/// Table II configuration.
pub fn make_sim(
    id: SchemeId,
    pattern: SyntheticPattern,
    rate: f64,
    size: usize,
    fp_vcs: usize,
    seed: u64,
) -> Simulation {
    let cfg = id.sim_config(size, fp_vcs, seed);
    let scheme = id.build(&cfg, seed);
    let workload = SyntheticWorkload::new(pattern, rate, seed ^ 0x17AFF1C);
    Simulation::new(cfg, scheme, Box::new(workload))
}

/// Simulates one sweep point. Every call builds a fresh [`Simulation`]
/// from the spec's seed, so a point's result depends only on its inputs
/// — never on which thread ran it or what ran before it. Public because
/// the `nocserve` workers call it too: daemon and batch executor share
/// this one point path, which is their bitwise-equivalence guarantee.
pub fn simulate_point(spec: &SweepSpec, rate: f64) -> LatencyPoint {
    let mut sim = make_sim(
        spec.id,
        spec.pattern,
        rate,
        spec.size,
        spec.fp_vcs,
        spec.seed,
    );
    let stats = sim.run_windows(spec.warmup, spec.measure);
    latency_point(rate, &stats)
}

/// Reduces one finished run's [`NetStats`] to the stored
/// [`LatencyPoint`].
///
/// [`NetStats`]: noc_core::stats::NetStats
pub fn latency_point(rate: f64, stats: &noc_core::stats::NetStats) -> LatencyPoint {
    LatencyPoint {
        rate,
        avg_latency: stats.avg_latency(),
        throughput: stats.throughput_packets(),
        delivered: stats.delivered(),
        fastpass_fraction: stats.fastpass_fraction(),
        dropped_fraction: stats.dropped_fraction(),
    }
}

/// Runs a latency-vs-rate sweep serially (the reference path).
///
/// [`run_sweep_parallel`] produces bitwise-identical results; this stays
/// as the oracle for the determinism test and for callers that want a
/// single sweep without options plumbing.
pub fn sweep(spec: &SweepSpec) -> SweepResult {
    SweepResult {
        scheme: spec.id.name().to_string(),
        pattern: spec.pattern.name().to_string(),
        size: spec.size,
        points: spec
            .rates
            .iter()
            .map(|&r| simulate_point(spec, r))
            .collect(),
    }
}

/// Runs a batch of sweeps with every `(spec, rate)` point fanned out
/// across [`SweepOptions::jobs`] worker threads, returning one
/// [`SweepResult`] per spec with points in rate order.
///
/// Points already present in the cache are loaded instead of simulated,
/// so re-running a figure after an interrupted sweep only computes the
/// missing points. Results are bitwise identical to the serial
/// [`sweep`] path regardless of worker count or cache state.
pub fn run_sweep_parallel(specs: &[SweepSpec], opts: &SweepOptions) -> Vec<SweepResult> {
    let store = opts.cache_dir.as_deref().map(Store::new);
    // One key derivation per spec, not per point: the workers only
    // finish each rate's hash.
    let keys = match store {
        Some(_) => specs.iter().map(SpecKey::new).collect(),
        None => Vec::new(),
    };
    // Jobs are `'static`, so they share owned copies of the specs, the
    // store and the keys.
    let batch = Arc::new(SweepBatch {
        specs: specs.to_vec(),
        store,
        keys,
    });
    let points: Vec<(usize, f64)> = specs
        .iter()
        .enumerate()
        .flat_map(|(si, spec)| spec.rates.iter().map(move |&r| (si, r)))
        .collect();
    let jobs: Vec<_> = points
        .iter()
        .map(|&(si, rate)| {
            let batch = Arc::clone(&batch);
            move || batch.point(si, rate)
        })
        .collect();
    let on_done = {
        let batch = Arc::clone(&batch);
        let (progress, finished) = (opts.progress, AtomicUsize::new(0));
        move |i: usize, (point, cached): &(LatencyPoint, bool)| {
            let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
            if progress {
                let spec = &batch.specs[points[i].0];
                eprintln!(
                    "[sweep {done}/{}] {}/{} {}x{} rate={:.3} lat={:.1}{}",
                    points.len(),
                    spec.id.name(),
                    spec.pattern.name(),
                    spec.size,
                    spec.size,
                    point.rate,
                    point.avg_latency,
                    if *cached { " (cached)" } else { "" },
                );
            }
        }
    };
    // Results come back in job order, which is spec order and, within a
    // spec, rate order.
    let mut results = parallel_map_with(jobs, opts.jobs, on_done).into_iter();
    specs
        .iter()
        .map(|spec| SweepResult {
            scheme: spec.id.name().to_string(),
            pattern: spec.pattern.name().to_string(),
            size: spec.size,
            points: results
                .by_ref()
                .take(spec.rates.len())
                .map(|(point, _)| point)
                .collect(),
        })
        .collect()
}

/// What every job of one [`run_sweep_parallel`] call shares.
struct SweepBatch {
    specs: Vec<SweepSpec>,
    store: Option<Store>,
    /// One per spec when there is a store; empty otherwise.
    keys: Vec<SpecKey>,
}

impl SweepBatch {
    /// Spec `si`'s point at `rate`: a store hit, or a fresh simulation
    /// that is then stored. The flag says whether it was a hit.
    fn point(&self, si: usize, rate: f64) -> (LatencyPoint, bool) {
        let spec = &self.specs[si];
        let key = self
            .store
            .as_ref()
            .zip(self.keys.get(si))
            .map(|(s, k)| (s, k.point(rate)));
        if let Some(hit) = key.and_then(|(store, k)| store.load(k)) {
            return (hit, true);
        }
        let begun = std::time::Instant::now();
        let point = simulate_point(spec, rate);
        if let Some((store, k)) = key {
            // Provenance is metadata only — worker None marks the
            // in-process batch executor as the producer. The sha is
            // resolved here, on a write, so an all-hit sweep never forks
            // `git`.
            let stamp = Provenance::now(
                begun.elapsed().as_millis() as u64,
                None,
                git_sha(),
                spec.warmup + spec.measure,
            );
            // Cache writes are best-effort: a full disk or unwritable
            // directory degrades to recomputation, never to a wrong
            // result.
            store.store_with_provenance(k, &point, Some(&stamp));
        }
        (point, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    fn mk(rate: f64, lat: f64) -> LatencyPoint {
        LatencyPoint {
            rate,
            avg_latency: lat,
            throughput: rate,
            delivered: 100,
            fastpass_fraction: 0.0,
            dropped_fraction: 0.0,
        }
    }

    fn sweep_of(points: Vec<LatencyPoint>) -> SweepResult {
        SweepResult {
            scheme: "x".into(),
            pattern: "y".into(),
            size: 8,
            points,
        }
    }

    #[test]
    fn env_u64_parses_and_defaults() {
        std::env::remove_var("FP_TEST_KNOB_XYZ");
        assert_eq!(env_u64("FP_TEST_KNOB_XYZ", 7), 7);
        std::env::set_var("FP_TEST_KNOB_XYZ", "42");
        assert_eq!(env_u64("FP_TEST_KNOB_XYZ", 7), 42);
        std::env::set_var("FP_TEST_KNOB_XYZ", "junk");
        assert_eq!(env_u64("FP_TEST_KNOB_XYZ", 7), 7);
        std::env::remove_var("FP_TEST_KNOB_XYZ");
    }

    #[test]
    fn env_u64_rejects_overflow_and_negatives() {
        std::env::set_var("FP_TEST_KNOB_OVF", "99999999999999999999999999");
        assert_eq!(env_u64("FP_TEST_KNOB_OVF", 5), 5);
        std::env::set_var("FP_TEST_KNOB_OVF", "-3");
        assert_eq!(env_u64("FP_TEST_KNOB_OVF", 5), 5);
        std::env::set_var("FP_TEST_KNOB_OVF", u64::MAX.to_string());
        assert_eq!(env_u64("FP_TEST_KNOB_OVF", 5), u64::MAX);
        std::env::remove_var("FP_TEST_KNOB_OVF");
    }

    #[test]
    fn fp_cache_names_a_directory_or_turns_caching_off() {
        let dir = |s: &str| Some(PathBuf::from(s));
        assert_eq!(fp_cache_dir(None), dir("results/cache"));
        for off in ["", "off", "0"] {
            assert_eq!(fp_cache_dir(Some(off)), None, "{off:?}");
        }
        assert_eq!(fp_cache_dir(Some("/tmp/fp")), dir("/tmp/fp"));
    }

    #[test]
    fn saturation_rate_detects_knee() {
        let r = sweep_of(vec![
            mk(0.1, 10.0),
            mk(0.2, 12.0),
            mk(0.3, 50.0),
            mk(0.4, 500.0),
        ]);
        assert_eq!(r.saturation_rate(), 0.2);
    }

    #[test]
    fn saturation_rate_empty_sweep_is_zero() {
        assert_eq!(sweep_of(Vec::new()).saturation_rate(), 0.0);
    }

    #[test]
    fn saturation_rate_single_point_is_that_rate() {
        assert_eq!(sweep_of(vec![mk(0.05, 12.0)]).saturation_rate(), 0.05);
    }

    #[test]
    fn saturation_rate_never_saturating_returns_last_rate() {
        let r = sweep_of(vec![mk(0.1, 10.0), mk(0.2, 11.0), mk(0.3, 12.0)]);
        assert_eq!(r.saturation_rate(), 0.3);
    }

    #[test]
    fn saturation_rate_stops_at_non_finite_latency() {
        let nan = sweep_of(vec![mk(0.1, 10.0), mk(0.2, 11.0), mk(0.3, f64::NAN)]);
        assert_eq!(nan.saturation_rate(), 0.2);
        let inf = sweep_of(vec![mk(0.1, 10.0), mk(0.2, f64::INFINITY)]);
        assert_eq!(inf.saturation_rate(), 0.1);
    }

    /// Serialises the tests that call with helpers: another call could
    /// take a parked helper between two calls of a test that watches
    /// the pool, or spawn one while it counts.
    fn pool_to_myself() -> MutexGuard<'static, ()> {
        static POOL: Mutex<()> = Mutex::new(());
        POOL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Two jobs that each wait (up to 10 s) until both have started, so
    /// a two-worker call runs them on two threads. Each returns the
    /// thread it ran on.
    fn met_pair() -> Vec<impl FnOnce() -> ThreadId + Send + 'static> {
        let started = Arc::new(AtomicUsize::new(0));
        (0..2)
            .map(|_| {
                let started = Arc::clone(&started);
                move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    std::thread::current().id()
                }
            })
            .collect()
    }

    /// The one thread of `ran_on` that is not the caller's.
    fn helper_of(ran_on: &[ThreadId]) -> ThreadId {
        let caller = std::thread::current().id();
        assert!(ran_on.contains(&caller), "the caller runs jobs: {ran_on:?}");
        let helpers: Vec<_> = ran_on.iter().filter(|&&id| id != caller).collect();
        assert_eq!(helpers.len(), 1, "one helper ran a job: {ran_on:?}");
        *helpers[0]
    }

    #[test]
    fn parallel_map_preserves_order_and_balances() {
        let _pool = pool_to_myself();
        let jobs: Vec<_> = (0..37).map(|i| move || i * 2).collect();
        let out = parallel_map(jobs, 4);
        assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_runs_with_more_workers_than_jobs() {
        let _pool = pool_to_myself();
        let jobs: Vec<_> = (0..3).map(|i| move || i).collect();
        assert_eq!(parallel_map(jobs, 64), vec![0, 1, 2]);
    }

    #[test]
    fn parallel_map_empty_is_empty() {
        let jobs: Vec<fn() -> u32> = Vec::new();
        assert!(parallel_map(jobs, 4).is_empty());
    }

    #[test]
    fn parallel_map_with_one_worker_runs_every_job_on_the_caller() {
        let caller = std::thread::current().id();
        // Job 0 holds its worker until another job starts or 200 ms
        // pass, so any second thread would get to claim jobs meanwhile.
        let (started, other_started) = mpsc::channel::<()>();
        let other_started = Arc::new(Mutex::new(other_started));
        let jobs: Vec<_> = (0..16)
            .map(|i| {
                let (started, other_started) = (started.clone(), Arc::clone(&other_started));
                move || {
                    if i == 0 {
                        let wait = Duration::from_millis(200);
                        let _ = other_started.lock().unwrap().recv_timeout(wait);
                    } else {
                        let _ = started.send(());
                    }
                    std::thread::current().id()
                }
            })
            .collect();
        let ran_on = parallel_map_with(jobs, 1, move |_, &id| assert_eq!(id, caller));
        assert!(ran_on.iter().all(|&id| id == caller), "{ran_on:?}");
    }

    #[test]
    fn parallel_map_reports_every_index_exactly_once() {
        let _pool = pool_to_myself();
        let calls: Arc<Vec<AtomicUsize>> =
            Arc::new((0..200).map(|_| AtomicUsize::new(0)).collect());
        let jobs: Vec<_> = (0..200).map(|i| move || i).collect();
        let counts = Arc::clone(&calls);
        let out = parallel_map_with(jobs, 4, move |i, &value| {
            assert_eq!(i, value);
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out, (0..200).collect::<Vec<_>>());
        for (i, c) in calls.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "on_done calls for job {i}");
        }
    }

    #[test]
    fn parallel_map_re_raises_the_original_panic_payload() {
        let _pool = pool_to_myself();
        for workers in [1, 4] {
            let jobs: Vec<_> = (0..100)
                .map(|i| {
                    move || {
                        if i == 7 {
                            panic!("boom");
                        }
                        i
                    }
                })
                .collect();
            let payload =
                std::panic::catch_unwind(|| parallel_map(jobs, workers)).expect_err("job 7 panics");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"boom"),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn helpers_are_parked_and_woken_not_respawned() {
        let _pool = pool_to_myself();
        let helper = helper_of(&parallel_map(met_pair(), 2));
        let spawned = SPAWNED.load(Ordering::SeqCst);
        for _ in 0..3 {
            assert_eq!(helper_of(&parallel_map(met_pair(), 2)), helper);
        }
        assert_eq!(SPAWNED.load(Ordering::SeqCst), spawned, "no helper spawned");
    }

    #[test]
    fn nothing_of_a_call_outlives_the_call() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let _pool = pool_to_myself();
        for panic_at in [None, Some(3)] {
            let drops = Arc::new(AtomicUsize::new(0));
            let jobs: Vec<_> = (0..64)
                .map(|i| {
                    let held = Counted(Arc::clone(&drops));
                    move || {
                        let _held = held;
                        assert_ne!(Some(i), panic_at, "planted");
                        i
                    }
                })
                .collect();
            let held = Counted(Arc::clone(&drops));
            let on_done = move |_: usize, _: &usize| {
                let _ = &held;
            };
            let call =
                std::panic::catch_unwind(AssertUnwindSafe(|| parallel_map_with(jobs, 2, on_done)));
            assert_eq!(call.is_err(), panic_at.is_some());
            // 64 jobs, claimed or not, and `on_done`.
            assert_eq!(drops.load(Ordering::SeqCst), 65, "panic at {panic_at:?}");
        }
    }

    #[test]
    fn a_job_may_call_parallel_map() {
        let _pool = pool_to_myself();
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                move || {
                    let inner: Vec<_> = (0..16).map(|j| move || i * 100 + j).collect();
                    parallel_map(inner, 2).into_iter().sum::<usize>()
                }
            })
            .collect();
        let expected: Vec<usize> = (0..8).map(|i| 16 * i * 100 + 120).collect();
        assert_eq!(parallel_map(jobs, 2), expected);
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        let _pool = pool_to_myself();
        let callers: Vec<_> = (0..2u64)
            .map(|caller| {
                std::thread::spawn(move || {
                    for round in 0..20u64 {
                        let jobs: Vec<_> = (0..50u64).map(|i| move || (caller, round, i)).collect();
                        let expected: Vec<_> = (0..50).map(|i| (caller, round, i)).collect();
                        assert_eq!(parallel_map(jobs, 2), expected);
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller saw only its own results");
        }
    }

    #[test]
    fn a_helper_whose_job_panicked_serves_the_next_call() {
        let _pool = pool_to_myself();
        let caller = std::thread::current().id();
        let jobs: Vec<_> = met_pair()
            .into_iter()
            .map(|meet| {
                move || {
                    let ran_on = meet();
                    if ran_on != caller {
                        std::panic::panic_any(ran_on);
                    }
                    ran_on
                }
            })
            .collect();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| parallel_map(jobs, 2)))
            .expect_err("the helper's job panics");
        let helper = *payload
            .downcast_ref::<ThreadId>()
            .expect("original payload");
        let spawned = SPAWNED.load(Ordering::SeqCst);
        assert_eq!(helper_of(&parallel_map(met_pair(), 2)), helper);
        assert_eq!(SPAWNED.load(Ordering::SeqCst), spawned, "no helper spawned");
    }

    #[test]
    fn cache_key_distinguishes_every_axis() {
        let base = SweepSpec {
            id: SchemeId::FastPass,
            pattern: SyntheticPattern::Uniform,
            rates: vec![0.1],
            size: 4,
            fp_vcs: 2,
            warmup: 100,
            measure: 200,
            seed: 1,
        };
        let k = point_cache_key(&base, 0.1);
        let variants = [
            SweepSpec {
                id: SchemeId::Spin,
                ..base.clone()
            },
            SweepSpec {
                pattern: SyntheticPattern::Transpose,
                ..base.clone()
            },
            SweepSpec {
                size: 8,
                ..base.clone()
            },
            SweepSpec {
                fp_vcs: 4,
                ..base.clone()
            },
            SweepSpec {
                warmup: 101,
                ..base.clone()
            },
            SweepSpec {
                measure: 201,
                ..base.clone()
            },
            SweepSpec {
                seed: 2,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(point_cache_key(v, 0.1), k, "{v:?}");
        }
        assert_ne!(point_cache_key(&base, 0.2), k, "rate must be keyed");
        assert_eq!(point_cache_key(&base.clone(), 0.1), k, "key is stable");
    }

    #[test]
    fn schema_version_bump_forces_recomputation() {
        let spec = SweepSpec {
            id: SchemeId::Vct,
            pattern: SyntheticPattern::Uniform,
            rates: vec![0.02],
            size: 4,
            fp_vcs: 2,
            warmup: 100,
            measure: 200,
            seed: 1,
        };
        // Key level: every schema version yields a distinct key, and the
        // public key is the one derived from the current version.
        let current = point_cache_key(&spec, 0.02);
        assert_eq!(
            current,
            SpecKey::with_version(&spec, CACHE_SCHEMA_VERSION).point(0.02)
        );
        for old in 0..CACHE_SCHEMA_VERSION {
            assert_ne!(
                SpecKey::with_version(&spec, old).point(0.02),
                current,
                "v{old} key must not collide with the current key"
            );
        }

        // Behavior level: a stale entry stored under a previous version's
        // key must be ignored — the sweep recomputes and stores under the
        // current key.
        let dir = std::env::temp_dir().join(format!("fp_cache_schema_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stale_key = SpecKey::with_version(&spec, CACHE_SCHEMA_VERSION - 1).point(0.02);
        let poisoned = mk(0.02, 99_999.0);
        let stamp = Provenance::now(0, None, String::new(), 0);
        Store::new(&dir).store_with_provenance(stale_key, &poisoned, Some(&stamp));

        let opts = SweepOptions {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            progress: false,
        };
        let results = run_sweep_parallel(std::slice::from_ref(&spec), &opts);
        let point = &results[0].points[0];
        assert!(
            (point.avg_latency - 99_999.0).abs() > 1.0,
            "stale v{} cache entry was served instead of recomputing",
            CACHE_SCHEMA_VERSION - 1
        );
        assert!(
            Store::new(&dir).path_of(current).exists(),
            "recomputed point must be stored under the current-version key"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Keys written by earlier builds, as literals: a store primed by an
    /// older build must keep hitting. A key derivation that drifts would
    /// still agree with itself, so only literals catch it.
    #[test]
    fn cache_keys_are_pinned() {
        use SchemeId::{EscapeVc, FastPass, MinBd, Spin, Vct};
        use SyntheticPattern::{Transpose, Uniform};
        const SMOKE: (u64, u64) = (1_000, 3_000);
        // (scheme, pattern, size, fp_vcs, (warmup, measure), seed), then
        // (rate, key) pairs.
        #[rustfmt::skip]
        let pinned: [(_, _, _, _, _, _, &[(f64, u64)]); 7] = [
            // A VN scheme at 8x8, and a rate with a 16-digit expansion.
            (EscapeVc, Uniform, 8, 2, SMOKE, 1,
             &[(0.02, 0xaeee_0ab2_71fc_e018), (1.0 / 3.0, 0x54e8_19e2_b666_4c72)]),
            // FastPass with a non-default VC count.
            (FastPass, Transpose, 4, 4, SMOKE, 5,
             &[(0.05, 0x4555_2965_c986_efe5), (0.1, 0x29dd_a165_4a65_019f)]),
            // The smoke binary's grid (tests/golden/store holds its blobs).
            (FastPass, Uniform, 4, 2, SMOKE, 5,
             &[(0.02, 0x9808_6440_85ca_b863), (0.05, 0x9a9f_5df7_1923_53ce),
               (0.08, 0x458f_353b_6176_7cd5)]),
            (Vct, Uniform, 4, 2, SMOKE, 5,
             &[(0.02, 0x23ce_ca7d_ec61_7139), (0.05, 0x5333_550a_c17e_2780),
               (0.08, 0x2638_9448_0cb4_5737)]),
            (Vct, Uniform, 4, 2, (100, 200), u64::MAX, &[(1.0 / 3.0, 0x877c_615e_27e0_760e)]),
            (MinBd, Transpose, 8, 2, (500, 1_500), 7, &[(0.14, 0x1cb8_f716_bdf3_f49c)]),
            // Rates whose `{:?}` and `{}` renderings differ ("1.0" / "1").
            (Spin, Transpose, 4, 2, (100, 200), 3,
             &[(1.0, 0x42fc_840b_8d21_250d), (1e-7, 0x3692_bb78_c839_d596)]),
        ];
        for (id, pattern, size, fp_vcs, (warmup, measure), seed, keys) in pinned {
            let spec = SweepSpec {
                id,
                pattern,
                rates: keys.iter().map(|&(rate, _)| rate).collect(),
                size,
                fp_vcs,
                warmup,
                measure,
                seed,
            };
            let spec_key = SpecKey::new(&spec);
            for &(rate, key) in keys {
                assert_eq!(point_cache_key(&spec, rate), key, "{spec:?} @ {rate}");
                assert_eq!(spec_key.point(rate), key, "{spec:?} @ {rate}");
            }
        }
    }

    #[test]
    fn small_sweep_runs_every_scheme() {
        for id in crate::registry::ALL_SCHEMES {
            let r = sweep(&SweepSpec {
                id,
                pattern: SyntheticPattern::Uniform,
                rates: vec![0.02],
                size: 4,
                fp_vcs: 2,
                warmup: 200,
                measure: 500,
                seed: 1,
            });
            assert_eq!(r.points.len(), 1, "{}", id.name());
            assert!(r.points[0].delivered > 0, "{} delivered nothing", id.name());
        }
    }
}
