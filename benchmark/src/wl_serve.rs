//! `serve_mixed`: `noc_serve::serve` on a Unix socket in a thread, two
//! closed-loop clients (each sends its next job only after the previous
//! one's result), 24-point 4x4 jobs. One op is one submit -> result job.
//!
//! All four resolution paths occur: seeds primed into the store by a
//! previous daemon lifetime (store hits), fresh seeds (enqueued and
//! computed exactly once), the other client's request for the same seed
//! (memory hit, or dedup while in flight) and immediate re-submits
//! (memory hits). The walk is cut into blocks of equal work; both
//! clients finish a block before either starts the next.

use crate::common::{fold_point, percentile, Block, Ctx, Model, Timed, JOBS};
use crate::engine;
use crate::inputs::{self, Scale, ServePlan};
use crate::span::Spans;
use crate::wl_sweep::{count, cycles};
use bench::{Client, LatencyPoint, SweepResult, SweepSpec};
use noc_serve::{Daemon, ServeConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A set-up daemon with its two connected clients.
pub struct Serve {
    scale: Scale,
    plan: ServePlan,
    dir: PathBuf,
    /// The daemon's socket.
    pub sock: PathBuf,
    /// The daemon's store directory.
    pub store_dir: PathBuf,
    server: Option<JoinHandle<std::io::Result<()>>>,
    clients: Vec<Client>,
    /// Digest of each primed job's results, by simulation seed.
    primed: HashMap<u64, u64>,
    /// Every primed point, in seed order (the model's reference).
    reference: Vec<LatencyPoint>,
    /// Failures found while setting up.
    pub setup_failures: Vec<String>,
}

/// Receipt totals of a session: which path resolved how many points.
#[derive(Debug, Clone, Copy, Default)]
pub struct Resolved {
    /// Points newly enqueued (computed exactly once).
    pub enqueued: u64,
    /// Points served from memory or the store.
    pub cached: u64,
    /// Points that joined another job's in-flight computation.
    pub deduped: u64,
}

/// What one client did in one block.
#[derive(Default)]
struct Walk {
    points: u64,
    cycles: u64,
    resolved: Resolved,
    /// Latency of jobs that computed at least one point, ms.
    computed_ms: Vec<f64>,
    /// Latency of jobs answered without computing anything, ms.
    hit_ms: Vec<f64>,
    failures: Vec<String>,
}

/// What a client session measured.
pub struct Session {
    /// The timed-section record; an op is a job that computed something.
    pub timed: Timed,
    /// Jobs submitted.
    pub jobs: u64,
    /// Receipt totals.
    pub resolved: Resolved,
    /// Latency of every job, ms (computed or not).
    pub all_jobs_ms: Vec<f64>,
    /// Latency of jobs answered without computing anything, ms.
    pub hit_jobs_ms: Vec<f64>,
    /// One recorder per client, when spans were asked for.
    pub spans: Vec<Spans>,
}

/// The daemon configuration every lifetime here uses.
pub fn config(
    sock: &Path,
    store_dir: &Path,
    flight: Option<PathBuf>,
    statsd: Option<String>,
) -> ServeConfig {
    ServeConfig {
        socket: sock.to_path_buf(),
        store_dir: store_dir.to_path_buf(),
        workers: JOBS,
        batch: 4,
        statsd,
        flight,
        tick_ms: 500,
    }
}

fn digest_of(sweeps: &[SweepResult]) -> u64 {
    sweeps
        .iter()
        .flat_map(|s| s.points.iter())
        .fold(engine::FNV_BASIS, fold_point)
}

/// Submits `specs` to an in-process daemon and waits for the result.
///
/// # Errors
///
/// The daemon's message when a point failed.
pub fn submit_collect(daemon: &Daemon, specs: Vec<SweepSpec>) -> Result<Vec<SweepResult>, String> {
    let job = daemon.submit(specs);
    let mut done = 0;
    loop {
        let progress = daemon.wait_progress(&job, done);
        if progress.complete {
            return daemon.collect(&job);
        }
        if daemon.is_shutdown() {
            return Err("daemon shut down mid-job".to_string());
        }
        done = progress.done;
    }
}

fn connect(sock: &Path) -> Result<Client, String> {
    let begun = Instant::now();
    loop {
        match Client::connect(sock) {
            Ok(mut c) => {
                c.ping()?;
                return Ok(c);
            }
            Err(e) if begun.elapsed() > Duration::from_secs(10) => {
                return Err(format!(
                    "cannot reach the daemon at {}: {e}",
                    sock.display()
                ));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

impl Serve {
    /// Set-up: a first daemon lifetime (in process) primes the store and
    /// is shut down; then the daemon under test boots on a socket, both
    /// clients connect and one warm job runs. `observe` turns the flight
    /// recorder and statsd sink on.
    ///
    /// # Errors
    ///
    /// When the daemon cannot be started or reached.
    pub fn setup(ctx: &Ctx, tag: &str, observe: bool) -> Result<Serve, String> {
        let plan = ServePlan::new(ctx.scale, ctx.seed);
        let dir = ctx.work.join(format!("serve-{tag}"));
        let store_dir = dir.join("store");
        let sock = dir.join("d.sock");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut setup_failures = Vec::new();

        let first = Daemon::start(&config(&sock, &store_dir, None, None))?;
        let mut primed = HashMap::new();
        let mut reference = Vec::new();
        for seed in plan.primed_seeds() {
            match submit_collect(&first, inputs::serve_job(ctx.scale, seed)) {
                Ok(sweeps) => {
                    primed.insert(seed, digest_of(&sweeps));
                    reference.extend(sweeps.into_iter().flat_map(|s| s.points));
                }
                Err(e) => setup_failures.push(format!("priming seed {seed}: {e}")),
            }
        }
        first.request_shutdown();

        let (flight, statsd) = if observe {
            (
                Some(dir.join("flight.jsonl")),
                Some(dir.join("statsd.txt").display().to_string()),
            )
        } else {
            (None, None)
        };
        let cfg = config(&sock, &store_dir, flight, statsd);
        let server = std::thread::spawn(move || noc_serve::serve(&cfg));
        let mut serve = Serve {
            scale: ctx.scale,
            plan,
            dir,
            sock,
            store_dir,
            server: Some(server),
            clients: Vec::new(),
            primed,
            reference,
            setup_failures,
        };
        for _ in 0..2 {
            let client = connect(&serve.sock)?;
            serve.clients.push(client);
        }
        // Warm job on a seed no block uses: first computation through
        // the socket, untimed.
        let warm = inputs::serve_job(ctx.scale, serve.plan.primed_seeds()[0] + 40_000);
        if let Err(e) = serve.clients[0].submit(&warm, |_, _| {}) {
            serve.setup_failures.push(format!("warm job: {e}"));
        }
        Ok(serve)
    }

    /// One client's closed loop over one block.
    fn walk(
        &self,
        client: &mut Client,
        which: u64,
        block: u64,
        seen: &Mutex<HashMap<u64, u64>>,
        mut spans: Option<&mut Spans>,
    ) -> Walk {
        let mut w = Walk::default();
        for (i, (seed, resubmit)) in self.plan.block(which, block).into_iter().enumerate() {
            for again in 0..=u64::from(resubmit) {
                let specs = inputs::serve_job(self.scale, seed);
                // One id per job, shared by nothing else.
                let op = ((block * 2 + which) * 64 + i as u64) * 2 + again;
                if let Some(s) = spans.as_deref_mut() {
                    s.enter("bench.serve_client.submit", op);
                }
                let begun = Instant::now();
                let reply = client.submit(&specs, |_, _| {});
                let ms = begun.elapsed().as_secs_f64() * 1e3;
                if let Some(s) = spans.as_deref_mut() {
                    s.exit();
                }
                w.points += count(&specs);
                let failure = match reply {
                    Ok((receipt, sweeps)) => {
                        w.cycles += cycles(&specs);
                        if receipt.computed > 0 {
                            w.computed_ms.push(ms);
                        } else {
                            w.hit_ms.push(ms);
                        }
                        w.resolved.enqueued += receipt.computed;
                        w.resolved.cached += receipt.cached;
                        w.resolved.deduped += receipt.deduped;
                        self.check_job(seed, &specs, &sweeps, seen)
                    }
                    Err(e) => Some(format!("seed {seed}: {e}")),
                };
                if let Some(e) = failure {
                    // A failed job fails every point it asked for.
                    w.failures
                        .extend(std::iter::repeat_n(e, count(&specs) as usize));
                }
            }
        }
        w
    }

    /// A job's results must be complete, and equal to every earlier
    /// answer for the same seed (the other client's, the re-submit's, or
    /// the previous daemon lifetime's for primed seeds).
    fn check_job(
        &self,
        seed: u64,
        specs: &[SweepSpec],
        sweeps: &[SweepResult],
        seen: &Mutex<HashMap<u64, u64>>,
    ) -> Option<String> {
        let got: u64 = sweeps.iter().map(|s| s.points.len() as u64).sum();
        if got != count(specs) {
            return Some(format!("seed {seed}: {got} points returned"));
        }
        if sweeps
            .iter()
            .flat_map(|s| &s.points)
            .any(|p| p.delivered == 0)
        {
            return Some(format!("seed {seed}: a point delivered nothing"));
        }
        let digest = digest_of(sweeps);
        if self.primed.get(&seed).is_some_and(|&d| d != digest) {
            return Some(format!("seed {seed}: differs from the primed store"));
        }
        let mut seen = seen.lock().expect("no client panics while holding the map");
        let first = *seen.entry(seed).or_insert(digest);
        (first != digest).then(|| format!("seed {seed}: two answers differ"))
    }

    /// The timed section: both clients walk block after block until
    /// `seconds` have passed. A block's wall time runs from its first
    /// submit to its last result.
    pub fn session(&mut self, seconds: f64, with_spans: Option<Instant>) -> Session {
        let mut clients = std::mem::take(&mut self.clients);
        let seen = Mutex::new(HashMap::new());
        let mut spans: Vec<Spans> = with_spans
            .map(|epoch| {
                (0..clients.len())
                    .map(|i| Spans::new(epoch, 2 + i as u64))
                    .collect()
            })
            .unwrap_or_default();
        let mut session = Session {
            timed: Timed::default(),
            jobs: 0,
            resolved: Resolved::default(),
            all_jobs_ms: Vec::new(),
            hit_jobs_ms: Vec::new(),
            spans: Vec::new(),
        };
        let mut blocks = Vec::new();
        let begun = Instant::now();
        for block in 0.. {
            let this = &*self;
            let seen = &seen;
            let block_begun = Instant::now();
            let walks: Vec<Walk> = std::thread::scope(|scope| {
                let mut recorders = spans.iter_mut();
                let handles: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(i, client)| {
                        let recorder = recorders.next();
                        scope.spawn(move || this.walk(client, i as u64, block, seen, recorder))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client threads report failures, not panic"))
                    .collect()
            });
            let mut b = Block {
                host_ns: block_begun.elapsed().as_nanos() as u64,
                ..Block::default()
            };
            for w in walks {
                b.points += w.points;
                b.cycles += w.cycles;
                session.jobs += (w.computed_ms.len() + w.hit_ms.len()) as u64;
                session
                    .all_jobs_ms
                    .extend(w.computed_ms.iter().chain(&w.hit_ms));
                session.hit_jobs_ms.extend(&w.hit_ms);
                b.ops_ms.extend(w.computed_ms);
                b.failures.extend(w.failures);
                session.resolved.enqueued += w.resolved.enqueued;
                session.resolved.cached += w.resolved.cached;
                session.resolved.deduped += w.resolved.deduped;
            }
            blocks.push(b);
            if begun.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        self.clients = clients;
        session.timed = Timed::of(blocks, 0.5);
        session.spans = spans;
        session
    }

    /// Cross-path check, untimed: the first primed job as the daemon
    /// stored it must equal serial `simulate_point`, bit for bit.
    pub fn verify(&self) -> Vec<String> {
        let seed = self.plan.primed_seeds()[0];
        let specs = inputs::serve_job(self.scale, seed);
        let serial = engine::guarded(|| {
            specs
                .iter()
                .flat_map(|s| s.rates.iter().map(|&r| bench::simulate_point(s, r)))
                .fold(engine::FNV_BASIS, |h, p| fold_point(h, &p))
        });
        match serial {
            Ok(d) if self.primed.get(&seed) == Some(&d) => Vec::new(),
            Ok(_) => vec![format!(
                "seed {seed}: daemon differs from serial simulate_point"
            )],
            Err(e) => vec![format!("simulate_point: {e}")],
        }
    }

    /// The simulated numbers of the primed jobs.
    pub fn model(&self) -> Model {
        Model::of(self.reference.iter())
    }

    /// Combined digest of the primed jobs.
    pub fn digest(&self) -> u64 {
        self.reference.iter().fold(engine::FNV_BASIS, fold_point)
    }

    /// The first client (for kernels that need a live connection).
    pub fn client(&mut self) -> &mut Client {
        &mut self.clients[0]
    }

    /// One job's specs for a primed seed (an all-hit job once asked for).
    pub fn hit_job(&self) -> Vec<SweepSpec> {
        inputs::serve_job(self.scale, self.plan.primed_seeds()[0])
    }
}

/// The p95 of job latencies, or 0 with fewer than 200 samples: a
/// percentile is only reported with at least ten samples beyond it.
pub fn job_p95_ms(all_ms: &mut [f64]) -> f64 {
    if all_ms.len() < 200 {
        0.0
    } else {
        percentile(all_ms, 95.0)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let mut stopped = self
            .clients
            .first_mut()
            .is_some_and(|c| c.shutdown().is_ok());
        self.clients.clear();
        if !stopped {
            // Set-up failed before a client connected: ask on a fresh one.
            stopped = Client::connect(&self.sock).is_ok_and(|mut c| c.shutdown().is_ok());
        }
        if let Some(server) = self.server.take() {
            // The accept loop polls the shutdown flag every 25 ms. A
            // daemon that cannot be reached is left to process exit
            // rather than joined forever.
            if stopped || server.is_finished() {
                let _ = server.join();
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
