//! Shared harness for the daemon integration tests: boots a real
//! `serve()` loop on a scratch socket/store, hands out protocol
//! clients, and tears the daemon down (socket removed, thread joined)
//! when dropped.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of the harness.
#![allow(dead_code)]

use noc_serve::client::Client;
use noc_serve::{serve, MetricsReport, SchemeId, ServeConfig, SweepSpec};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use traffic::SyntheticPattern;

/// Two rates and a 100 + 200 cycle window on 4x4: small enough for
/// debug-build workers to finish in milliseconds.
pub fn tiny_spec(id: SchemeId, seed: u64) -> SweepSpec {
    SweepSpec {
        rates: vec![0.02, 0.05],
        warmup: 100,
        measure: 200,
        ..small_spec(id, SyntheticPattern::Uniform, seed)
    }
}

/// The suites' stock sweep: one scheme/pattern on a 4x4 mesh, three
/// low-to-mid rates, warmup 500 + measure 1 500.
pub fn small_spec(id: SchemeId, pattern: SyntheticPattern, seed: u64) -> SweepSpec {
    SweepSpec {
        id,
        pattern,
        rates: vec![0.02, 0.05, 0.08],
        size: 4,
        fp_vcs: 2,
        warmup: 500,
        measure: 1_500,
        seed,
    }
}

/// The lifetime total of counter `name` in a `metrics` report.
pub fn counter(report: &MetricsReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
        .unwrap_or_else(|| panic!("no counter `{name}` in {report:?}"))
}

/// One live daemon on scratch paths.
pub struct TestDaemon {
    /// Socket the daemon listens on.
    pub sock: PathBuf,
    /// Store directory it owns.
    pub store_dir: PathBuf,
    scratch: PathBuf,
    handle: Option<JoinHandle<()>>,
}

/// A scratch directory (see [`scratch_dir`]) removed again on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates the directory for `tag`.
    pub fn new(tag: &str) -> Scratch {
        Scratch(scratch_dir(tag))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A scratch directory unique to `tag` within this test process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nocserve_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

impl TestDaemon {
    /// Boots a daemon whose socket lives under a fresh scratch dir and
    /// whose store is `store_dir` (so warm-restart tests can reuse it).
    pub fn boot(tag: &str, store_dir: PathBuf) -> TestDaemon {
        TestDaemon::boot_observed(tag, store_dir, false)
    }

    /// Like [`TestDaemon::boot`], but with the full observability
    /// surface on when `observed`: a flight-recorder log at
    /// [`TestDaemon::flight_path`], a statsd line file at
    /// [`TestDaemon::statsd_path`], and a fast (50ms) sampler tick so
    /// short tests still see gauge samples.
    pub fn boot_observed(tag: &str, store_dir: PathBuf, observed: bool) -> TestDaemon {
        let scratch = scratch_dir(tag);
        let sock = scratch.join("d.sock");
        let config = ServeConfig {
            socket: sock.clone(),
            store_dir: store_dir.clone(),
            workers: 2,
            batch: 4,
            statsd: observed.then(|| scratch.join("statsd.txt").display().to_string()),
            flight: observed.then(|| scratch.join("run.flight")),
            tick_ms: if observed { 50 } else { 500 },
        };
        let handle = std::thread::spawn(move || {
            serve(&config).expect("daemon serves");
        });
        let daemon = TestDaemon {
            sock,
            store_dir,
            scratch,
            handle: Some(handle),
        };
        // Readiness barrier: the bind happens inside the thread.
        daemon.client().ping().expect("daemon answers ping");
        daemon
    }

    /// Boots a daemon with its store inside its own scratch dir.
    pub fn boot_fresh(tag: &str) -> TestDaemon {
        let store = scratch_dir(tag).join("store");
        TestDaemon::boot(tag, store)
    }

    /// Boots a fresh-store daemon with observability on (see
    /// [`TestDaemon::boot_observed`]).
    pub fn boot_fresh_observed(tag: &str) -> TestDaemon {
        let store = scratch_dir(tag).join("store");
        TestDaemon::boot_observed(tag, store, true)
    }

    /// Where the observed daemon writes its flight-recorder JSONL.
    pub fn flight_path(&self) -> PathBuf {
        self.scratch.join("run.flight")
    }

    /// Where the observed daemon's statsd drain appends lines.
    pub fn statsd_path(&self) -> PathBuf {
        self.scratch.join("statsd.txt")
    }

    /// Connects a client, retrying while the daemon finishes binding.
    pub fn client(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(&self.sock) {
                Ok(client) => return client,
                Err(e) if Instant::now() >= deadline => {
                    panic!("daemon at {} never came up: {e}", self.sock.display())
                }
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    /// Stops the daemon and joins its thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Stops the daemon but keeps the scratch files (flight log,
    /// statsd file) readable — the harness still cleans up on drop.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Ok(mut client) = Client::connect(&self.sock) {
                let _ = client.shutdown();
            }
            handle.join().expect("daemon thread exits cleanly");
        }
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        self.stop();
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}
