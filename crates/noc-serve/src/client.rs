//! Client side of the `nocserve` protocol.
//!
//! [`Client`] wraps one Unix-socket connection and speaks the
//! newline-delimited JSON protocol from [`crate::proto`] — the other end
//! of the wire [`crate::server`] answers. `nocctl` and the figure
//! harness's `--serve` dispatch (the `bench` crate's `serve_client`) are
//! both built on it.

use crate::proto::{
    decode_response, encode, FetchedPoint, FlightRecord, MetricsReport, Request, Response, WireSpec,
};
use crate::runner::{SweepResult, SweepSpec};
use crate::store::GcReport;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long [`Client::shutdown`] waits for the daemon to remove its
/// socket after saying `bye`.
const SHUTDOWN_WAIT: Duration = Duration::from_secs(10);

/// Environment variable naming the daemon socket; doubles as the
/// env-only way to put a binary in serve mode (same effect as
/// `--serve=<path>`).
pub const SOCK_ENV: &str = "NOC_SERVE";

/// Default socket path when serve mode is requested without a path.
pub fn default_socket() -> PathBuf {
    PathBuf::from("results/nocserve.sock")
}

/// What the daemon said when it accepted a submit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// Job id on the daemon.
    pub job: u64,
    /// Total points in the job.
    pub points: u64,
    /// Points newly enqueued for simulation.
    pub computed: u64,
    /// Points served from the store or memory.
    pub cached: u64,
    /// Points piggybacked on another job's in-flight work.
    pub deduped: u64,
}

/// One connection to a `nocserve` daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    sock: PathBuf,
}

impl Client {
    /// Connects to the daemon at `sock`.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure (daemon not running, bad path).
    pub fn connect(sock: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(sock)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            sock: sock.to_path_buf(),
        })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        let mut line = encode(req);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn recv(&mut self) -> Result<Response, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("recv failed: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        decode_response(&line)
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, String> {
        self.send(req)?;
        self.recv()
    }

    /// Liveness probe; returns the daemon's protocol version.
    ///
    /// # Errors
    ///
    /// I/O failures and unexpected responses, as readable strings.
    pub fn ping(&mut self) -> Result<u32, String> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong { proto } => Ok(proto),
            other => Err(format!("unexpected reply to ping: {other:?}")),
        }
    }

    /// Looks up store entries by hex key.
    ///
    /// # Errors
    ///
    /// I/O failures and unexpected responses, as readable strings.
    pub fn fetch(&mut self, keys: Vec<String>) -> Result<Vec<FetchedPoint>, String> {
        match self.roundtrip(&Request::Fetch { keys })? {
            Response::Points { points } => Ok(points),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected reply to fetch: {other:?}")),
        }
    }

    /// Evicts store entries by hex key; returns how many were removed.
    ///
    /// # Errors
    ///
    /// I/O failures and unexpected responses, as readable strings.
    pub fn evict(&mut self, keys: Vec<String>) -> Result<u64, String> {
        match self.roundtrip(&Request::Evict { keys })? {
            Response::Evicted { removed } => Ok(removed),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected reply to evict: {other:?}")),
        }
    }

    /// Runs a store garbage-collection pass on the daemon.
    ///
    /// # Errors
    ///
    /// I/O failures and unexpected responses, as readable strings.
    pub fn gc(&mut self) -> Result<GcReport, String> {
        match self.roundtrip(&Request::Gc)? {
            Response::Gc { report } => Ok(report),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected reply to gc: {other:?}")),
        }
    }

    /// Fetches the daemon's metrics-registry dump (counters,
    /// histogram percentiles, worker utilization, flight health).
    ///
    /// # Errors
    ///
    /// I/O failures and unexpected responses, as readable strings.
    pub fn metrics(&mut self) -> Result<MetricsReport, String> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics { metrics } => Ok(*metrics),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected reply to metrics: {other:?}")),
        }
    }

    /// Subscribes to the live flight-event stream and invokes
    /// `on_event` for each record; the subscription ends when
    /// `on_event` returns `false`, the daemon shuts down, or the
    /// connection drops. The connection is consumed: the daemon serves
    /// nothing else on a watching connection.
    ///
    /// # Errors
    ///
    /// Subscription failures and protocol violations, as readable
    /// strings. A daemon closing the stream (shutdown) is a clean end,
    /// not an error.
    pub fn watch(mut self, mut on_event: impl FnMut(FlightRecord) -> bool) -> Result<(), String> {
        match self.roundtrip(&Request::Watch)? {
            Response::Watching => {}
            Response::Error { message } => return Err(message),
            other => return Err(format!("unexpected reply to watch: {other:?}")),
        }
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("recv failed: {e}"))?;
            if n == 0 {
                return Ok(()); // daemon shut down: clean end of stream
            }
            match decode_response(&line)? {
                Response::Flight { record } => {
                    if !on_event(record) {
                        return Ok(());
                    }
                }
                Response::Error { message } => return Err(message),
                other => return Err(format!("unexpected event while watching: {other:?}")),
            }
        }
    }

    /// Asks the daemon to stop, and returns once it has: the daemon
    /// removes its socket only after flushing its flight log and
    /// statsd drain, so a caller may read those files straight away.
    ///
    /// # Errors
    ///
    /// I/O failures and unexpected responses, as readable strings, and
    /// a socket still present [`SHUTDOWN_WAIT`] after `bye`.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Bye => {}
            Response::Error { message } => return Err(message),
            other => return Err(format!("unexpected reply to shutdown: {other:?}")),
        }
        let deadline = Instant::now() + SHUTDOWN_WAIT;
        while self.sock.exists() {
            if Instant::now() >= deadline {
                return Err(format!(
                    "daemon said bye but {} is still there after {SHUTDOWN_WAIT:?}",
                    self.sock.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }

    /// Submits a sweep job and blocks until its terminal `result`,
    /// invoking `progress(done, total)` on every progress event.
    ///
    /// # Errors
    ///
    /// I/O failures, daemon-side rejections (bad spec, worker failure)
    /// and protocol violations, as readable strings.
    pub fn submit(
        &mut self,
        specs: &[SweepSpec],
        mut progress: impl FnMut(u64, u64),
    ) -> Result<(SubmitReceipt, Vec<SweepResult>), String> {
        let wire: Vec<WireSpec> = specs.iter().map(WireSpec::from_spec).collect();
        self.send(&Request::Submit { specs: wire })?;
        let receipt = match self.recv()? {
            Response::Accepted {
                job,
                points,
                computed,
                cached,
                deduped,
            } => SubmitReceipt {
                job,
                points,
                computed,
                cached,
                deduped,
            },
            Response::Error { message } => return Err(message),
            other => return Err(format!("unexpected reply to submit: {other:?}")),
        };
        loop {
            match self.recv()? {
                Response::Progress { done, total, .. } => progress(done, total),
                Response::Result { sweeps, .. } => return Ok((receipt, sweeps)),
                Response::Error { message } => return Err(message),
                other => return Err(format!("unexpected mid-job event: {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_to_missing_socket_is_an_error() {
        let err = Client::connect(Path::new("/nonexistent/nocserve.sock"));
        assert!(err.is_err());
    }
}
