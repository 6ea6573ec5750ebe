//! The daemon transport: Unix-socket accept loop and the per-connection
//! protocol handler.
//!
//! Each connection gets its own thread speaking the newline-delimited
//! JSON protocol of [`crate::proto`]. Malformed lines are answered with
//! an `error` event and the connection stays usable; a line longer than
//! [`MAX_REQUEST_LINE`] is answered with one and closes it; a client that
//! disconnects mid-job just loses its stream — the engine keeps
//! computing and the results land in the store, so the retry is free,
//! and the job's flight span still closes.
//! A `shutdown` request flags the engine and then connects once to the
//! daemon's own socket, which wakes the blocking accept; the loop checks
//! the flag after every accept and stops the daemon.

use crate::core::{Daemon, Job, ServeConfig};
use crate::proto::{decode_request, encode, FetchedPoint, Request, Response, MAX_REQUEST_LINE};
use crate::store::format_key;
use crate::Store;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// Boots the engine, binds the socket and serves until a client sends
/// `shutdown`. Removes a stale socket file left by a previous daemon
/// before binding (the store keeps all durable state, so rebinding is
/// always safe).
///
/// # Errors
///
/// Propagates socket bind failures (bad path, permissions).
pub fn serve(config: &ServeConfig) -> std::io::Result<()> {
    if let Some(parent) = config.socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)?;
    let daemon = Daemon::start(config).map_err(std::io::Error::other)?;
    eprintln!(
        "[nocserve] listening on {} (store {}, {} workers, batch {})",
        config.socket.display(),
        config.store_dir.display(),
        config.workers.max(1),
        config.batch.max(1)
    );

    loop {
        let accepted = listener.accept();
        // A `shutdown` request connects once after flagging: that
        // connection only wakes this accept.
        if daemon.is_shutdown() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                daemon.note_connection();
                let (handler, socket) = (daemon.clone(), config.socket.clone());
                std::thread::spawn(move || handle_connection(&handler, stream, &socket));
            }
            Err(e) => eprintln!("[nocserve] accept failed: {e}"),
        }
    }
    // Final drain: push remaining telemetry and join the flight writer
    // so the JSONL log is complete before the process exits.
    daemon.flush_observability();
    let _ = std::fs::remove_file(&config.socket);
    eprintln!("[nocserve] shut down");
    Ok(())
}

/// Writes one response line; `false` means the client is gone.
fn send(stream: &mut UnixStream, resp: &Response) -> bool {
    let mut line = encode(resp);
    line.push('\n');
    stream.write_all(line.as_bytes()).is_ok()
}

/// One read of a request line.
enum Line {
    /// A complete line, newline stripped.
    Text(String),
    /// More than [`MAX_REQUEST_LINE`] bytes without a newline.
    TooLong,
    /// End of stream, a dead peer, or bytes that are not UTF-8.
    End,
}

/// Reads one request line, never buffering more than
/// [`MAX_REQUEST_LINE`] bytes plus the newline. A last line without a
/// newline still counts as a line.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> Line {
    buf.clear();
    let cap = MAX_REQUEST_LINE as u64 + 1;
    match reader.by_ref().take(cap).read_until(b'\n', buf) {
        Ok(0) | Err(_) => return Line::End,
        Ok(_) if buf.last() == Some(&b'\n') => {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        Ok(n) if n as u64 == cap => return Line::TooLong,
        Ok(_) => {}
    }
    std::str::from_utf8(buf).map_or(Line::End, |text| Line::Text(text.to_string()))
}

/// Serves one connection until EOF, a dead peer, an over-long line, or
/// shutdown. `socket` is the daemon's own, which a `shutdown` request
/// connects to so the accept loop wakes.
fn handle_connection(daemon: &Daemon, stream: UnixStream, socket: &Path) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let line = match read_line(&mut reader, &mut buf) {
            Line::Text(line) => line,
            Line::TooLong => {
                daemon.note_request(false);
                let message = format!("request line longer than {MAX_REQUEST_LINE} bytes");
                let _ = send(&mut writer, &Response::Error { message });
                return;
            }
            Line::End => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match decode_request(&line) {
            Ok(request) => {
                daemon.note_request(true);
                request
            }
            Err(message) => {
                daemon.note_request(false);
                if !send(&mut writer, &Response::Error { message }) {
                    return;
                }
                continue;
            }
        };
        let keep_going = match request {
            Request::Ping => send(
                &mut writer,
                &Response::Pong {
                    proto: crate::PROTO_VERSION,
                },
            ),
            Request::Metrics => send(
                &mut writer,
                &Response::Metrics {
                    metrics: Box::new(daemon.metrics_report()),
                },
            ),
            Request::Watch => handle_watch(daemon, &mut writer),
            Request::Submit { specs } => handle_submit(daemon, &mut writer, specs),
            Request::Fetch { keys } => handle_fetch(daemon, &mut writer, &keys),
            Request::Evict { keys } => handle_evict(daemon, &mut writer, &keys),
            Request::Gc => send(
                &mut writer,
                &Response::Gc {
                    report: daemon.gc(),
                },
            ),
            Request::Shutdown => {
                let _ = send(&mut writer, &Response::Bye);
                daemon.request_shutdown();
                let _ = UnixStream::connect(socket);
                false
            }
        };
        if !keep_going || daemon.is_shutdown() {
            return;
        }
    }
}

/// Runs one submit: validate specs, register the job, stream progress,
/// send the terminal result. Returns `false` when the peer is gone.
fn handle_submit(daemon: &Daemon, writer: &mut UnixStream, specs: Vec<crate::WireSpec>) -> bool {
    let mut decoded = Vec::with_capacity(specs.len());
    for wire in &specs {
        match wire.to_spec() {
            Ok(spec) => decoded.push(spec),
            Err(message) => {
                return send(
                    writer,
                    &Response::Error {
                        message: format!("bad spec: {message}"),
                    },
                );
            }
        }
    }
    if decoded.is_empty() {
        return send(
            writer,
            &Response::Error {
                message: "submit carries no specs".to_string(),
            },
        );
    }
    let job = daemon.submit(decoded);
    let terminal = stream_job(daemon, writer, &job);
    // Every exit closes the job's flight span, once: a result, an error,
    // or a peer that hung up mid-job (the engine keeps computing; the
    // points land in the store for the retry). Published *before* the
    // terminal write so that once the client has the answer, the record
    // is already on the bus: a shutdown racing in right after cannot
    // lose it.
    daemon.note_responded(job.id);
    terminal.is_some_and(|resp| send(writer, &resp))
}

/// Writes `accepted` and the progress stream of `job`, then returns its
/// terminal response — the assembled result or an error — or `None`
/// once the peer is gone.
fn stream_job(daemon: &Daemon, writer: &mut UnixStream, job: &Job) -> Option<Response> {
    let accepted = Response::Accepted {
        job: job.id,
        points: job.total,
        computed: job.computed,
        cached: job.cached,
        deduped: job.deduped,
    };
    if !send(writer, &accepted) {
        return None;
    }
    let mut done = 0;
    loop {
        let snap = daemon.wait_progress(job, done);
        if snap.done > done
            && !send(
                writer,
                &Response::Progress {
                    job: job.id,
                    done: snap.done,
                    total: snap.total,
                },
            )
        {
            return None;
        }
        done = snap.done;
        if snap.complete {
            return Some(match daemon.collect(job) {
                Ok(sweeps) => Response::Result {
                    job: job.id,
                    sweeps,
                },
                Err(message) => Response::Error { message },
            });
        }
        if daemon.is_shutdown() {
            return Some(Response::Error {
                message: "daemon shutting down".to_string(),
            });
        }
    }
}

/// Turns the connection into a live flight-record stream: answers
/// `watching`, then forwards every published record until the peer
/// hangs up or the daemon shuts down. Always returns `false` — a
/// watching connection is monopolized and never goes back to
/// request/response.
fn handle_watch(daemon: &Daemon, writer: &mut UnixStream) -> bool {
    if !send(writer, &Response::Watching) {
        return false;
    }
    let rx = daemon.subscribe_flight();
    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(record) => {
                if !send(writer, &Response::Flight { record }) {
                    return false; // peer gone; dropping rx unsubscribes
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if daemon.is_shutdown() {
                    return false;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return false,
        }
    }
}

/// Answers a fetch: parse each key, look it up, echo in request order.
fn handle_fetch(daemon: &Daemon, writer: &mut UnixStream, keys: &[String]) -> bool {
    let mut points = Vec::with_capacity(keys.len());
    for raw in keys {
        let Some(key) = Store::parse_key(raw) else {
            return send(
                writer,
                &Response::Error {
                    message: format!("bad key `{raw}` (want 16 hex digits)"),
                },
            );
        };
        let entry = daemon.fetch_entry(key);
        let (point, provenance) = match entry {
            Some((point, provenance)) => (Some(point), provenance),
            None => (None, None),
        };
        points.push(FetchedPoint {
            key: format_key(key),
            found: point.is_some(),
            point,
            provenance,
        });
    }
    send(writer, &Response::Points { points })
}

/// Answers an evict: parse each key, drop it, count removals.
fn handle_evict(daemon: &Daemon, writer: &mut UnixStream, keys: &[String]) -> bool {
    let mut removed = 0;
    for raw in keys {
        let Some(key) = Store::parse_key(raw) else {
            return send(
                writer,
                &Response::Error {
                    message: format!("bad key `{raw}` (want 16 hex digits)"),
                },
            );
        };
        if daemon.evict(key) {
            removed += 1;
        }
    }
    send(writer, &Response::Evicted { removed })
}
