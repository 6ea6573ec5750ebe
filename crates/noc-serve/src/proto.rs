//! The `nocserve` wire protocol: newline-delimited JSON over a local
//! socket.
//!
//! Every message is one JSON object on one line. Requests carry a
//! `"cmd"` tag, responses an `"event"` tag; unknown tags and malformed
//! lines are answered with an `"error"` event and the connection stays
//! usable. A `submit` request is the only one answered by *multiple*
//! lines: `accepted`, then a `progress` stream, then one terminal
//! `result` (or `error`).
//!
//! ```text
//! → {"cmd":"submit","specs":[{"scheme":"FastPass","pattern":"uniform", …}]}
//! ← {"event":"accepted","job":1,"points":6,"computed":4,"cached":1,"deduped":1}
//! ← {"event":"progress","job":1,"done":5,"total":6}
//! ← {"event":"result","job":1,"sweeps":[…]}
//! ```
//!
//! Generations are numbered by [`PROTO_VERSION`]; v3 folded `status`
//! into `metrics`, the daemon's one report.
//!
//! The types here are shared verbatim by the daemon (`noc-serve`), the
//! `nocctl` CLI and the figure binaries' `--serve` mode, so the two
//! sides cannot drift. Sweep specs travel as [`WireSpec`] — scheme and
//! pattern by display name — and results as the *same*
//! [`SweepResult`]/[`LatencyPoint`] structs the batch executor emits,
//! which is what makes the daemon's output bitwise-comparable to batch
//! JSON artifacts.

use crate::runner::{LatencyPoint, SweepResult, SweepSpec};
use crate::store::{GcReport, Provenance};
use crate::SchemeId;
use serde::{Deserialize, Serialize};
use traffic::SyntheticPattern;

/// Wire protocol version, echoed in `pong` and `metrics` so clients can
/// detect a daemon speaking a different generation.
///
/// v2 added the observability surface: the `metrics` and `watch`
/// commands, the `flight` event stream, and the optional provenance
/// stamp on `fetch` answers. v3 folded `status` into `metrics`: the
/// daemon has one report.
pub const PROTO_VERSION: u32 = 3;

/// The longest request line the daemon reads, in bytes, newline not
/// counted. A longer line draws one `error` event and the daemon closes
/// the connection, so a client that never sends a newline costs the
/// daemon at most this much memory. A submit of a thousand specs is
/// well under it.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// One flight-recorder line: the daemon-relative timestamp, then the
/// event's tag and fields (`{"ts_us":5,"event":"stored","key":…,"worker":1}`).
/// Decoding ignores unknown extra keys, so a client can tail a newer
/// daemon's log; an unknown event, or one missing a field, is an error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Microseconds since the daemon started.
    pub ts_us: u64,
    /// What happened.
    #[serde(flatten)]
    pub event: FlightEvent,
}

/// The flight vocabulary: one job's span chain (`submitted → resolved →
/// claimed → batch_done → stored | failed → responded`) plus the
/// sampler's `queue` depth. Shared by the daemon (producer), `nocctl
/// watch`/`flight` (consumers) and the chain validator. Fields are in
/// line order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum FlightEvent {
    /// A submit was accepted.
    Submitted {
        /// Job id.
        job: u64,
        /// Points in the job.
        points: u64,
    },
    /// One point of a job resolved at submit time.
    Resolved {
        /// Point cache key (16 hex digits).
        key: String,
        /// Where the point came from.
        kind: Resolution,
        /// Job id.
        job: u64,
    },
    /// A worker claimed a batch of queued points.
    Claimed {
        /// Worker id.
        worker: u64,
        /// Points in the batch.
        points: u64,
        /// Simulated cycles per point (warmup + measure).
        cycles: u64,
    },
    /// A batch finished.
    BatchDone {
        /// Worker id.
        worker: u64,
        /// Points in the batch.
        points: u64,
        /// Wall-clock milliseconds the batch took.
        wall_ms: u64,
        /// Simulated cycles per point (warmup + measure).
        cycles: u64,
    },
    /// A computed point landed in the on-disk store.
    Stored {
        /// Point cache key.
        key: String,
        /// Worker id.
        worker: u64,
    },
    /// A point's simulation panicked.
    Failed {
        /// Point cache key.
        key: String,
        /// Worker id.
        worker: u64,
    },
    /// The daemon stopped answering the job: result, error, or the peer
    /// hung up.
    Responded {
        /// Job id.
        job: u64,
    },
    /// A queue-depth reading (sampler tick or submit).
    Queue {
        /// Queued points.
        depth: u64,
    },
}

/// Where a `resolved` point came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Resolution {
    /// The in-memory results map.
    Memory,
    /// The on-disk store.
    Store,
    /// Another job's in-flight computation.
    Dedup,
    /// Newly enqueued for the worker pool.
    Enqueued,
}

/// One named counter or gauge reading in a [`MetricsReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricValue {
    /// Metric name (statsd-compatible, unprefixed).
    pub name: String,
    /// Current value (counters: lifetime total; gauges: last sample).
    pub value: u64,
}

/// An exact histogram's summary: totals plus nearest-rank percentiles,
/// each an observed sample value. All zero when nothing was recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Histogram name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// 50th-percentile sample.
    pub p50: u64,
    /// 90th-percentile sample.
    pub p90: u64,
    /// 99th-percentile sample.
    pub p99: u64,
}

/// One worker's utilization block in a [`MetricsReport`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Worker id (0-based).
    pub worker: u64,
    /// Batches this worker has simulated.
    pub batches: u64,
    /// Points this worker has simulated.
    pub points: u64,
    /// Wall-clock milliseconds spent simulating.
    pub busy_ms: u64,
    /// Busy fraction over the sampler's observations (0.0–1.0).
    pub utilization: f64,
}

/// The flight recorder's own health counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightStats {
    /// Events published to the bus.
    pub emitted: u64,
    /// Events the writer thread has durably written.
    pub written: u64,
    /// Events dropped because the bounded queue was full (the
    /// never-stall contract: logging sheds load instead of blocking).
    pub dropped: u64,
    /// Live `watch` subscribers.
    pub watchers: u64,
}

/// The full metrics-registry dump answered to [`Request::Metrics`] —
/// what `nocctl metrics [--json]` renders, and the daemon's one report:
/// the CI `serve` job's dedup proof reads `points_computed` and the hit
/// counters out of `counters`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Wire protocol version.
    pub proto: u32,
    /// Seconds since the daemon started.
    pub uptime_secs: u64,
    /// Lifetime counters, in registry order.
    pub counters: Vec<MetricValue>,
    /// Last-sampled gauges (queue depth, inflight points).
    pub gauges: Vec<MetricValue>,
    /// Histogram summaries with percentiles.
    pub histograms: Vec<HistogramSummary>,
    /// Per-worker utilization.
    pub workers: Vec<WorkerReport>,
    /// Flight-recorder health.
    pub flight: FlightStats,
}

/// One sweep spec as it travels on the wire: scheme and pattern by
/// display name, everything else verbatim from [`SweepSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSpec {
    /// Scheme display name ([`SchemeId::name`], case-insensitive).
    pub scheme: String,
    /// Pattern display name ([`SyntheticPattern::name`], case-insensitive).
    pub pattern: String,
    /// Injection rates, in output order.
    pub rates: Vec<f64>,
    /// Mesh edge length.
    pub size: u64,
    /// FastPass VCs per input buffer.
    pub fp_vcs: u64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Simulation seed.
    pub seed: u64,
}

impl WireSpec {
    /// Encodes a runner spec for the wire.
    pub fn from_spec(spec: &SweepSpec) -> WireSpec {
        WireSpec {
            scheme: spec.id.name().to_string(),
            pattern: spec.pattern.name().to_string(),
            rates: spec.rates.clone(),
            size: spec.size as u64,
            fp_vcs: spec.fp_vcs as u64,
            warmup: spec.warmup,
            measure: spec.measure,
            seed: spec.seed,
        }
    }

    /// Decodes back into a runner spec by name, then admits it under
    /// the one rule every front end shares ([`SweepSpec::admit`]), so
    /// the daemon runs exactly what `nocsim` runs.
    ///
    /// # Errors
    ///
    /// An unknown scheme or pattern name, or the admission refusal.
    pub fn to_spec(&self) -> Result<SweepSpec, String> {
        let id = SchemeId::parse(&self.scheme)
            .ok_or_else(|| format!("unknown scheme `{}`", self.scheme))?;
        let pattern = SyntheticPattern::from_name(&self.pattern)
            .ok_or_else(|| format!("unknown pattern `{}`", self.pattern))?;
        // A value past `usize` saturates, and admission refuses it.
        let axis = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
        let spec = SweepSpec {
            id,
            pattern,
            rates: self.rates.clone(),
            size: axis(self.size),
            fp_vcs: axis(self.fp_vcs),
            warmup: self.warmup,
            measure: self.measure,
            seed: self.seed,
        };
        spec.admit()?;
        Ok(spec)
    }
}

/// A client request: one line, tagged by `"cmd"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "cmd", rename_all = "snake_case")]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// A sweep job; answered with accepted/progress/result stream.
    Submit {
        /// The sweeps to resolve.
        specs: Vec<WireSpec>,
    },
    /// Point lookup by store key (16-hex-digit, as printed by
    /// [`crate::store::format_key`]); answered with [`Response::Points`].
    Fetch {
        /// Keys to look up.
        keys: Vec<String>,
    },
    /// Drop store entries by key; answered with [`Response::Evicted`].
    Evict {
        /// Keys to drop.
        keys: Vec<String>,
    },
    /// Run a store garbage-collection pass; answered with
    /// [`Response::Gc`].
    Gc,
    /// Metrics-registry dump (counters, percentiles, worker
    /// utilization); answered with [`Response::Metrics`].
    Metrics,
    /// Subscribe this connection to the live flight-event stream:
    /// answered with [`Response::Watching`], then a [`Response::Flight`]
    /// stream until the peer hangs up or the daemon shuts down. The
    /// connection serves no other requests afterwards.
    Watch,
    /// Stop the daemon after answering [`Response::Bye`].
    Shutdown,
}

/// One `fetch` answer: the key, whether the store had it, the point,
/// and — when the envelope was stamped — its compute provenance.
///
/// `provenance` may be absent on the wire: a v2 client still decodes a
/// v1 daemon's answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FetchedPoint {
    /// The requested key.
    pub key: String,
    /// Whether an entry was found.
    pub found: bool,
    /// The stored point, when found.
    pub point: Option<LatencyPoint>,
    /// How and when the point was computed, when the store recorded it.
    #[serde(default)]
    pub provenance: Option<Provenance>,
}

/// A daemon response line, tagged by `"event"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum Response {
    /// Liveness answer.
    Pong {
        /// Wire protocol version the daemon speaks.
        proto: u32,
    },
    /// A submit was parsed and enqueued.
    Accepted {
        /// Job id, unique within this daemon.
        job: u64,
        /// Total points in the job.
        points: u64,
        /// Points this job newly enqueued for computation.
        computed: u64,
        /// Points served from the store or the in-memory results map.
        cached: u64,
        /// Points already in flight for another job (deduplicated).
        deduped: u64,
    },
    /// Per-job progress; sent whenever the done count advances.
    Progress {
        /// Job id.
        job: u64,
        /// Points resolved so far.
        done: u64,
        /// Total points in the job.
        total: u64,
    },
    /// Terminal answer to a submit: the assembled sweeps, point order
    /// matching the request's spec/rate order.
    Result {
        /// Job id.
        job: u64,
        /// One sweep per submitted spec.
        sweeps: Vec<SweepResult>,
    },
    /// Fetch answers, in request key order.
    Points {
        /// One entry per requested key.
        points: Vec<FetchedPoint>,
    },
    /// Evict outcome.
    Evicted {
        /// Entries actually removed.
        removed: u64,
    },
    /// Garbage-collection outcome.
    Gc {
        /// What the pass found and did.
        report: GcReport,
    },
    /// The metrics-registry dump.
    Metrics {
        /// The report.
        metrics: Box<MetricsReport>,
    },
    /// A watch subscription is live; [`Response::Flight`] events follow.
    Watching,
    /// One live flight-recorder event on a watching connection.
    Flight {
        /// The event.
        record: FlightRecord,
    },
    /// The request could not be served; the connection stays open.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Shutdown acknowledged; the daemon is stopping.
    Bye,
}

/// Encodes a message as one compact JSON line (no trailing newline —
/// the transport appends it).
pub fn encode<T: Serialize>(msg: &T) -> String {
    serde_json::to_string(msg).expect("protocol messages always serialize")
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns a human-readable description of the parse failure, suitable
/// for echoing back in an `error` event.
pub fn decode_request(line: &str) -> Result<Request, String> {
    serde_json::from_str::<Request>(line.trim()).map_err(|e| e.to_string())
}

/// Decodes one response line.
///
/// # Errors
///
/// Returns a human-readable description of the parse failure.
pub fn decode_response(line: &str) -> Result<Response, String> {
    serde_json::from_str::<Response>(line.trim()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec {
            id: SchemeId::FastPass,
            pattern: SyntheticPattern::Uniform,
            rates: vec![0.02, 0.05],
            size: 4,
            fp_vcs: 2,
            warmup: 100,
            measure: 300,
            seed: 5,
        }
    }

    #[test]
    fn wire_spec_round_trips_through_names() {
        let original = spec();
        let wire = WireSpec::from_spec(&original);
        let back = wire.to_spec().expect("valid spec");
        assert_eq!(back.id, original.id);
        assert_eq!(back.pattern, original.pattern);
        assert_eq!(back.rates, original.rates);
        assert_eq!(
            (back.size, back.fp_vcs, back.warmup, back.measure, back.seed),
            (
                original.size,
                original.fp_vcs,
                original.warmup,
                original.measure,
                original.seed
            )
        );
    }

    #[test]
    fn wire_spec_rejects_bad_axes() {
        let good = WireSpec::from_spec(&spec());
        let cases: Vec<(WireSpec, &str)> = vec![
            (
                WireSpec {
                    scheme: "NoSuchScheme".into(),
                    ..good.clone()
                },
                "scheme",
            ),
            (
                WireSpec {
                    pattern: "NoSuchPattern".into(),
                    ..good.clone()
                },
                "pattern",
            ),
            (
                WireSpec {
                    rates: vec![],
                    ..good.clone()
                },
                "rates",
            ),
            (
                WireSpec {
                    rates: vec![-0.1],
                    ..good.clone()
                },
                "rate",
            ),
            (
                WireSpec {
                    size: 1,
                    ..good.clone()
                },
                "size",
            ),
            (
                WireSpec {
                    pattern: "bit-rotation".into(),
                    size: 6,
                    ..good.clone()
                },
                "power-of-two",
            ),
            (
                WireSpec {
                    fp_vcs: 0,
                    ..good.clone()
                },
                "fp_vcs",
            ),
            (
                WireSpec {
                    measure: 0,
                    ..good.clone()
                },
                "measure",
            ),
            (
                WireSpec {
                    warmup: u64::MAX,
                    measure: 1,
                    ..good.clone()
                },
                "window",
            ),
        ];
        for (bad, what) in cases {
            let err = bad.to_spec().expect_err(what);
            assert!(err.contains(what), "{what} should be named in {err:?}");
        }
    }

    #[test]
    fn scheme_and_pattern_names_parse_case_insensitively() {
        assert_eq!(SchemeId::parse("fastpass"), Some(SchemeId::FastPass));
        assert_eq!(SchemeId::parse("VCT-XY"), Some(SchemeId::Vct));
        assert_eq!(SchemeId::parse("bogus"), None);
        assert_eq!(
            SyntheticPattern::from_name("Transpose"),
            Some(SyntheticPattern::Transpose)
        );
        assert_eq!(SyntheticPattern::from_name("bogus"), None);
    }

    /// A point with every float spelled differently, so its bytes pin
    /// the shim's float rendering too.
    fn wire_point() -> LatencyPoint {
        LatencyPoint {
            rate: 0.02,
            avg_latency: 17.25,
            throughput: 0.019_5,
            delivered: 312,
            fastpass_fraction: 0.5,
            dropped_fraction: 0.0,
        }
    }

    fn stamp() -> Provenance {
        Provenance {
            unix_ms: 1_700_000_000_000,
            wall_ms: 42,
            worker: Some(1),
            git_sha: "abc123".into(),
            cycles: 300,
        }
    }

    /// The line of every flight event, as the daemon has always written
    /// it.
    const FLIGHT_LINES: [&str; 8] = [
        r#"{"ts_us":1,"event":"submitted","job":3,"points":6}"#,
        r#"{"ts_us":2,"event":"resolved","key":"00000000000000ff","kind":"store","job":3}"#,
        r#"{"ts_us":3,"event":"claimed","worker":1,"points":4,"cycles":300}"#,
        r#"{"ts_us":4,"event":"batch_done","worker":1,"points":4,"wall_ms":118,"cycles":300}"#,
        r#"{"ts_us":5,"event":"stored","key":"00000000000000ff","worker":1}"#,
        r#"{"ts_us":6,"event":"failed","key":"00000000000000ff","worker":0}"#,
        r#"{"ts_us":7,"event":"responded","job":3}"#,
        r#"{"ts_us":8,"event":"queue","depth":2}"#,
    ];

    /// A found, stamped answer or a missing, unstamped one.
    fn fetched(found: bool) -> FetchedPoint {
        FetchedPoint {
            key: "00000000000000ff".into(),
            found,
            point: found.then(wire_point),
            provenance: found.then(stamp),
        }
    }

    /// A fetch answer writes `provenance` even when it is `null`.
    const FETCHED_FULL: &str = r#"{"key":"00000000000000ff","found":true,"point":{"rate":0.02,"avg_latency":17.25,"throughput":0.0195,"delivered":312,"fastpass_fraction":0.5,"dropped_fraction":0.0},"provenance":{"unix_ms":1700000000000,"wall_ms":42,"worker":1,"git_sha":"abc123","cycles":300}}"#;
    const FETCHED_BARE: &str =
        r#"{"key":"00000000000000ff","found":false,"point":null,"provenance":null}"#;

    fn metrics_report() -> MetricsReport {
        MetricsReport {
            proto: PROTO_VERSION,
            uptime_secs: 9,
            counters: vec![MetricValue {
                name: "points_computed".into(),
                value: 6,
            }],
            gauges: vec![MetricValue {
                name: "queue_depth".into(),
                value: 0,
            }],
            histograms: vec![HistogramSummary {
                name: "batch_wall_ms".into(),
                count: 3,
                sum: 420,
                max: 200,
                p50: 100,
                p90: 200,
                p99: 200,
            }],
            workers: vec![WorkerReport {
                worker: 0,
                batches: 2,
                points: 6,
                busy_ms: 400,
                utilization: 0.5,
            }],
            flight: FlightStats {
                emitted: 40,
                written: 40,
                dropped: 0,
                watchers: 1,
            },
        }
    }

    const METRICS: &str = r#"{"proto":3,"uptime_secs":9,"counters":[{"name":"points_computed","value":6}],"gauges":[{"name":"queue_depth","value":0}],"histograms":[{"name":"batch_wall_ms","count":3,"sum":420,"max":200,"p50":100,"p90":200,"p99":200}],"workers":[{"worker":0,"batches":2,"points":6,"busy_ms":400,"utilization":0.5}],"flight":{"emitted":40,"written":40,"dropped":0,"watchers":1}}"#;

    /// The exact line of every request, each decoding back to itself.
    #[test]
    fn request_lines_are_pinned() {
        let key = || vec!["00000000000000ff".to_string()];
        let pins = [
            (Request::Ping, r#"{"cmd":"ping"}"#),
            (
                Request::Submit {
                    specs: vec![WireSpec::from_spec(&spec())],
                },
                r#"{"cmd":"submit","specs":[{"scheme":"FastPass","pattern":"uniform","rates":[0.02,0.05],"size":4,"fp_vcs":2,"warmup":100,"measure":300,"seed":5}]}"#,
            ),
            (
                Request::Fetch { keys: key() },
                r#"{"cmd":"fetch","keys":["00000000000000ff"]}"#,
            ),
            (
                Request::Evict { keys: key() },
                r#"{"cmd":"evict","keys":["00000000000000ff"]}"#,
            ),
            (Request::Gc, r#"{"cmd":"gc"}"#),
            (Request::Metrics, r#"{"cmd":"metrics"}"#),
            (Request::Watch, r#"{"cmd":"watch"}"#),
            (Request::Shutdown, r#"{"cmd":"shutdown"}"#),
        ];
        for (req, line) in pins {
            assert_eq!(encode(&req), line);
            assert_eq!(decode_request(line), Ok(req), "{line}");
        }
    }

    /// The exact line of every response, each decoding back to itself.
    #[test]
    fn response_lines_are_pinned() {
        let point = r#"{"rate":0.02,"avg_latency":17.25,"throughput":0.0195,"delivered":312,"fastpass_fraction":0.5,"dropped_fraction":0.0}"#;
        let pins = [
            (Response::Pong { proto: 3 }, r#"{"event":"pong","proto":3}"#.to_string()),
            (
                Response::Accepted {
                    job: 3,
                    points: 6,
                    computed: 4,
                    cached: 1,
                    deduped: 1,
                },
                r#"{"event":"accepted","job":3,"points":6,"computed":4,"cached":1,"deduped":1}"#.to_string(),
            ),
            (
                Response::Progress {
                    job: 3,
                    done: 5,
                    total: 6,
                },
                r#"{"event":"progress","job":3,"done":5,"total":6}"#.to_string(),
            ),
            (
                Response::Result {
                    job: 3,
                    sweeps: vec![SweepResult {
                        scheme: "FastPass".into(),
                        pattern: "uniform".into(),
                        size: 4,
                        points: vec![wire_point()],
                    }],
                },
                format!(
                    r#"{{"event":"result","job":3,"sweeps":[{{"scheme":"FastPass","pattern":"uniform","size":4,"points":[{point}]}}]}}"#
                ),
            ),
            (
                Response::Points {
                    points: vec![fetched(true), fetched(false)],
                },
                format!(
                    r#"{{"event":"points","points":[{},{}]}}"#,
                    FETCHED_FULL, FETCHED_BARE
                ),
            ),
            (
                Response::Evicted { removed: 2 },
                r#"{"event":"evicted","removed":2}"#.to_string(),
            ),
            (
                Response::Gc {
                    report: GcReport {
                        scanned: 5,
                        kept: 3,
                        dropped_stale: 1,
                        dropped_corrupt: 1,
                        dropped_temp: 2,
                    },
                },
                r#"{"event":"gc","report":{"scanned":5,"kept":3,"dropped_stale":1,"dropped_corrupt":1,"dropped_temp":2}}"#.to_string(),
            ),
            (
                Response::Metrics {
                    metrics: Box::new(metrics_report()),
                },
                format!(r#"{{"event":"metrics","metrics":{METRICS}}}"#),
            ),
            (Response::Watching, r#"{"event":"watching"}"#.to_string()),
            (
                Response::Flight {
                    record: serde_json::from_str(FLIGHT_LINES[1]).expect("pinned line"),
                },
                format!(r#"{{"event":"flight","record":{}}}"#, FLIGHT_LINES[1]),
            ),
            (
                Response::Error {
                    message: "nope".into(),
                },
                r#"{"event":"error","message":"nope"}"#.to_string(),
            ),
            (Response::Bye, r#"{"event":"bye"}"#.to_string()),
        ];
        for (resp, line) in pins {
            assert_eq!(encode(&resp), line);
            assert_eq!(decode_response(&line), Ok(resp), "{line}");
        }
    }

    /// Every flight event decodes from its line and encodes back to it
    /// byte for byte: timestamp, tag, then its fields in line order.
    /// Every resolution kind is its snake-case name.
    #[test]
    fn flight_record_lines_are_pinned() {
        let mut variants = std::collections::HashSet::new();
        for line in FLIGHT_LINES {
            let record: FlightRecord = serde_json::from_str(line).expect(line);
            assert_eq!(encode(&record), line);
            variants.insert(std::mem::discriminant(&record.event));
        }
        assert_eq!(variants.len(), FLIGHT_LINES.len(), "one line per event");
        use Resolution::*;
        let kinds = encode(&[Memory, Store, Dedup, Enqueued]);
        assert_eq!(kinds, r#"["memory","store","dedup","enqueued"]"#);
    }

    #[test]
    fn malformed_lines_decode_to_errors() {
        assert!(decode_request("").is_err());
        assert!(decode_request("not json").is_err());
        assert!(decode_request("[1,2,3]").is_err());
        assert!(decode_request("{\"cmd\":\"launch-missiles\"}").is_err());
        assert!(
            decode_request("{\"cmd\":\"submit\"}").is_err(),
            "missing specs"
        );
        // v3 folded status into metrics.
        let status = decode_request("{\"cmd\":\"status\"}").unwrap_err();
        assert!(status.contains("unknown cmd `status`"), "{status}");
        let warp = decode_response("{\"event\":\"warp\"}").unwrap_err();
        assert!(warp.contains("unknown event `warp`"), "{warp}");
    }

    #[test]
    fn decoders_ignore_unknown_fields() {
        // Forward compatibility: a future daemon may add fields to any
        // message; today's decoders must skip what they don't know.
        let req = decode_request("{\"cmd\":\"metrics\",\"verbosity\":\"max\"}").expect("request");
        assert_eq!(req, Request::Metrics);
        let resp =
            decode_response("{\"event\":\"pong\",\"proto\":2,\"motd\":\"hi\"}").expect("response");
        assert_eq!(resp, Response::Pong { proto: 2 });
        let record: FlightRecord = serde_json::from_str(
            "{\"ts_us\":5,\"event\":\"stored\",\"key\":\"00000000000000ff\",\"worker\":1,\"shard\":9}",
        )
        .expect("flight record");
        let line = r#"{"ts_us":5,"event":"stored","key":"00000000000000ff","worker":1}"#;
        assert_eq!(encode(&record), line);
        // A fetch answer without the provenance key (a v1 daemon)
        // decodes with provenance: None.
        let fetched: FetchedPoint =
            serde_json::from_str("{\"key\":\"00000000000000ff\",\"found\":false,\"point\":null}")
                .expect("v1 fetch answer");
        assert_eq!(fetched.provenance, None);
    }
}
