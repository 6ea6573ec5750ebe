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
//!
//! The vendored serde shim derives only structs and unit enums, so the
//! tagged [`Request`]/[`Response`] unions implement
//! `Serialize`/`Deserialize` by hand over the shim's [`Content`] tree.

use crate::runner::{LatencyPoint, SweepResult, SweepSpec};
use crate::store::{GcReport, Provenance};
use crate::SchemeId;
use serde::{field, Content, DeError, Deserialize, Serialize};
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

/// Flight-recorder event names — the vocabulary of one job's lifecycle
/// span chain (`submitted → resolved → claimed → batch_done → stored →
/// responded`), plus the sampler's `queue` depth
/// records. Shared by the daemon (producer), `nocctl watch`/`flight`
/// (consumers) and the chain validator so the three cannot drift.
pub mod flight_event {
    /// A submit was accepted; carries `job` and `points`.
    pub const SUBMITTED: &str = "submitted";
    /// One point of a job resolved at submit time; carries `job`, `key`
    /// and `kind` (one of [`KIND_MEMORY`], [`KIND_STORE`],
    /// [`KIND_DEDUP`], [`KIND_ENQUEUED`]).
    pub const RESOLVED: &str = "resolved";
    /// A worker claimed a batch of queued points and begins simulating
    /// it; carries `worker`, `points` and `cycles` (warmup + measure
    /// window per point).
    pub const CLAIMED: &str = "claimed";
    /// A batch finished; carries `worker`, `points`, `wall_ms` and
    /// `cycles` (warmup + measure window per point).
    pub const BATCH_DONE: &str = "batch_done";
    /// A computed point landed in the on-disk store; carries `key` and
    /// `worker`.
    pub const STORED: &str = "stored";
    /// A point's simulation panicked; carries `key` and `worker`.
    pub const FAILED: &str = "failed";
    /// The daemon stopped answering the job: result, error, or the
    /// peer hung up; carries `job`.
    pub const RESPONDED: &str = "responded";
    /// A sampler tick's queue-depth reading; carries `depth`.
    pub const QUEUE: &str = "queue";

    /// `resolved` kind: served from the in-memory results map.
    pub const KIND_MEMORY: &str = "memory";
    /// `resolved` kind: served from the on-disk store.
    pub const KIND_STORE: &str = "store";
    /// `resolved` kind: rode another job's in-flight computation.
    pub const KIND_DEDUP: &str = "dedup";
    /// `resolved` kind: newly enqueued for the worker pool.
    pub const KIND_ENQUEUED: &str = "enqueued";
}

/// One flight-recorder event: a timestamped lifecycle record with only
/// the fields that event carries (see [`flight_event`]).
///
/// Serialization is hand-written: absent optional fields are *omitted*
/// (keeping the JSONL log compact and grep-friendly), and the decoder
/// tolerates both missing optionals and unknown extra fields, so a v2
/// client can tail a future daemon's log without choking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecord {
    /// Microseconds since the daemon started.
    pub ts_us: u64,
    /// Event name (one of [`flight_event`]).
    pub event: String,
    /// Job id, for job-scoped events.
    pub job: Option<u64>,
    /// Point cache key (16 hex digits), for point-scoped events.
    pub key: Option<String>,
    /// Resolution kind, for `resolved` events.
    pub kind: Option<String>,
    /// Worker id, for worker-scoped events.
    pub worker: Option<u64>,
    /// Point count (job total or batch size).
    pub points: Option<u64>,
    /// Wall-clock milliseconds (batch duration, queue wait).
    pub wall_ms: Option<u64>,
    /// Simulated cycles per point (warmup + measure).
    pub cycles: Option<u64>,
    /// Queue depth, for `queue` samples.
    pub depth: Option<u64>,
}

impl FlightRecord {
    /// A record of `event` with no fields set (the producer fills in
    /// what the event carries).
    pub fn of(event: &str) -> FlightRecord {
        FlightRecord {
            event: event.to_string(),
            ..FlightRecord::default()
        }
    }
}

impl Serialize for FlightRecord {
    fn to_content(&self) -> Content {
        let mut map = vec![
            ("ts_us".to_string(), self.ts_us.to_content()),
            ("event".to_string(), self.event.to_content()),
        ];
        let numbers = [
            ("job", &self.job),
            ("worker", &self.worker),
            ("points", &self.points),
            ("wall_ms", &self.wall_ms),
            ("cycles", &self.cycles),
            ("depth", &self.depth),
        ];
        if let Some(key) = &self.key {
            map.push(("key".to_string(), key.to_content()));
        }
        if let Some(kind) = &self.kind {
            map.push(("kind".to_string(), kind.to_content()));
        }
        for (name, value) in numbers {
            if let Some(v) = value {
                map.push((name.to_string(), v.to_content()));
            }
        }
        Content::Map(map)
    }
}

impl Deserialize for FlightRecord {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError("flight record must be a JSON object".to_string()))?;
        let opt_u = |name: &str| -> Result<Option<u64>, DeError> {
            match field(map, name) {
                Ok(content) => Option::<u64>::from_content(content),
                Err(_) => Ok(None),
            }
        };
        let opt_s = |name: &str| -> Result<Option<String>, DeError> {
            match field(map, name) {
                Ok(content) => Option::<String>::from_content(content),
                Err(_) => Ok(None),
            }
        };
        Ok(FlightRecord {
            ts_us: u64::from_content(field(map, "ts_us")?)?,
            event: String::from_content(field(map, "event")?)?,
            job: opt_u("job")?,
            key: opt_s("key")?,
            kind: opt_s("kind")?,
            worker: opt_u("worker")?,
            points: opt_u("points")?,
            wall_ms: opt_u("wall_ms")?,
            cycles: opt_u("cycles")?,
            depth: opt_u("depth")?,
        })
    }
}

/// One named counter or gauge reading in a [`MetricsReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricValue {
    /// Metric name (statsd-compatible, unprefixed).
    pub name: String,
    /// Current value (counters: lifetime total; gauges: last sample).
    pub value: u64,
}

/// A fixed-bucket histogram's summary: totals plus bucket-resolution
/// percentiles (each percentile reports its bucket's upper bound).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Histogram name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen (exact, not bucketed).
    pub max: u64,
    /// 50th-percentile bucket bound.
    pub p50: u64,
    /// 90th-percentile bucket bound.
    pub p90: u64,
    /// 99th-percentile bucket bound.
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

    /// Decodes back into a runner spec, validating every axis. The
    /// bounds are sanity limits for a *local* trusted service: they
    /// exist to turn typos into readable errors, not to sandbox.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid axis.
    pub fn to_spec(&self) -> Result<SweepSpec, String> {
        let id = SchemeId::parse(&self.scheme)
            .ok_or_else(|| format!("unknown scheme `{}`", self.scheme))?;
        let pattern = SyntheticPattern::from_name(&self.pattern)
            .ok_or_else(|| format!("unknown pattern `{}`", self.pattern))?;
        if self.rates.is_empty() {
            return Err("spec has no rates".to_string());
        }
        if let Some(bad) = self
            .rates
            .iter()
            .find(|r| !r.is_finite() || **r <= 0.0 || **r > 1.0)
        {
            return Err(format!("rate {bad} outside (0, 1]"));
        }
        if !(2..=64).contains(&self.size) {
            return Err(format!("mesh size {} outside 2..=64", self.size));
        }
        if !(1..=8).contains(&self.fp_vcs) {
            return Err(format!("fp_vcs {} outside 1..=8", self.fp_vcs));
        }
        if self.measure == 0 {
            return Err("measure window must be at least 1 cycle".to_string());
        }
        Ok(SweepSpec {
            id,
            pattern,
            rates: self.rates.clone(),
            size: self.size as usize,
            fp_vcs: self.fp_vcs as usize,
            warmup: self.warmup,
            measure: self.measure,
            seed: self.seed,
        })
    }
}

/// A client request: one line, tagged by `"cmd"`.
#[derive(Debug, Clone, PartialEq)]
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
    /// [`Response::GcDone`].
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

impl Serialize for Request {
    fn to_content(&self) -> Content {
        let mut map: Vec<(String, Content)> = Vec::new();
        let cmd = match self {
            Request::Ping => "ping",
            Request::Submit { .. } => "submit",
            Request::Fetch { .. } => "fetch",
            Request::Evict { .. } => "evict",
            Request::Gc => "gc",
            Request::Metrics => "metrics",
            Request::Watch => "watch",
            Request::Shutdown => "shutdown",
        };
        map.push(("cmd".to_string(), Content::Str(cmd.to_string())));
        match self {
            Request::Submit { specs } => map.push(("specs".to_string(), specs.to_content())),
            Request::Fetch { keys } | Request::Evict { keys } => {
                map.push(("keys".to_string(), keys.to_content()));
            }
            _ => {}
        }
        Content::Map(map)
    }
}

impl Deserialize for Request {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError("request must be a JSON object".to_string()))?;
        let cmd = field(map, "cmd")?
            .as_str()
            .ok_or_else(|| DeError("`cmd` must be a string".to_string()))?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "submit" => Ok(Request::Submit {
                specs: Vec::<WireSpec>::from_content(field(map, "specs")?)?,
            }),
            "fetch" => Ok(Request::Fetch {
                keys: Vec::<String>::from_content(field(map, "keys")?)?,
            }),
            "evict" => Ok(Request::Evict {
                keys: Vec::<String>::from_content(field(map, "keys")?)?,
            }),
            "gc" => Ok(Request::Gc),
            "metrics" => Ok(Request::Metrics),
            "watch" => Ok(Request::Watch),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(DeError(format!("unknown cmd `{other}`"))),
        }
    }
}

/// One `fetch` answer: the key, whether the store had it, the point,
/// and — when the envelope was stamped — its compute provenance.
///
/// `Deserialize` is hand-written so `provenance` is optional on the
/// wire: a v2 client still decodes a v1 daemon's answers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FetchedPoint {
    /// The requested key.
    pub key: String,
    /// Whether an entry was found.
    pub found: bool,
    /// The stored point, when found.
    pub point: Option<LatencyPoint>,
    /// How and when the point was computed, when the store recorded it.
    pub provenance: Option<Provenance>,
}

impl Deserialize for FetchedPoint {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError("fetched point must be a JSON object".to_string()))?;
        Ok(FetchedPoint {
            key: String::from_content(field(map, "key")?)?,
            found: bool::from_content(field(map, "found")?)?,
            point: Option::<LatencyPoint>::from_content(field(map, "point")?)?,
            provenance: match field(map, "provenance") {
                Ok(content) => Option::<Provenance>::from_content(content)?,
                Err(_) => None,
            },
        })
    }
}

/// A daemon response line, tagged by `"event"`.
#[derive(Debug, Clone, PartialEq)]
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
    GcDone(GcReport),
    /// The metrics-registry dump.
    Metrics(Box<MetricsReport>),
    /// A watch subscription is live; [`Response::Flight`] events follow.
    Watching,
    /// One live flight-recorder event on a watching connection.
    Flight(FlightRecord),
    /// The request could not be served; the connection stays open.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Shutdown acknowledged; the daemon is stopping.
    Bye,
}

impl Serialize for Response {
    fn to_content(&self) -> Content {
        let mut map: Vec<(String, Content)> = Vec::new();
        let tag = match self {
            Response::Pong { .. } => "pong",
            Response::Accepted { .. } => "accepted",
            Response::Progress { .. } => "progress",
            Response::Result { .. } => "result",
            Response::Points { .. } => "points",
            Response::Evicted { .. } => "evicted",
            Response::GcDone(_) => "gc",
            Response::Metrics(_) => "metrics",
            Response::Watching => "watching",
            Response::Flight(_) => "flight",
            Response::Error { .. } => "error",
            Response::Bye => "bye",
        };
        map.push(("event".to_string(), Content::Str(tag.to_string())));
        match self {
            Response::Pong { proto } => map.push(("proto".to_string(), proto.to_content())),
            Response::Accepted {
                job,
                points,
                computed,
                cached,
                deduped,
            } => {
                map.push(("job".to_string(), job.to_content()));
                map.push(("points".to_string(), points.to_content()));
                map.push(("computed".to_string(), computed.to_content()));
                map.push(("cached".to_string(), cached.to_content()));
                map.push(("deduped".to_string(), deduped.to_content()));
            }
            Response::Progress { job, done, total } => {
                map.push(("job".to_string(), job.to_content()));
                map.push(("done".to_string(), done.to_content()));
                map.push(("total".to_string(), total.to_content()));
            }
            Response::Result { job, sweeps } => {
                map.push(("job".to_string(), job.to_content()));
                map.push(("sweeps".to_string(), sweeps.to_content()));
            }
            Response::Points { points } => map.push(("points".to_string(), points.to_content())),
            Response::Evicted { removed } => {
                map.push(("removed".to_string(), removed.to_content()));
            }
            Response::GcDone(report) => map.push(("report".to_string(), report.to_content())),
            Response::Metrics(report) => map.push(("metrics".to_string(), report.to_content())),
            Response::Flight(record) => map.push(("record".to_string(), record.to_content())),
            Response::Error { message } => {
                map.push(("message".to_string(), message.to_content()));
            }
            Response::Watching | Response::Bye => {}
        }
        Content::Map(map)
    }
}

impl Deserialize for Response {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError("response must be a JSON object".to_string()))?;
        let tag = field(map, "event")?
            .as_str()
            .ok_or_else(|| DeError("`event` must be a string".to_string()))?;
        let u = |name: &str| -> Result<u64, DeError> { u64::from_content(field(map, name)?) };
        match tag {
            "pong" => Ok(Response::Pong {
                proto: u32::from_content(field(map, "proto")?)?,
            }),
            "accepted" => Ok(Response::Accepted {
                job: u("job")?,
                points: u("points")?,
                computed: u("computed")?,
                cached: u("cached")?,
                deduped: u("deduped")?,
            }),
            "progress" => Ok(Response::Progress {
                job: u("job")?,
                done: u("done")?,
                total: u("total")?,
            }),
            "result" => Ok(Response::Result {
                job: u("job")?,
                sweeps: Vec::<SweepResult>::from_content(field(map, "sweeps")?)?,
            }),
            "points" => Ok(Response::Points {
                points: Vec::<FetchedPoint>::from_content(field(map, "points")?)?,
            }),
            "evicted" => Ok(Response::Evicted {
                removed: u("removed")?,
            }),
            "gc" => Ok(Response::GcDone(GcReport::from_content(field(
                map, "report",
            )?)?)),
            "metrics" => Ok(Response::Metrics(Box::new(MetricsReport::from_content(
                field(map, "metrics")?,
            )?))),
            "watching" => Ok(Response::Watching),
            "flight" => Ok(Response::Flight(FlightRecord::from_content(field(
                map, "record",
            )?)?)),
            "error" => Ok(Response::Error {
                message: String::from_content(field(map, "message")?)?,
            }),
            "bye" => Ok(Response::Bye),
            other => Err(DeError(format!("unknown event `{other}`"))),
        }
    }
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
        ];
        for (bad, what) in cases {
            assert!(bad.to_spec().is_err(), "{what} should be rejected");
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

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::Submit {
                specs: vec![WireSpec::from_spec(&spec())],
            },
            Request::Fetch {
                keys: vec!["00000000000000ff".to_string()],
            },
            Request::Evict {
                keys: vec!["00000000000000ff".to_string()],
            },
            Request::Gc,
            Request::Metrics,
            Request::Watch,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = encode(&req);
            assert!(!line.contains('\n'), "one line per message: {line}");
            let back = decode_request(&line).expect("round trip");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Pong {
                proto: PROTO_VERSION,
            },
            Response::Accepted {
                job: 3,
                points: 6,
                computed: 4,
                cached: 1,
                deduped: 1,
            },
            Response::Progress {
                job: 3,
                done: 5,
                total: 6,
            },
            Response::Result {
                job: 3,
                sweeps: vec![SweepResult {
                    scheme: "FastPass".into(),
                    pattern: "uniform".into(),
                    size: 4,
                    points: vec![],
                }],
            },
            Response::Points {
                points: vec![FetchedPoint {
                    key: "00000000000000ff".into(),
                    found: false,
                    point: None,
                    provenance: Some(Provenance {
                        unix_ms: 1_700_000_000_000,
                        wall_ms: 42,
                        worker: None,
                        git_sha: "abc123".into(),
                        cycles: 300,
                    }),
                }],
            },
            Response::Evicted { removed: 2 },
            Response::GcDone(GcReport::default()),
            Response::Metrics(Box::new(MetricsReport {
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
            })),
            Response::Watching,
            Response::Flight(FlightRecord {
                ts_us: 1_234,
                event: flight_event::BATCH_DONE.into(),
                worker: Some(1),
                points: Some(4),
                wall_ms: Some(118),
                cycles: Some(300),
                ..FlightRecord::default()
            }),
            Response::Error {
                message: "nope".into(),
            },
            Response::Bye,
        ];
        for resp in resps {
            let line = encode(&resp);
            assert!(!line.contains('\n'), "one line per message: {line}");
            let back = decode_response(&line).expect("round trip");
            assert_eq!(back, resp);
        }
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
        assert!(
            decode_request("{\"cmd\":\"status\"}").is_err(),
            "v3 folded status into metrics"
        );
        assert!(decode_response("{\"event\":\"warp\"}").is_err());
    }

    #[test]
    fn flight_records_omit_absent_fields_and_tolerate_missing_ones() {
        // A sparse record serializes without its unset fields…
        let line = encode(&FlightRecord {
            ts_us: 7,
            event: flight_event::QUEUE.into(),
            depth: Some(3),
            ..FlightRecord::default()
        });
        for absent in ["job", "key", "kind", "worker", "wall_ms", "cycles"] {
            assert!(
                !line.contains(absent),
                "`{absent}` should be omitted: {line}"
            );
        }
        // …and the minimal possible line still decodes.
        let minimal: FlightRecord =
            serde_json::from_str("{\"ts_us\":1,\"event\":\"submitted\"}").expect("minimal decodes");
        assert_eq!(minimal.event, flight_event::SUBMITTED);
        assert_eq!(minimal.job, None);
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
            "{\"ts_us\":5,\"event\":\"stored\",\"key\":\"00000000000000ff\",\"shard\":9}",
        )
        .expect("flight record");
        assert_eq!(record.key.as_deref(), Some("00000000000000ff"));
        // A fetch answer without the provenance key (a v1 daemon)
        // decodes with provenance: None.
        let fetched: FetchedPoint =
            serde_json::from_str("{\"key\":\"00000000000000ff\",\"found\":false,\"point\":null}")
                .expect("v1 fetch answer");
        assert_eq!(fetched.provenance, None);
    }
}
