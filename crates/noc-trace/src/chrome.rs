//! Chrome `trace_event` JSON exporter (Perfetto-loadable).
//!
//! Emits the JSON Array Format of the Trace Event specification: a flat
//! array of event objects. Tracks are laid out as
//!
//! * `pid 0` — "routers": one thread (`tid` = node index) per router,
//!   carrying regular-pipeline events (`link` complete events plus
//!   instants for inject/vc_alloc/sa_grant/eject/consume/stall);
//! * `pid 1` — "fastpass lanes": one thread per router, carrying bypass
//!   overlay events (`lane` complete events plus bypass_enter/exit
//!   instants), so bypass and regular traversals are visually and
//!   programmatically distinguishable (`cat` is `bypass` vs `regular`).
//!
//! Timestamps are simulated cycles written as microseconds (1 cycle =
//! 1 µs), the natural unit for Perfetto's timeline. The export path is
//! cold — it runs after a simulation, never inside it — so it builds a
//! [`Content`] tree and leans on the JSON writer for well-formedness.
//!
//! This module also *owns the format* for the whole workspace: the
//! event constructors ([`meta`], [`span`], [`instant`], [`counter`],
//! with [`num`]/[`text`] for `args` entries) and the one structural
//! validator ([`validate`]). The telemetry counter tracks (`pid 2`,
//! `bench::telemetry`) and the daemon's flight export (`pid 3`,
//! `noc_serve::flight`) build through the constructors, and both public
//! checkers (`bench::check_chrome_trace`, `noc_serve::check_daemon_trace`)
//! are requirement wrappers over [`validate`], so there is one dialect:
//! every event names a track (`tid`) except process-scoped ones —
//! `process_name` metadata and counters.

use crate::event::TraceEvent;
use crate::Tracer;
use serde::Content;

const PID_ROUTERS: u64 = 0;
const PID_LANES: u64 = 1;

/// One entry of a trace event's `args` object.
pub type Arg = (String, Content);

/// An unsigned-integer `args` entry.
pub fn num(key: &str, v: u64) -> Arg {
    (key.to_string(), Content::U128(u128::from(v)))
}

/// A string `args` entry.
pub fn text(key: &str, v: &str) -> Arg {
    (key.to_string(), Content::Str(v.to_string()))
}

/// The fields every event opens with: `name`, optional `cat`, `ph`.
fn head(name: &str, cat: Option<&str>, ph: &str) -> Vec<Arg> {
    let mut fields = vec![text("name", name)];
    fields.extend(cat.map(|c| text("cat", c)));
    fields.push(text("ph", ph));
    fields
}

/// A metadata (`"M"`) event naming a process (`tid` `None`, `name`
/// `"process_name"`) or a thread (`"thread_name"`) as `label`.
pub fn meta(name: &str, pid: u64, tid: Option<u64>, label: &str) -> Content {
    let mut fields = head(name, None, "M");
    fields.push(num("pid", pid));
    fields.extend(tid.map(|t| num("tid", t)));
    fields.push(("args".to_string(), Content::Map(vec![text("name", label)])));
    Content::Map(fields)
}

/// A complete (`"X"`) event: a span of `dur` (at least 1) from `ts`.
pub fn span(
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts: u64,
    dur: u64,
    args: Vec<Arg>,
) -> Content {
    let mut fields = head(name, Some(cat), "X");
    fields.extend([
        num("ts", ts),
        num("pid", pid),
        num("tid", tid),
        num("dur", dur.max(1)),
        ("args".to_string(), Content::Map(args)),
    ]);
    Content::Map(fields)
}

/// A thread-scoped instant (`"i"`) event.
pub fn instant(name: &str, cat: &str, pid: u64, tid: u64, ts: u64, args: Vec<Arg>) -> Content {
    let mut fields = head(name, Some(cat), "i");
    fields.extend([
        num("ts", ts),
        num("pid", pid),
        num("tid", tid),
        text("s", "t"),
        ("args".to_string(), Content::Map(args)),
    ]);
    Content::Map(fields)
}

/// A counter (`"C"`) sample whose `series` are the track's values at
/// `ts`. Counters are process-scoped; `tid` is optional.
pub fn counter(name: &str, pid: u64, tid: Option<u64>, ts: u64, series: Vec<Arg>) -> Content {
    let mut fields = head(name, None, "C");
    fields.extend([num("ts", ts), num("pid", pid)]);
    fields.extend(tid.map(|t| num("tid", t)));
    fields.push(("args".to_string(), Content::Map(series)));
    Content::Map(fields)
}

/// The validated skeleton of one trace event, as [`validate`] returns
/// it: enough to count by phase, process, track and name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventHead {
    /// Phase: `'M'`, `'X'`, `'i'` or `'C'`.
    pub ph: char,
    /// Process id.
    pub pid: u64,
    /// Thread id; absent only on process-scoped events.
    pub tid: Option<u64>,
    /// Event name.
    pub name: String,
}

/// The one structural validator of Chrome `trace_event` JSON as this
/// workspace writes it: a top-level array whose every element is an
/// object with a string `name`, a known phase (`M`/`X`/`i`/`C`), an
/// integral `pid` and — except on `process_name` metadata and counters,
/// which are process-scoped — an integral `tid`; non-metadata events
/// carry an integral `ts`, complete events a `dur` of at least 1,
/// instants a scope `s`, counters an `args` object of series.
///
/// What a *particular* trace must contain (bypass lanes, counter
/// tracks, job spans) is the callers' business; they read it off the
/// returned heads.
///
/// # Errors
///
/// Returns a message naming the first offending event and what is wrong
/// with it.
pub fn validate(json: &str) -> Result<Vec<EventHead>, String> {
    let doc: Content = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let Content::Seq(events) = doc else {
        return Err("top level must be a JSON array of trace events".to_string());
    };
    let mut heads = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let Content::Map(entries) = ev else {
            return Err(format!("event #{i} is not a JSON object"));
        };
        let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let int = |key: &str| get(key).and_then(Content::as_u64);
        let name = get("name")
            .and_then(Content::as_str)
            .ok_or_else(|| format!("event #{i} has no string `name`"))?;
        let need = |key: &str| {
            int(key).ok_or_else(|| format!("event #{i} ({name}) has no integral `{key}`"))
        };
        let ph = get("ph")
            .and_then(Content::as_str)
            .ok_or_else(|| format!("event #{i} ({name}) has no string `ph`"))?;
        let pid = need("pid")?;
        let ph = match ph {
            "M" => 'M',
            "X" => {
                need("ts")?;
                if int("dur").is_none_or(|d| d < 1) {
                    return Err(format!("complete event #{i} ({name}) needs `dur` >= 1"));
                }
                'X'
            }
            "i" => {
                need("ts")?;
                if get("s").and_then(Content::as_str).is_none() {
                    return Err(format!("instant event #{i} ({name}) has no scope `s`"));
                }
                'i'
            }
            "C" => {
                need("ts")?;
                if !matches!(get("args"), Some(Content::Map(_))) {
                    return Err(format!(
                        "counter event #{i} ({name}) needs an `args` object of series"
                    ));
                }
                'C'
            }
            other => {
                return Err(format!(
                    "event #{i} ({name}) has unknown phase {other:?} (expected X, i, M or C)"
                ))
            }
        };
        let process_scoped = ph == 'C' || (ph == 'M' && name == "process_name");
        let tid = if process_scoped {
            int("tid")
        } else {
            Some(need("tid")?)
        };
        heads.push(EventHead {
            ph,
            pid,
            tid,
            name: name.to_string(),
        });
    }
    Ok(heads)
}

/// Renders the tracer's recorded events as Chrome trace JSON.
///
/// Returns the JSON text (an array of trace event objects). Load it at
/// `ui.perfetto.dev` or `chrome://tracing`.
pub fn chrome_trace_json(tracer: &Tracer) -> String {
    serde_json::to_string(&Content::Seq(chrome_trace_events(tracer)))
        .expect("content tree always serializes")
}

/// The event list [`chrome_trace_json`] serializes: track metadata,
/// then every recorded event in order. Callers that add tracks of their
/// own (the telemetry counters) append to it and serialize once.
pub fn chrome_trace_events(tracer: &Tracer) -> Vec<Content> {
    let mut events: Vec<Content> = Vec::new();
    // Track naming metadata.
    events.push(meta(
        "process_name",
        PID_ROUTERS,
        None,
        "routers (regular pipeline)",
    ));
    events.push(meta(
        "process_name",
        PID_LANES,
        None,
        "fastpass lanes (bypass overlay)",
    ));
    for n in 0..tracer.num_nodes() {
        let tid = Some(n as u64);
        events.push(meta(
            "thread_name",
            PID_ROUTERS,
            tid,
            &format!("router {n}"),
        ));
        events.push(meta(
            "thread_name",
            PID_LANES,
            tid,
            &format!("lane @ router {n}"),
        ));
    }

    for rec in tracer.records_in_order() {
        let (pid, cat) = if rec.event.is_bypass() {
            (PID_LANES, "bypass")
        } else {
            (PID_ROUTERS, "regular")
        };
        let mut args = vec![num("pkt", rec.event.pkt().raw())];
        let mut traversal = false;
        match rec.event {
            TraceEvent::LinkTraverse { link, .. } | TraceEvent::BypassLink { link, .. } => {
                args.push(num("link", link.index() as u64));
                traversal = true;
            }
            TraceEvent::Inject { vc, .. } => args.push(num("vc", vc as u64)),
            TraceEvent::VcAlloc {
                out_port, out_vc, ..
            } => {
                args.push(num("out_port", out_port as u64));
                args.push(num("out_vc", out_vc as u64));
            }
            TraceEvent::SaGrant { out_port, .. } => args.push(num("out_port", out_port as u64)),
            TraceEvent::BypassEnter { dst, .. } => args.push(num("dst", dst.index() as u64)),
            TraceEvent::BypassExit { outcome, .. } => args.push(text("outcome", outcome.label())),
            TraceEvent::Stall { cause, .. } => args.push(text("cause", cause.label())),
            TraceEvent::Eject { .. } | TraceEvent::Consume { .. } => {}
        }
        let (name, tid) = (rec.event.name(), rec.node.index() as u64);
        events.push(if traversal {
            span(name, cat, pid, tid, rec.cycle, 1, args)
        } else {
            instant(name, cat, pid, tid, rec.cycle, args)
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BypassOutcome, StallCause};
    use crate::TraceConfig;
    use noc_core::packet::{MessageClass, Packet, PacketStore};
    use noc_core::topology::{Direction, Mesh, NodeId};

    #[test]
    fn export_is_parseable_and_distinguishes_tracks() {
        let mesh = Mesh::new(2, 2);
        let mut store = PacketStore::new();
        let pkt = store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::Request,
            1,
            0,
        ));
        let link = mesh
            .link(NodeId::new(0), Direction::East)
            .expect("link exists");
        let cfg = TraceConfig::full();
        let mut t = Tracer::new(&cfg, 4);
        t.set_now(5);
        t.push_event(NodeId::new(0), TraceEvent::LinkTraverse { pkt, link });
        t.push_event(NodeId::new(0), TraceEvent::BypassLink { pkt, link });
        t.push_event(
            NodeId::new(1),
            TraceEvent::Stall {
                pkt,
                cause: StallCause::SaLost,
            },
        );
        t.push_event(
            NodeId::new(1),
            TraceEvent::BypassExit {
                pkt,
                outcome: BypassOutcome::Ejected,
            },
        );
        let json = chrome_trace_json(&t);
        // Well-formed, and every event obeys the dialect `validate` encodes.
        let heads = validate(&json).expect("own output validates");
        let named = |name: &str, ph: char, pid: u64| {
            heads
                .iter()
                .any(|h| h.name == name && h.ph == ph && h.pid == pid)
        };
        assert!(named("link", 'X', PID_ROUTERS), "regular traversal");
        assert!(named("lane", 'X', PID_LANES), "bypass traversal");
        assert!(named("stall", 'i', PID_ROUTERS));
        assert!(named("bypass_exit", 'i', PID_LANES));
        assert!(named("thread_name", 'M', PID_LANES));
    }
}
