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
//! cold — it runs after a simulation, never inside it — and streams: a
//! [`ChromeWriter`] lays out one event at a time onto an `io::Write`,
//! so exporting holds one event, never the document.
//!
//! This module also *owns the format* for the whole workspace: the one
//! writer ([`ChromeWriter`], whose `meta`/`span`/`instant`/`counter`
//! calls are the only event shapes) and the one structural validator
//! ([`validate`], which reads a stream one array element at a time).
//! The telemetry counter tracks (`pid 2`, `bench::telemetry`) and the
//! daemon's flight export (`pid 3`, `noc_serve::flight`) write through
//! the same writer, and both public checkers
//! (`bench::check_chrome_trace`, `noc_serve::check_daemon_trace`) are
//! requirement folds over [`validate`], so there is one dialect: every
//! event names a track (`tid`) except process-scoped ones —
//! `process_name` metadata and counters.

use crate::event::TraceEvent;
use crate::Tracer;
use serde::Content;
use serde_json::write_escaped;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

const PID_ROUTERS: u64 = 0;
const PID_LANES: u64 = 1;

/// One entry of a trace event's `args` object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg<'a> {
    /// An unsigned-integer entry.
    Num(&'a str, u64),
    /// A string entry.
    Text(&'a str, &'a str),
}

/// Streams a Chrome `trace_event` array onto `out`, one event per call,
/// byte for byte as the `serde_json` shim would serialize the same
/// events collected into one array: [`ChromeWriter::pretty`] in its
/// two-space layout, [`ChromeWriter::compact`] in its compact one.
/// Nothing is written until the first event; [`ChromeWriter::finish`]
/// closes the array (an empty trace is `[]`) and flushes. Every call
/// returns the sink's write error, if any.
pub struct ChromeWriter<W: Write> {
    out: W,
    pretty: bool,
    events: u64,
    /// The event being laid out, reused across events.
    buf: String,
}

impl<W: Write> ChromeWriter<W> {
    /// A writer in the shim's pretty layout (two-space indent).
    pub fn pretty(out: W) -> Self {
        ChromeWriter::new(out, true)
    }

    /// A writer in the shim's compact layout (no whitespace).
    pub fn compact(out: W) -> Self {
        ChromeWriter::new(out, false)
    }

    fn new(out: W, pretty: bool) -> Self {
        ChromeWriter {
            out,
            pretty,
            events: 0,
            buf: String::new(),
        }
    }

    /// A metadata (`"M"`) event naming a process (`tid` `None`, `name`
    /// `"process_name"`) or a thread (`"thread_name"`) as `label`.
    pub fn meta(&mut self, name: &str, pid: u64, tid: Option<u64>, label: &str) -> io::Result<()> {
        self.event(|ev| {
            ev.head(name, None, "M");
            ev.num("pid", pid);
            if let Some(tid) = tid {
                ev.num("tid", tid);
            }
            ev.args(&[Arg::Text("name", label)]);
        })
    }

    /// A complete (`"X"`) event: a span of `dur` (at least 1) from `ts`.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        args: &[Arg<'_>],
    ) -> io::Result<()> {
        self.event(|ev| {
            ev.head(name, Some(cat), "X");
            ev.num("ts", ts);
            ev.num("pid", pid);
            ev.num("tid", tid);
            ev.num("dur", dur.max(1));
            ev.args(args);
        })
    }

    /// A thread-scoped instant (`"i"`) event.
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts: u64,
        args: &[Arg<'_>],
    ) -> io::Result<()> {
        self.event(|ev| {
            ev.head(name, Some(cat), "i");
            ev.num("ts", ts);
            ev.num("pid", pid);
            ev.num("tid", tid);
            ev.text("s", "t");
            ev.args(args);
        })
    }

    /// A counter (`"C"`) sample whose `series` are the track's values at
    /// `ts`. Counters are process-scoped; `tid` is optional.
    pub fn counter(
        &mut self,
        name: &str,
        pid: u64,
        tid: Option<u64>,
        ts: u64,
        series: &[Arg<'_>],
    ) -> io::Result<()> {
        self.event(|ev| {
            ev.head(name, None, "C");
            ev.num("ts", ts);
            ev.num("pid", pid);
            if let Some(tid) = tid {
                ev.num("tid", tid);
            }
            ev.args(series);
        })
    }

    /// Closes the array, flushes, and hands the sink back.
    pub fn finish(mut self) -> io::Result<W> {
        let close: &[u8] = match (self.events, self.pretty) {
            (0, _) => b"[]",
            (_, true) => b"\n]",
            (_, false) => b"]",
        };
        self.out.write_all(close)?;
        self.out.flush()?;
        Ok(self.out)
    }

    /// Lays out one array element (its separator included) and writes it.
    fn event(&mut self, fill: impl FnOnce(&mut Fields<'_>)) -> io::Result<()> {
        self.buf.clear();
        self.buf.push(if self.events == 0 { '[' } else { ',' });
        let mut fields = Fields {
            buf: &mut self.buf,
            pretty: self.pretty,
            depth: 1,
            empty: true,
        };
        fields.newline(1);
        fill(&mut fields);
        fields.close();
        self.events += 1;
        self.out.write_all(self.buf.as_bytes())
    }
}

/// One JSON object being laid out at `depth` (the shim's `Map` layout).
struct Fields<'b> {
    buf: &'b mut String,
    pretty: bool,
    depth: usize,
    empty: bool,
}

impl Fields<'_> {
    fn newline(&mut self, depth: usize) {
        if self.pretty {
            self.buf.push('\n');
            self.buf.extend(std::iter::repeat_n(' ', 2 * depth));
        }
    }

    fn key(&mut self, key: &str) {
        self.buf.push(if self.empty { '{' } else { ',' });
        self.empty = false;
        self.newline(self.depth + 1);
        write_escaped(key, self.buf);
        self.buf.push(':');
        if self.pretty {
            self.buf.push(' ');
        }
    }

    fn num(&mut self, key: &str, v: u64) {
        self.key(key);
        let _ = write!(self.buf, "{v}");
    }

    fn text(&mut self, key: &str, v: &str) {
        self.key(key);
        write_escaped(v, self.buf);
    }

    /// The fields every event opens with: `name`, optional `cat`, `ph`.
    fn head(&mut self, name: &str, cat: Option<&str>, ph: &str) {
        self.text("name", name);
        if let Some(cat) = cat {
            self.text("cat", cat);
        }
        self.text("ph", ph);
    }

    fn args(&mut self, args: &[Arg<'_>]) {
        self.key("args");
        let mut inner = Fields {
            buf: self.buf,
            pretty: self.pretty,
            depth: self.depth + 1,
            empty: true,
        };
        for arg in args {
            match *arg {
                Arg::Num(key, v) => inner.num(key, v),
                Arg::Text(key, v) => inner.text(key, v),
            }
        }
        inner.close();
    }

    fn close(mut self) {
        if self.empty {
            self.buf.push_str("{}");
        } else {
            self.newline(self.depth);
            self.buf.push('}');
        }
    }
}

/// The validated skeleton of one trace event, as [`validate`] hands it
/// over: enough to count by phase, process, track and name.
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
/// The document is read as a stream: the top-level array is split one
/// element at a time (bracket depth tracked outside strings), only that
/// element is parsed, and its head goes to `each` in document order, so
/// memory holds one event whatever the file's size. What a *particular*
/// trace must contain (bypass lanes, counter tracks, job spans) is the
/// callers' business; they fold it out of the heads, and an `Err` from
/// `each` stops the read and is returned as is.
///
/// # Errors
///
/// Returns a message naming the first offending event and what is wrong
/// with it, or what is wrong with the array around the events (not an
/// array, never closed, bytes after the closing `]`, unreadable input).
pub fn validate(
    mut input: impl BufRead,
    mut each: impl FnMut(EventHead) -> Result<(), String>,
) -> Result<(), String> {
    let mut split = Split::Before;
    let mut element = Vec::new();
    let mut index = 0usize;
    loop {
        let chunk = input
            .fill_buf()
            .map_err(|e| format!("cannot read the trace: {e}"))?;
        if chunk.is_empty() {
            break;
        }
        let len = chunk.len();
        for &b in chunk {
            if split.feed(b, &mut element)? {
                each(event_head(index, &element)?)?;
                index += 1;
                element.clear();
            }
        }
        input.consume(len);
    }
    match split {
        Split::Closed => Ok(()),
        Split::Before => Err("empty input: expected a JSON array of trace events".to_string()),
        Split::Open | Split::Element { .. } => Err(format!(
            "truncated: the trace array is never closed after {index} events"
        )),
    }
}

/// Where [`validate`]'s splitter stands in the top-level array.
enum Split {
    /// Before the opening `[`.
    Before,
    /// Just after `[`: an element or the closing `]` comes next.
    Open,
    /// Inside an element (or before one, after a `,`).
    Element {
        depth: usize,
        in_string: bool,
        escaped: bool,
    },
    /// After the closing `]`: only whitespace may follow.
    Closed,
}

const FRESH_ELEMENT: Split = Split::Element {
    depth: 0,
    in_string: false,
    escaped: false,
};

impl Split {
    /// Feeds one byte; element bytes go to `element`. Returns `true`
    /// when `element` holds one whole top-level element.
    fn feed(&mut self, b: u8, element: &mut Vec<u8>) -> Result<bool, String> {
        let ws = matches!(b, b' ' | b'\t' | b'\n' | b'\r');
        match self {
            Split::Before if ws => {}
            Split::Before if b == b'[' => *self = Split::Open,
            Split::Before => {
                return Err("top level must be a JSON array of trace events".to_string())
            }
            Split::Open if ws => {}
            Split::Open if b == b']' => *self = Split::Closed,
            Split::Open => {
                *self = FRESH_ELEMENT;
                return self.feed(b, element);
            }
            Split::Element {
                depth,
                in_string,
                escaped,
            } => {
                if *in_string {
                    if *escaped {
                        *escaped = false;
                    } else if b == b'\\' {
                        *escaped = true;
                    } else if b == b'"' {
                        *in_string = false;
                    }
                } else {
                    match b {
                        b',' | b']' if *depth == 0 => {
                            *self = if b == b']' {
                                Split::Closed
                            } else {
                                FRESH_ELEMENT
                            };
                            return Ok(true);
                        }
                        b'"' => *in_string = true,
                        b'{' | b'[' => *depth += 1,
                        b'}' | b']' => *depth = depth.saturating_sub(1),
                        _ => {}
                    }
                }
                element.push(b);
            }
            Split::Closed if ws => {}
            Split::Closed => return Err("bytes after the closing `]` of the trace".to_string()),
        }
        Ok(false)
    }
}

/// Parses one top-level element (event number `i`) and checks it
/// against the dialect [`validate`] states.
fn event_head(i: usize, element: &[u8]) -> Result<EventHead, String> {
    let text = std::str::from_utf8(element).map_err(|e| format!("event #{i} is not UTF-8: {e}"))?;
    let ev: Content =
        serde_json::from_str(text).map_err(|e| format!("event #{i} is not valid JSON: {e:?}"))?;
    let Content::Map(entries) = ev else {
        return Err(format!("event #{i} is not a JSON object"));
    };
    let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let int = |key: &str| get(key).and_then(Content::as_u64);
    let name = get("name")
        .and_then(Content::as_str)
        .ok_or_else(|| format!("event #{i} has no string `name`"))?;
    let need =
        |key: &str| int(key).ok_or_else(|| format!("event #{i} ({name}) has no integral `{key}`"));
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
    Ok(EventHead {
        ph,
        pid,
        tid,
        name: name.to_string(),
    })
}

/// Writes the tracer's tracks: the track-naming metadata, then every
/// held record in recording order. Load the finished file at
/// `ui.perfetto.dev` or `chrome://tracing`. Callers that add tracks of
/// their own (the telemetry counters) write them after this, before
/// [`ChromeWriter::finish`].
///
/// # Errors
///
/// Propagates the underlying writer's error.
pub fn write_tracer<W: Write>(out: &mut ChromeWriter<W>, tracer: &Tracer) -> io::Result<()> {
    out.meta(
        "process_name",
        PID_ROUTERS,
        None,
        "routers (regular pipeline)",
    )?;
    out.meta(
        "process_name",
        PID_LANES,
        None,
        "fastpass lanes (bypass overlay)",
    )?;
    for n in 0..tracer.num_nodes() {
        let tid = Some(n as u64);
        out.meta("thread_name", PID_ROUTERS, tid, &format!("router {n}"))?;
        out.meta("thread_name", PID_LANES, tid, &format!("lane @ router {n}"))?;
    }

    for rec in tracer.held_records_by(|r| r.seq) {
        let (pid, cat) = if rec.event.is_bypass() {
            (PID_LANES, "bypass")
        } else {
            (PID_ROUTERS, "regular")
        };
        let (name, tid, ts) = (rec.event.name(), rec.node.index() as u64, rec.cycle);
        let pkt = Arg::Num("pkt", rec.event.pkt().raw());
        let args: &[Arg<'_>] = match rec.event {
            TraceEvent::LinkTraverse { link, .. } | TraceEvent::BypassLink { link, .. } => {
                let args = [pkt, Arg::Num("link", link.index() as u64)];
                out.span(name, cat, pid, tid, ts, 1, &args)?;
                continue;
            }
            TraceEvent::Inject { vc, .. } => &[pkt, Arg::Num("vc", vc as u64)],
            TraceEvent::VcAlloc {
                out_port, out_vc, ..
            } => &[
                pkt,
                Arg::Num("out_port", out_port as u64),
                Arg::Num("out_vc", out_vc as u64),
            ],
            TraceEvent::SaGrant { out_port, .. } => &[pkt, Arg::Num("out_port", out_port as u64)],
            TraceEvent::BypassEnter { dst, .. } => &[pkt, Arg::Num("dst", dst.index() as u64)],
            TraceEvent::BypassExit { outcome, .. } => &[pkt, Arg::Text("outcome", outcome.label())],
            TraceEvent::Stall { cause, .. } => &[pkt, Arg::Text("cause", cause.label())],
            TraceEvent::Eject { .. } | TraceEvent::Consume { .. } => &[pkt],
        };
        out.instant(name, cat, pid, tid, ts, args)?;
    }
    Ok(())
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
        let mut out = ChromeWriter::compact(Vec::new());
        write_tracer(&mut out, &t).expect("in-memory write");
        let json = out.finish().expect("in-memory write");
        // Well-formed, and every event obeys the dialect `validate` encodes.
        let mut heads = Vec::new();
        validate(&json[..], |h| {
            heads.push(h);
            Ok(())
        })
        .expect("own output validates");
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

    /// A name needing every kind of escape: quote, backslash, newline
    /// and a control character.
    const ODD: &str = "quote\" back\\slash\nline\u{1}";

    /// One event of every shape the writer lays out, written through it.
    fn mixed_events<W: Write>(mut w: ChromeWriter<W>) -> W {
        let lane_args = [Arg::Num("pkt", 7), Arg::Text("outcome", ODD)];
        w.meta("process_name", 0, None, "routers").expect("write");
        w.meta("thread_name", 1, Some(3), ODD).expect("write");
        w.span(ODD, "bypass", 1, 3, 10, 0, &lane_args)
            .expect("write");
        w.instant("eject", "regular", 0, 2, 11, &[]).expect("write");
        w.counter("queue", 3, None, 12, &[Arg::Num("depth", u64::MAX)])
            .expect("write");
        w.counter("flits", 2, Some(0), 13, &[]).expect("write");
        w.finish().expect("write")
    }

    /// [`mixed_events`] as a document the shim parses into its
    /// `Content::Seq`: the writer's oracle in both layouts.
    const MIXED_EVENTS: &str = r#"[
        {"name":"process_name","ph":"M","pid":0,"args":{"name":"routers"}},
        {"name":"thread_name","ph":"M","pid":1,"tid":3,
         "args":{"name":"quote\" back\\slash\nline\u0001"}},
        {"name":"quote\" back\\slash\nline\u0001","cat":"bypass","ph":"X","ts":10,"pid":1,
         "tid":3,"dur":1,"args":{"pkt":7,"outcome":"quote\" back\\slash\nline\u0001"}},
        {"name":"eject","cat":"regular","ph":"i","ts":11,"pid":0,"tid":2,"s":"t","args":{}},
        {"name":"queue","ph":"C","ts":12,"pid":3,"args":{"depth":18446744073709551615}},
        {"name":"flits","ph":"C","ts":13,"pid":2,"tid":0,"args":{}}
    ]"#;

    #[test]
    fn writer_matches_the_shim_in_both_layouts() {
        let oracle: Content = serde_json::from_str(MIXED_EVENTS).expect("oracle parses");
        assert!(matches!(&oracle, Content::Seq(events) if events.len() == 6));
        let pretty = mixed_events(ChromeWriter::pretty(Vec::new()));
        let expected = serde_json::to_string_pretty(&oracle).expect("serializes");
        assert_eq!(String::from_utf8(pretty).expect("UTF-8"), expected);
        let compact = mixed_events(ChromeWriter::compact(Vec::new()));
        let expected = serde_json::to_string(&oracle).expect("serializes");
        assert_eq!(String::from_utf8(compact).expect("UTF-8"), expected);
        for empty in [
            ChromeWriter::pretty(Vec::new()),
            ChromeWriter::compact(Vec::new()),
        ] {
            assert_eq!(empty.finish().expect("write"), b"[]");
        }
    }

    /// A trace of `events` instants generated as it is read: the reader
    /// holds one event's bytes at a time, never the document.
    struct LazyTrace {
        events: u64,
        next: u64,
        pending: io::Cursor<Vec<u8>>,
    }

    impl io::Read for LazyTrace {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let drained = self.pending.position() == self.pending.get_ref().len() as u64;
            if drained && self.next <= self.events {
                let i = self.next;
                self.next += 1;
                let text = match i {
                    0 => "[".to_string(),
                    _ => format!(
                        r#"{{"name":"e]}}\"","ph":"i","pid":0,"tid":{},"ts":{i},"s":"t"}}{}"#,
                        i % 7,
                        if i == self.events { "]" } else { "," }
                    ),
                };
                self.pending = io::Cursor::new(text.into_bytes());
            }
            self.pending.read(buf)
        }
    }

    #[test]
    fn validator_streams_a_million_events() {
        let lazy = LazyTrace {
            events: 1_000_000,
            next: 0,
            pending: io::Cursor::new(Vec::new()),
        };
        let mut seen = 0u64;
        validate(io::BufReader::new(lazy), |h| {
            seen += 1;
            assert_eq!((h.name.as_str(), h.tid), ("e]}\"", Some(seen % 7)));
            Ok(())
        })
        .expect("a generated trace validates");
        assert_eq!(seen, 1_000_000);
    }

    #[test]
    fn validator_stops_at_the_callers_error() {
        let two = br#"[{"name":"process_name","ph":"M","pid":0},{"name":"b","ph":"C","pid":0,"ts":1,"args":{}}]"#;
        let mut seen = 0;
        let err = validate(&two[..], |_| {
            seen += 1;
            Err("enough".to_string())
        })
        .expect_err("the callback refused");
        assert_eq!((err.as_str(), seen), ("enough", 1));
    }
}
