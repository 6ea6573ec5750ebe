//! In-memory spans around the calls into each layer, written as Chrome
//! `trace_event` JSON when the run ends.
//!
//! A span has a name (the layer, `crate.module.call`), a start, an end,
//! the span that caused it and the id of the op (point, pass or job) it
//! belongs to. A layer's self time is its span's duration minus the part
//! its child spans cover. Recorders are per thread; [`Spans::absorb`]
//! merges a finished thread's spans under a parent.

use serde::Content;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (shared by all spans of one op).
    pub op: u64,
    /// Recording thread (Chrome `tid`).
    pub tid: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    tid: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `epoch` (share one epoch across
    /// threads so merged spans line up).
    pub fn new(epoch: Instant, tid: u64) -> Spans {
        Spans {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
            tid: self.tid,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span and returns its duration, ns.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a bug in the benchmark).
    pub fn exit(&mut self) -> u64 {
        let now = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = now;
        self.spans[idx].dur_ns()
    }

    /// Runs `f` inside a span and returns its result and duration, ns.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64) {
        self.enter(name, op);
        let r = f();
        (r, self.exit())
    }

    /// Merges another (finished) recorder's spans; its root spans become
    /// children of this recorder's innermost open span.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        let adopt = self.open.last().copied();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(adopt);
            self.spans.push(s);
        }
    }

    /// All spans, in start order per thread.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus what its children cover.
    /// Children on another thread than their parent run beside it, not
    /// inside it, so they are not subtracted.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].tid == s.tid {
                    own[p] = own[p].saturating_sub(s.dur_ns());
                }
            }
        }
        own
    }

    /// `(name, calls, total_ns, self_ns)` per span name, largest self
    /// time first.
    pub fn table(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(n, (c, t, o))| (n, c, t, o))
            .collect();
        rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
        rows
    }

    /// Chrome `trace_event` JSON: one complete (`X`) event per span with
    /// integral microsecond `ts`/`dur` and the exact nanoseconds, span
    /// id, parent id and op id in `args`.
    pub fn chrome_json(&self, process: &str) -> String {
        let u = |v: u64| Content::U128(u128::from(v));
        let mut events = vec![Content::Map(vec![
            ("name".into(), Content::Str("process_name".into())),
            ("ph".into(), Content::Str("M".into())),
            ("pid".into(), u(1)),
            (
                "args".into(),
                Content::Map(vec![("name".into(), Content::Str(process.into()))]),
            ),
        ])];
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("id".to_string(), u(id as u64)),
                ("op".to_string(), u(s.op)),
                ("start_ns".to_string(), u(s.start_ns)),
                ("dur_ns".to_string(), u(s.dur_ns())),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), u(p as u64)));
            }
            events.push(Content::Map(vec![
                ("name".into(), Content::Str(s.name.into())),
                ("ph".into(), Content::Str("X".into())),
                ("pid".into(), u(1)),
                ("tid".into(), u(s.tid)),
                ("ts".into(), u(s.start_ns / 1_000)),
                ("dur".into(), u((s.dur_ns() / 1_000).max(1))),
                ("args".into(), Content::Map(args)),
            ]));
        }
        serde_json::to_string(&Content::Seq(events)).expect("trace events serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_are_non_negative_and_sum_to_the_root() {
        let mut s = Spans::new(Instant::now(), 1);
        s.enter("root", 0);
        for op in 0..3 {
            s.enter("a", op);
            s.scope("b", op, || std::hint::black_box((0..1000).sum::<u64>()));
            s.exit();
        }
        let root = s.exit();
        let own = s.self_ns();
        assert_eq!(
            own.iter().sum::<u64>(),
            root,
            "self times partition the root"
        );
        for (i, sp) in s.all().iter().enumerate() {
            if let Some(p) = sp.parent {
                assert!(p < i, "parents precede children");
            }
        }
        let json = s.chrome_json("t");
        bench::check_chrome_trace(&json, false).expect("loadable trace");
    }

    #[test]
    fn absorbed_thread_spans_hang_under_the_open_span() {
        let epoch = Instant::now();
        let mut main = Spans::new(epoch, 1);
        let mut side = Spans::new(epoch, 2);
        side.scope("job", 7, || ());
        main.enter("session", 0);
        main.absorb(side);
        let session = main.exit();
        assert_eq!(main.all()[1].parent, Some(0));
        // Another thread's time runs beside the parent, not inside it.
        assert_eq!(main.self_ns()[0], session);
    }
}
