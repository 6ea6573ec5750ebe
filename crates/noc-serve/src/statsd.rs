//! Telemetry sink emitting [statsd line protocol] counters.
//!
//! `nocserve --statsd` names the target: a plain file path, one metric
//! per line, so "scraping" is `tail -f` or feeding the file to any
//! statsd relay. Lines look like:
//!
//! ```text
//! nocserve.points_computed:4|c
//! nocserve.queue_depth:2|g
//! ```
//!
//! The sink is a **drain target**, not an inline emitter: `count` /
//! `gauge` only buffer lines in memory, and the metrics
//! registry's sampler tick calls [`StatsdSink::flush`] to write them
//! out in one appending burst. Nothing on a request or worker path ever
//! opens a file.
//!
//! Writes are best-effort: telemetry must never take the service down,
//! so a missing directory or full disk silently drops lines. When no
//! target is configured every call is a no-op.
//!
//! [statsd line protocol]: https://github.com/statsd/statsd/blob/master/docs/metric_types.md

use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

/// Prefix stamped onto every metric name.
const PREFIX: &str = "nocserve";

/// Buffered lines past this are dropped until the next flush — the
/// drain loop flushes every tick, so hitting this means the drainer
/// died, and unbounded telemetry must not take memory with it.
const MAX_BUFFERED: usize = 16_384;

/// A buffered statsd-line sink: file-backed or disabled.
#[derive(Debug, Default)]
pub struct StatsdSink {
    target: Option<PathBuf>,
    buffer: Mutex<Vec<String>>,
}

/// Statsd metric names: anything outside `[A-Za-z0-9_.-]` becomes `_`
/// so a hostile or accidental name can't smuggle `:`/`|`/newlines into
/// the line protocol.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl StatsdSink {
    /// A sink appending to the file `target`; `None` or an empty path
    /// disables it.
    pub fn new(target: Option<&str>) -> StatsdSink {
        StatsdSink {
            target: target.filter(|t| !t.is_empty()).map(PathBuf::from),
            buffer: Mutex::new(Vec::new()),
        }
    }

    /// Buffers a counter increment (`|c`).
    pub fn count(&self, metric: &str, value: u64) {
        self.push(metric, value, "c");
    }

    /// Buffers a gauge level (`|g`).
    pub fn gauge(&self, metric: &str, value: u64) {
        self.push(metric, value, "g");
    }

    fn push(&self, metric: &str, value: u64, kind: &str) {
        if self.target.is_none() {
            return;
        }
        let line = format!("{PREFIX}.{}:{value}|{kind}", sanitize(metric));
        let mut buffer = self.buffer.lock().expect("statsd buffer lock");
        if buffer.len() < MAX_BUFFERED {
            buffer.push(line);
        }
    }

    /// Writes every buffered line to the target in one buffered append.
    /// Called by the sampler tick and once at shutdown; failures drop
    /// the lines, never the service.
    pub fn flush(&self) {
        let Some(path) = &self.target else { return };
        let lines: Vec<String> = {
            let mut buffer = self.buffer.lock().expect("statsd buffer lock");
            std::mem::take(&mut *buffer)
        };
        if lines.is_empty() {
            return;
        }
        // One appending open per flush; O_APPEND keeps the burst
        // line-atomic against concurrent readers.
        let Ok(file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        else {
            return;
        };
        let mut out = std::io::BufWriter::new(file);
        for line in &lines {
            if writeln!(out, "{line}").is_err() {
                return;
            }
        }
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_then_flushes_lines_in_order() {
        let path = std::env::temp_dir().join(format!("nocstatsd_{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let sink = StatsdSink::new(path.to_str());
        sink.count("points_computed", 4);
        sink.gauge("queue_depth", 2);
        assert!(!path.exists(), "nothing written before flush");
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("flushed file");
        assert_eq!(
            text,
            "nocserve.points_computed:4|c\nnocserve.queue_depth:2|g\n"
        );
        sink.flush(); // empty flush appends nothing
        assert_eq!(
            std::fs::read_to_string(&path).expect("file").len(),
            text.len()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metric_names_are_sanitized() {
        let path = std::env::temp_dir().join(format!("nocstatsd_san_{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let sink = StatsdSink::new(path.to_str());
        sink.count("weird name:with|specials\n!", 1);
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("flushed file");
        assert_eq!(text, "nocserve.weird_name_with_specials__:1|c\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_sink_is_a_noop() {
        let sink = StatsdSink::new(None);
        sink.count("anything", 1);
        sink.flush(); // must not panic or create files
    }
}
