//! Traced sweep points: artifact emission and Chrome-trace validation.
//!
//! A traced point re-runs one `(spec, rate)` simulation with full
//! tracing and the windowed sampler, and writes four artifacts per
//! point into a trace directory (default `trace/`, override with
//! `FP_TRACE_OUT`):
//!
//! * `<point>.trace.json` — Chrome `trace_event` JSON, loadable in
//!   Perfetto / `chrome://tracing` (one track per router, one per
//!   FastPass lane endpoint);
//! * `<point>.metrics.json` — the serialized
//!   [`MetricsReport`](noc_trace::MetricsReport) (occupancy integrals,
//!   per-class inject/eject counts, stall-cause breakdown,
//!   lane-occupancy histogram);
//! * `<point>.lifetimes.txt` — the textual per-packet lifetime report;
//! * `<point>.windows.json` — the sampler's window series (the same
//!   series rides in the Chrome trace as counter tracks).
//!
//! The trace and the lifetime report are streamed to their files one
//! event (one line) at a time, so writing them costs the tracer's rings
//! plus a sorted view of borrowed records, whatever the files' size.
//!
//! Traced points never touch the sweep result cache: tracing wants a
//! fresh simulation every time (the cache stores only [`LatencyPoint`]
//! aggregates anyway), and keeping traced runs out of the cache keeps
//! the smoke sweep's hit-count assertions in CI exact.
//!
//! [`check_chrome_trace`] is the validation half — `smoke --trace`
//! checks every trace it writes with it, reading the file as a stream,
//! so CI failures reproduce in a unit test.
//!
//! [`LatencyPoint`]: crate::runner::LatencyPoint

use crate::runner::{make_sim, SweepSpec};
use crate::telemetry::{windows_json, write_counter_tracks};
use noc_sim::SamplerConfig;
use noc_trace::chrome::{validate, write_tracer};
use noc_trace::{packet_lifetimes, ChromeWriter, TraceConfig};
use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Summary of one validated Chrome trace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCheckSummary {
    /// Total events in the trace array.
    pub events: usize,
    /// Complete ("X") duration events — link/lane traversals.
    pub complete: usize,
    /// Instant ("i") events.
    pub instants: usize,
    /// Metadata ("M") events naming processes/threads.
    pub metadata: usize,
    /// Counter ("C") events — windowed telemetry tracks.
    pub counters: usize,
    /// Regular link-traversal events present (`name == "link"`).
    pub has_regular_link: bool,
    /// Bypass lane-traversal events present (`name == "lane"`).
    pub has_bypass_lane: bool,
}

/// Validates a Chrome `trace_event` JSON document — a flit trace
/// written by [`run_traced_point`], or a daemon flight export — against
/// the workspace's one structural validator
/// ([`noc_trace::chrome::validate`], which states the per-event rules),
/// and requires that it records more than metadata.
///
/// With `require_bypass`, the trace must additionally contain both
/// regular link traversals (`"link"`) and bypass lane traversals
/// (`"lane"`) — the property the whole pipeline exists to show.
///
/// # Errors
///
/// Returns a message naming the first offending event and what is wrong
/// with it.
pub fn check_chrome_trace(json: &str, require_bypass: bool) -> Result<TraceCheckSummary, String> {
    check_chrome_trace_full(json.as_bytes(), require_bypass, false)
}

/// [`check_chrome_trace`] over a stream (a trace file is never read
/// whole), with the counter-track requirement exposed: with
/// `require_counters`, the trace must contain at least one counter
/// (`"C"`) event — `smoke --trace` uses this to prove the telemetry
/// merge actually ran.
///
/// # Errors
///
/// Returns a message naming the first offending event and what is wrong
/// with it.
pub fn check_chrome_trace_full(
    trace: impl BufRead,
    require_bypass: bool,
    require_counters: bool,
) -> Result<TraceCheckSummary, String> {
    let mut summary = TraceCheckSummary::default();
    validate(trace, |h| {
        summary.events += 1;
        match h.ph {
            'X' => summary.complete += 1,
            'i' => summary.instants += 1,
            'M' => summary.metadata += 1,
            _ => summary.counters += 1,
        }
        if h.ph != 'M' {
            summary.has_regular_link |= h.name == "link";
            summary.has_bypass_lane |= h.name == "lane";
        }
        Ok(())
    })?;
    if summary.events == summary.metadata {
        return Err("trace holds only metadata — no simulation events recorded".to_string());
    }
    if require_bypass {
        if !summary.has_regular_link {
            return Err("no regular link traversals (`link`) in trace".to_string());
        }
        if !summary.has_bypass_lane {
            return Err(
                "no bypass lane traversals (`lane`) in trace — bypass and regular \
                 traffic must be distinguishable"
                    .to_string(),
            );
        }
    }
    if require_counters && summary.counters == 0 {
        return Err(
            "no counter (`C`) events in trace — telemetry counter tracks were not merged"
                .to_string(),
        );
    }
    Ok(summary)
}

/// Trace output directory: `FP_TRACE_OUT`, default `trace/`.
pub fn trace_out_dir() -> PathBuf {
    PathBuf::from(std::env::var("FP_TRACE_OUT").unwrap_or_else(|_| "trace".to_string()))
}

/// A filesystem-safe stem for one traced point:
/// `<scheme>_<pattern>_<size>x<size>_r<rate>` with `.` → `p`.
pub fn point_stem(spec: &SweepSpec, rate: f64) -> String {
    let raw = format!(
        "{}_{}_{}x{}_r{rate:.3}",
        spec.id.name(),
        spec.pattern.name(),
        spec.size,
        spec.size
    );
    raw.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | '-' => c,
            '.' => 'p',
            _ => '-',
        })
        .collect()
}

/// Window size for the traced-point sampler: aim for ~64 windows over
/// the measurement window so the counter tracks have visible shape.
fn sampler_for(measure: u64) -> SamplerConfig {
    SamplerConfig {
        sample_every: (measure / 64).max(1),
        max_windows: 256,
    }
}

/// Runs one `(spec, rate)` point with full tracing **and the windowed
/// sampler** enabled, and writes four artifacts into `dir`: the Chrome
/// trace (pretty layout, telemetry counter tracks after the flit
/// events), the metrics report, the lifetime report, and the
/// `<point>.windows.json` time series. Returns the paths written (trace
/// JSON first).
///
/// # Errors
///
/// Propagates filesystem errors creating the directory or writing any
/// artifact.
pub fn run_traced_point(spec: &SweepSpec, rate: f64, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut sim = make_sim(
        spec.id,
        spec.pattern,
        rate,
        spec.size,
        spec.fp_vcs,
        spec.seed,
    );
    sim.set_trace(&TraceConfig::full());
    sim.set_sampler(&sampler_for(spec.measure));
    sim.run_windows(spec.warmup, spec.measure);
    sim.finish_sampling();
    let (tracer, sampler) = (
        sim.tracer(),
        sim.sampler().expect("sampler installed above"),
    );
    std::fs::create_dir_all(dir)?;
    let stem = point_stem(spec, rate);
    let path = |ext: &str| dir.join(format!("{stem}.{ext}"));

    let chrome = path("trace.json");
    let mut out = ChromeWriter::pretty(BufWriter::new(File::create(&chrome)?));
    write_tracer(&mut out, tracer)?;
    // The window series rides in the Chrome trace as counter tracks,
    // and is written raw alongside for offline plotting.
    write_counter_tracks(sampler, &mut out)?;
    out.finish()?;

    let metrics = path("metrics.json");
    let report = serde_json::to_string_pretty(&tracer.metrics_report())?;
    std::fs::write(&metrics, report)?;

    let lifetimes = path("lifetimes.txt");
    let mut out = BufWriter::new(File::create(&lifetimes)?);
    packet_lifetimes(tracer, &mut out)?;
    out.flush()?;

    let windows = path("windows.json");
    std::fs::write(&windows, windows_json(sampler))?;
    Ok(vec![chrome, metrics, lifetimes, windows])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SchemeId;
    use traffic::SyntheticPattern;

    fn spec() -> SweepSpec {
        SweepSpec {
            id: SchemeId::FastPass,
            pattern: SyntheticPattern::Uniform,
            rates: vec![0.05],
            size: 4,
            fp_vcs: 2,
            warmup: 200,
            measure: 800,
            seed: 5,
        }
    }

    #[test]
    fn traced_point_produces_valid_chrome_trace() {
        let dir = std::env::temp_dir().join(format!("fp_trace_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = run_traced_point(&spec(), 0.05, &dir).expect("traced run");
        assert_eq!(paths.len(), 4);
        let json = std::fs::read_to_string(&paths[0]).unwrap();
        let summary = check_chrome_trace_full(json.as_bytes(), false, true)
            .expect("trace validates with counters");
        assert!(summary.has_regular_link, "uniform load crosses links");
        assert!(summary.metadata > 0, "process/thread names present");
        assert!(summary.counters > 0, "telemetry counter tracks merged in");
        let metrics = std::fs::read_to_string(&paths[1]).unwrap();
        assert!(metrics.contains("stalls"), "metrics report has stall map");
        let lifetimes = std::fs::read_to_string(&paths[2]).unwrap();
        assert!(
            lifetimes.contains("packet P"),
            "lifetime report has packets"
        );
        let windows = std::fs::read_to_string(&paths[3]).unwrap();
        assert!(paths[3].to_string_lossy().ends_with(".windows.json"));
        assert!(windows.contains("\"windows\""), "window series present");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        assert!(check_chrome_trace("not json", false).is_err());
        assert!(
            check_chrome_trace("{\"a\":1}", false).is_err(),
            "top level must be an array"
        );
        assert!(
            check_chrome_trace("[1,2]", false).is_err(),
            "events must be objects"
        );
        let no_phase = r#"[{"name":"x","pid":0,"tid":0}]"#;
        assert!(check_chrome_trace(no_phase, false).is_err());
        let bad_phase = r#"[{"name":"x","ph":"Q","pid":0,"tid":0}]"#;
        assert!(check_chrome_trace(bad_phase, false).is_err());
        let x_without_dur = r#"[{"name":"link","ph":"X","pid":0,"tid":0,"ts":1}]"#;
        assert!(check_chrome_trace(x_without_dur, false).is_err());
        let only_metadata = r#"[{"name":"process_name","ph":"M","pid":0,"tid":0}]"#;
        assert!(check_chrome_trace(only_metadata, false).is_err());
        let counter_without_args = r#"[{"name":"in_flight","ph":"C","pid":2,"tid":0,"ts":1}]"#;
        assert!(check_chrome_trace(counter_without_args, false).is_err());
        // The stream around the events: every way the array can fail to
        // be one whole array is rejected, not just bad elements.
        let link = r#"{"name":"link","ph":"X","pid":0,"tid":0,"ts":1,"dur":1}"#;
        for (bad, why) in [
            (format!("[{link},"), "never closed"),
            (format!("[{link}"), "never closed"),
            (format!("[{link},]"), "not valid JSON"),
            (format!("[{link}] x"), "after the closing"),
            (format!("[{link}][]"), "after the closing"),
            (link.to_string(), "must be a JSON array"),
            (String::new(), "empty input"),
            (format!("[{link}}}]"), "not valid JSON"),
        ] {
            let err = check_chrome_trace(&bad, false).expect_err(&bad);
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn require_counters_demands_a_counter_track() {
        let no_counters = r#"[{"name":"link","ph":"X","pid":0,"tid":0,"ts":1,"dur":1}]"#;
        assert!(check_chrome_trace_full(no_counters.as_bytes(), false, false).is_ok());
        let err = check_chrome_trace_full(no_counters.as_bytes(), false, true).unwrap_err();
        assert!(err.contains("counter"), "{err}");
        let with_counter = r#"[
            {"name":"link","ph":"X","pid":0,"tid":0,"ts":1,"dur":1},
            {"name":"in_flight","ph":"C","pid":2,"tid":0,"ts":5,"args":{"network":3}}
        ]"#;
        let s = check_chrome_trace_full(with_counter.as_bytes(), false, true).expect("valid");
        assert_eq!(s.counters, 1);
    }

    #[test]
    fn checker_accepts_minimal_valid_trace() {
        let ok = r#"[
            {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"routers"}},
            {"name":"link","ph":"X","pid":0,"tid":3,"ts":10,"dur":1},
            {"name":"inject","ph":"i","pid":0,"tid":3,"ts":9,"s":"t"}
        ]"#;
        let s = check_chrome_trace(ok, false).expect("valid");
        assert_eq!((s.events, s.complete, s.instants, s.metadata), (3, 1, 1, 1));
        assert!(s.has_regular_link && !s.has_bypass_lane);
        // Brackets, braces and escaped quotes inside strings do not
        // split the array.
        let tricky = r#" [ {"name":"a]b}c\"],{","ph":"i","pid":0,"tid":1,"ts":2,"s":"t",
            "args":{"k":"\\\"}]"}} , {"name":"link","ph":"X","pid":0,"tid":0,"ts":1,"dur":1} ] "#;
        let s = check_chrome_trace(tricky, false).expect("valid");
        assert_eq!((s.events, s.instants, s.complete), (2, 1, 1));
    }

    #[test]
    fn require_bypass_demands_both_traffic_kinds() {
        let regular_only = r#"[{"name":"link","ph":"X","pid":0,"tid":0,"ts":1,"dur":1}]"#;
        assert!(check_chrome_trace(regular_only, false).is_ok());
        let err = check_chrome_trace(regular_only, true).unwrap_err();
        assert!(err.contains("lane"), "{err}");
        let both = r#"[
            {"name":"link","ph":"X","pid":0,"tid":0,"ts":1,"dur":1},
            {"name":"lane","ph":"X","pid":1,"tid":0,"ts":2,"dur":1}
        ]"#;
        assert!(check_chrome_trace(both, true).is_ok());
    }

    #[test]
    fn point_stem_is_filesystem_safe() {
        let s = point_stem(&spec(), 0.05);
        assert_eq!(s, "FastPass_uniform_4x4_r0p050");
        assert!(s
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'));
    }
}
