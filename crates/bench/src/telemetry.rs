//! Window-series exporters: JSON time series, ASCII sparklines, and
//! Chrome trace counter tracks.
//!
//! The sampler (`noc_sim::sampler`) records raw [`WindowSample`]s; this
//! module turns a finished series into artifacts:
//!
//! * [`windows_json`] — a self-describing JSON document (one object per
//!   window) for offline plotting, written as `<point>.windows.json`
//!   next to the PR 4 trace artifacts;
//! * [`sparkline`] / [`series_summary`] — Unicode sparklines printed by
//!   `smoke`, a zero-dependency glance at congestion onset;
//! * [`write_counter_tracks`] — Chrome `trace_event` counter (phase
//!   `C`) events streamed after a Perfetto file's flit events, so
//!   time-series metrics render as counter tracks above the per-router
//!   flit tracks.

use noc_sim::{Sampler, WindowSample};
use noc_trace::chrome::Arg;
use noc_trace::{ChromeWriter, StallCause};
use serde::{Content, Serialize};
use std::io;

/// Process id used for telemetry counter tracks in Chrome traces
/// (routers are pid 0, FastPass lanes pid 1 — see `noc_trace::chrome`).
pub const PID_TELEMETRY: u64 = 2;

/// One `(label, count)` series entry per stall cause.
fn stall_series(w: &WindowSample) -> [Arg<'static>; StallCause::COUNT] {
    StallCause::ALL.map(|c| Arg::Num(c.label(), w.trace.stalls[c.index()]))
}

/// Serializes a sampler's full series as a pretty-printed JSON document:
/// `{"sample_every", "dropped_windows", "stall_causes", "windows": [...]}`,
/// each window the derived shape of [`WindowSample`] and
/// `stall_causes` naming the indices of its `trace.stalls` array.
pub fn windows_json(sampler: &Sampler) -> String {
    let count = |key: &str, v: u64| (key.to_string(), v.to_content());
    let doc = Content::Map(vec![
        count("sample_every", sampler.config().sample_every),
        count("dropped_windows", sampler.dropped_windows()),
        ("stall_causes".to_string(), StallCause::LABELS.to_content()),
        ("windows".to_string(), sampler.windows().to_content()),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".to_string())
}

/// Renders values as a Unicode sparkline (`▁▂▃▄▅▆▇█`), scaled to the
/// series maximum. Empty input renders as an empty string; an all-zero
/// series renders as all-`▁`.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || !v.is_finite() || v <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * 8.0).ceil() as usize;
                BARS[idx.clamp(1, 8) - 1]
            }
        })
        .collect()
}

/// A multi-line sparkline summary of the headline window series:
/// delivered/window, mean latency, in-flight packets, and (when tracing
/// counters were live) stall cycles.
pub fn series_summary(sampler: &Sampler) -> String {
    let ws = sampler.windows();
    if ws.is_empty() {
        return "telemetry: no windows recorded".to_string();
    }
    let line = |label: &str, values: Vec<f64>, last: String| {
        format!("{label:>12} {} {last}\n", sparkline(&values))
    };
    let mut out = String::new();
    out.push_str(&format!(
        "telemetry: {} windows x {} cycles{}\n",
        ws.len(),
        sampler.config().sample_every,
        if sampler.dropped_windows() > 0 {
            format!(" ({} dropped)", sampler.dropped_windows())
        } else {
            String::new()
        }
    ));
    let delivered: Vec<f64> = ws.iter().map(|w| w.stats.delivered() as f64).collect();
    let total_delivered: u64 = ws.iter().map(|w| w.stats.delivered()).sum();
    out.push_str(&line(
        "delivered",
        delivered,
        format!("total {total_delivered}"),
    ));
    let latency: Vec<f64> = ws
        .iter()
        .map(|w| w.stats.mean_latency().unwrap_or(0.0))
        .collect();
    let last_lat = ws
        .iter()
        .rev()
        .find_map(|w| w.stats.mean_latency())
        .unwrap_or(0.0);
    out.push_str(&line("latency", latency, format!("last {last_lat:.1} cyc")));
    let in_flight: Vec<f64> = ws.iter().map(|w| w.in_flight_total() as f64).collect();
    let max_in_flight = ws.iter().map(|w| w.in_flight_total()).max().unwrap_or(0);
    out.push_str(&line(
        "in_flight",
        in_flight,
        format!("peak {max_in_flight}"),
    ));
    let total_stalls: u64 = ws.iter().map(|w| w.trace.total_stalls()).sum();
    if total_stalls > 0 {
        let stalls: Vec<f64> = ws.iter().map(|w| w.trace.total_stalls() as f64).collect();
        out.push_str(&line("stalls", stalls, format!("total {total_stalls}")));
    }
    out
}

/// Writes the series as Chrome `trace_event` counter events (phase
/// `C`) onto `out`: one counter sample per window per track, under
/// [`PID_TELEMETRY`]. An empty series writes nothing.
///
/// # Errors
///
/// Propagates the writer's error.
pub fn write_counter_tracks<W: io::Write>(
    sampler: &Sampler,
    out: &mut ChromeWriter<W>,
) -> io::Result<()> {
    if sampler.windows().is_empty() {
        return Ok(());
    }
    out.meta("process_name", PID_TELEMETRY, None, "telemetry (windowed)")?;
    for w in sampler.windows() {
        let mut track = |name: &str, series: &[Arg<'_>]| {
            out.counter(name, PID_TELEMETRY, Some(0), w.end_cycle, series)
        };
        track(
            "delivered/window",
            &[
                Arg::Num("regular", w.stats.delivered_regular),
                Arg::Num("fastpass", w.stats.delivered_fastpass),
            ],
        )?;
        track(
            "in_flight",
            &[
                Arg::Num("network", w.in_flight_total()),
                Arg::Num("overlay", w.overlay_packets),
            ],
        )?;
        track("occupied_vcs", &[Arg::Num("vcs", w.occupied_vcs)])?;
        track(
            "ni_queues",
            &[
                Arg::Num("source", w.ni_source),
                Arg::Num("inj", w.ni_inj),
                Arg::Num("ej", w.ni_ej),
            ],
        )?;
        if w.trace.total_stalls() > 0 {
            track("stalls/window", &stall_series(w))?;
        }
        if w.trace.link_flits_regular + w.trace.link_flits_bypass > 0 {
            track(
                "link_flits/window",
                &[
                    Arg::Num("regular", w.trace.link_flits_regular),
                    Arg::Num("bypass", w.trace.link_flits_bypass),
                ],
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::SamplerConfig;

    /// Builds a sampler with real recorded windows by running a short
    /// simulation (the sampler's fields are crate-private to noc-sim, so
    /// fixtures are made the honest way).
    fn sampled_run(rate: f64, trace: bool) -> noc_sim::Simulation {
        use crate::runner::make_sim;
        let mut sim = make_sim(
            crate::SchemeId::FastPass,
            traffic::SyntheticPattern::Uniform,
            rate,
            4,
            2,
            5,
        );
        if trace {
            sim.set_trace(&noc_trace::TraceConfig::counters());
        }
        sim.set_sampler(&SamplerConfig {
            sample_every: 100,
            max_windows: 64,
        });
        sim.run(1_000);
        sim.finish_sampling();
        sim
    }

    #[test]
    fn sparkline_scales_and_handles_edges() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let line = sparkline(&[1.0, 4.0, 8.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
        assert_eq!(sparkline(&[f64::NAN, 1.0]).chars().next(), Some('▁'));
    }

    /// The value at `path` in a parsed document.
    fn at<'a>(doc: &'a Content, path: &[&str]) -> &'a Content {
        path.iter().fold(doc, |c, key| {
            serde::field(c.as_map().expect("an object"), key)
                .unwrap_or_else(|_| panic!("no `{key}` in {path:?}"))
        })
    }

    fn u64_at(doc: &Content, path: &[&str]) -> u64 {
        at(doc, path)
            .as_u64()
            .unwrap_or_else(|| panic!("{path:?} is not a count"))
    }

    #[test]
    fn windows_json_reconciles_with_the_run() {
        // Armed at cycle 0, the sampler's span is the whole run, so the
        // run's own totals are the deltas the windows must add up to.
        let sim = sampled_run(0.3, true);
        let sampler = sim.sampler().expect("sampler installed");
        let doc: Content = serde_json::from_str(&windows_json(sampler)).expect("valid JSON");
        let causes: Vec<&str> = at(&doc, &["stall_causes"])
            .as_seq()
            .expect("an array")
            .iter()
            .filter_map(Content::as_str)
            .collect();
        let labels: Vec<&str> = StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(causes, labels, "labels in counter-array order");

        let windows = at(&doc, &["windows"]).as_seq().expect("an array");
        assert_eq!(windows.len(), 10, "1000 cycles / 100");
        let sum = |path: &[&str]| windows.iter().map(|w| u64_at(w, path)).sum::<u64>();
        let stats = sim.core.stats.snapshot();
        assert_eq!(
            sum(&["stats", "delivered_regular"]),
            stats.delivered_regular
        );
        assert_eq!(
            sum(&["stats", "delivered_fastpass"]),
            stats.delivered_fastpass
        );
        assert_eq!(sum(&["stats", "latency_count"]), stats.latency_count);
        assert!(stats.delivered() > 0, "reconciliation must not be vacuous");

        let totals = sim.tracer().totals();
        for (i, cause) in causes.iter().enumerate() {
            let in_windows: u64 = windows
                .iter()
                .map(|w| {
                    at(w, &["trace", "stalls"]).as_seq().expect("an array")[i]
                        .as_u64()
                        .expect("a count")
                })
                .sum();
            assert_eq!(in_windows, totals.stalls[i], "{cause}");
        }
        assert!(totals.total_stalls() > 0, "high load must stall somewhere");
    }

    #[test]
    fn series_summary_prints_sparklines() {
        let sim = sampled_run(0.1, false);
        let text = series_summary(sim.sampler().expect("sampler"));
        assert!(text.contains("delivered"), "{text}");
        assert!(text.contains("in_flight"), "{text}");
        assert!(text.contains('▁') || text.contains('█'), "{text}");
    }

    fn track_names(sim: &noc_sim::Simulation) -> Vec<String> {
        let mut out = ChromeWriter::compact(Vec::new());
        write_counter_tracks(sim.sampler().expect("sampler"), &mut out).expect("in-memory write");
        let json = out.finish().expect("in-memory write");
        let mut names = Vec::new();
        noc_trace::chrome::validate(&json[..], |h| {
            names.push(h.name);
            Ok(())
        })
        .expect("counter tracks validate");
        names
    }

    #[test]
    fn counter_events_only_emit_traced_tracks_when_live() {
        let untraced = sampled_run(0.1, false);
        let names = track_names(&untraced);
        assert!(names.iter().any(|n| n == "delivered/window"));
        assert!(
            !names.iter().any(|n| n == "stalls/window"),
            "stall counters need tracing counters on"
        );
        let traced = sampled_run(0.3, true);
        let names = track_names(&traced);
        assert!(
            names.iter().any(|n| n == "stalls/window"),
            "high load with counters must stall somewhere: {names:?}"
        );
    }
}
