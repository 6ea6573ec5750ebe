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
//! * [`counter_events`] / [`merge_counter_tracks`] — Chrome
//!   `trace_event` counter (phase `C`) events merged into the Perfetto
//!   files, so time-series metrics render as counter tracks above the
//!   per-router flit tracks.

use noc_sim::{Sampler, WindowSample};
use noc_trace::chrome::{counter, meta, num, Arg};
use noc_trace::StallCause;
use serde::Content;

/// Process id used for telemetry counter tracks in Chrome traces
/// (routers are pid 0, FastPass lanes pid 1 — see `noc_trace::chrome`).
pub const PID_TELEMETRY: u64 = 2;

/// One `(label, count)` series entry per stall cause.
fn stall_series(w: &WindowSample) -> Vec<Arg> {
    StallCause::ALL
        .iter()
        .map(|&c| num(c.label(), w.stalls[c.index()]))
        .collect()
}

/// One window as an ordered JSON object.
fn window_content(w: &WindowSample) -> Content {
    Content::Map(vec![
        num("start_cycle", w.start_cycle),
        num("end_cycle", w.end_cycle),
        num("delivered", w.delivered),
        num("delivered_fastpass", w.delivered_fastpass),
        num("flits_delivered", w.flits_delivered),
        num("generated", w.generated),
        num("dropped", w.dropped),
        num("rejections", w.rejections),
        num("deflections", w.deflections),
        num("latency_count", w.latency_count),
        num("latency_sum", w.latency_sum),
        (
            "mean_latency".to_string(),
            match w.mean_latency() {
                Some(m) => Content::F64(m),
                None => Content::Null,
            },
        ),
        (
            "in_flight".to_string(),
            Content::Seq(
                w.in_flight
                    .iter()
                    .map(|&v| Content::U128(v.into()))
                    .collect(),
            ),
        ),
        num("overlay_packets", w.overlay_packets),
        num("occupied_vcs", w.occupied_vcs),
        num("ni_source", w.ni_source),
        num("ni_inj", w.ni_inj),
        num("ni_ej", w.ni_ej),
        num("ni_regen", w.ni_regen),
        ("stalls".to_string(), Content::Map(stall_series(w))),
        num("link_flits_regular", w.link_flits_regular),
        num("link_flits_bypass", w.link_flits_bypass),
        num("bypass_launches", w.bypass_launches),
        num("occupancy_integral", w.occupancy_integral),
    ])
}

/// Serializes a sampler's full series as a pretty-printed JSON document:
/// `{"sample_every", "dropped_windows", "windows": [...]}`.
pub fn windows_json(sampler: &Sampler) -> String {
    let doc = Content::Map(vec![
        num("sample_every", sampler.config().sample_every),
        num("dropped_windows", sampler.dropped_windows()),
        (
            "windows".to_string(),
            Content::Seq(sampler.windows().iter().map(window_content).collect()),
        ),
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
    let delivered: Vec<f64> = ws.iter().map(|w| w.delivered as f64).collect();
    let total_delivered: u64 = ws.iter().map(|w| w.delivered).sum();
    out.push_str(&line(
        "delivered",
        delivered,
        format!("total {total_delivered}"),
    ));
    let latency: Vec<f64> = ws.iter().map(|w| w.mean_latency().unwrap_or(0.0)).collect();
    let last_lat = ws
        .iter()
        .rev()
        .find_map(|w| w.mean_latency())
        .unwrap_or(0.0);
    out.push_str(&line("latency", latency, format!("last {last_lat:.1} cyc")));
    let in_flight: Vec<f64> = ws.iter().map(|w| w.in_flight_total() as f64).collect();
    let max_in_flight = ws.iter().map(|w| w.in_flight_total()).max().unwrap_or(0);
    out.push_str(&line(
        "in_flight",
        in_flight,
        format!("peak {max_in_flight}"),
    ));
    let total_stalls: u64 = ws.iter().map(|w| w.total_stalls()).sum();
    if total_stalls > 0 {
        let stalls: Vec<f64> = ws.iter().map(|w| w.total_stalls() as f64).collect();
        out.push_str(&line("stalls", stalls, format!("total {total_stalls}")));
    }
    out
}

/// Chrome `trace_event` counter events (phase `C`) for the series, one
/// counter sample per window per track, under [`PID_TELEMETRY`].
pub fn counter_events(sampler: &Sampler) -> Vec<Content> {
    let mut out = Vec::new();
    if sampler.windows().is_empty() {
        return out;
    }
    out.push(meta(
        "process_name",
        PID_TELEMETRY,
        None,
        "telemetry (windowed)",
    ));
    let track =
        |name: &str, ts: u64, series: Vec<Arg>| counter(name, PID_TELEMETRY, Some(0), ts, series);
    for w in sampler.windows() {
        let ts = w.end_cycle;
        out.push(track(
            "delivered/window",
            ts,
            vec![
                num("regular", w.delivered - w.delivered_fastpass),
                num("fastpass", w.delivered_fastpass),
            ],
        ));
        out.push(track(
            "in_flight",
            ts,
            vec![
                num("network", w.in_flight_total()),
                num("overlay", w.overlay_packets),
            ],
        ));
        out.push(track("occupied_vcs", ts, vec![num("vcs", w.occupied_vcs)]));
        out.push(track(
            "ni_queues",
            ts,
            vec![
                num("source", w.ni_source),
                num("inj", w.ni_inj),
                num("ej", w.ni_ej),
            ],
        ));
        if w.total_stalls() > 0 {
            out.push(track("stalls/window", ts, stall_series(w)));
        }
        if w.link_flits_regular + w.link_flits_bypass > 0 {
            out.push(track(
                "link_flits/window",
                ts,
                vec![
                    num("regular", w.link_flits_regular),
                    num("bypass", w.link_flits_bypass),
                ],
            ));
        }
    }
    out
}

/// Merges the sampler's counter tracks into an existing Chrome trace
/// JSON document (a top-level event array, as produced by
/// `noc_trace::chrome_trace_json`). Returns the merged document.
///
/// # Errors
///
/// Returns a message if `chrome_json` is not a top-level JSON array.
pub fn merge_counter_tracks(chrome_json: &str, sampler: &Sampler) -> Result<String, String> {
    let doc: Content =
        serde_json::from_str(chrome_json).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let Content::Seq(mut events) = doc else {
        return Err("top level must be a JSON array of trace events".to_string());
    };
    events.extend(counter_events(sampler));
    serde_json::to_string_pretty(&Content::Seq(events)).map_err(|e| format!("serialize: {e:?}"))
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

    #[test]
    fn windows_json_is_valid_and_complete() {
        let sim = sampled_run(0.1, false);
        let sampler = sim.sampler().expect("sampler installed");
        let json = windows_json(sampler);
        let doc: Content = serde_json::from_str(&json).expect("valid JSON");
        let map = doc.as_map().expect("object");
        let windows = serde::field(map, "windows")
            .expect("windows field")
            .as_seq()
            .expect("array")
            .len();
        assert_eq!(windows, sampler.windows().len());
        assert!(windows == 10, "1000 cycles / 100 = {windows} windows");
        assert!(json.contains("\"mean_latency\""));
        assert!(json.contains("\"occupied_vcs\""));
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
        counter_events(sim.sampler().expect("sampler"))
            .iter()
            .filter_map(|e| serde::field(e.as_map()?, "name").ok()?.as_str())
            .map(str::to_string)
            .collect()
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

    #[test]
    fn merge_appends_counters_to_a_chrome_trace() {
        let sim = sampled_run(0.1, false);
        let sampler = sim.sampler().expect("sampler");
        let base = r#"[{"name":"link","ph":"X","pid":0,"tid":0,"ts":1,"dur":1}]"#;
        let merged = merge_counter_tracks(base, sampler).expect("merges");
        assert!(merged.contains("\"ph\": \"C\""), "{merged}");
        assert!(merged.contains("delivered/window"));
        assert!(merge_counter_tracks("{}", sampler).is_err());
    }
}
