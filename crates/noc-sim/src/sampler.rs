//! Windowed telemetry: time-resolved deltas of [`NetStats`] plus
//! live-state gauges, sampled every `sample_every` cycles.
//!
//! End-of-run [`NetStats`] are steady-state aggregates; FastPass is a
//! dynamic mechanism, so congestion onset, lane utilization ramps and
//! queue growth near saturation are invisible in them. The [`Sampler`]
//! closes that gap: every `sample_every` cycles it appends one
//! [`WindowSample`] — the window's exact contribution to every additive
//! counter (two deltas: a [`StatsSnapshot`] and the tracer's
//! [`RouterMetrics`] total) plus instantaneous gauges of live state —
//! into a pre-allocated fixed-capacity series.
//!
//! Contract (mirrors the tracer's, enforced by `tests/golden.rs` and
//! `noc-lint`):
//!
//! - **Observation only.** The sampler reads the core; it never mutates
//!   it. A sampled run produces bitwise identical `NetStats` to an
//!   unsampled one.
//! - **No allocation after arm.** The series is allocated once at
//!   install; the per-window path ([`Sampler::record_window`], under the
//!   `hot-loop-alloc` lint) only reads, subtracts and pushes into
//!   reserved capacity. When the series fills, further windows are
//!   counted in [`Sampler::dropped_windows`] and discarded — saturate,
//!   never grow.
//! - **Outside the cache key.** [`SamplerConfig`] lives beside
//!   `TraceConfig`, *not* in `SimConfig`: enabling sampling must not
//!   change sweep-cache keys, because it does not change results.
//!
//! Stall-cause counts, link utilization and the VC-occupancy integral
//! are the tracer's per-router counters, summed, rather than recounted:
//! [`WindowSample::trace`] is non-zero only when tracing is at counters
//! level or above. The occupancy *gauge* ([`WindowSample::occupied_vcs`])
//! is sampled directly and works with tracing off.

use crate::network::NetworkCore;
use noc_core::packet::{CLASSES, NUM_CLASSES};
use noc_core::stats::StatsSnapshot;
use noc_trace::RouterMetrics;
use serde::Serialize;

/// Sampling configuration. Deliberately *not* part of
/// [`SimConfig`](noc_core::config::SimConfig) — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Window length in cycles. Each recorded window covers exactly this
    /// many cycles (the final, flushed window may be shorter).
    pub sample_every: u64,
    /// Series capacity in windows, allocated up front. Once full, new
    /// windows are dropped (and counted), never reallocated.
    pub max_windows: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            sample_every: 256,
            max_windows: 4096,
        }
    }
}

/// One sampling window: counter deltas over `(start_cycle, end_cycle]`
/// plus gauges read at `end_cycle`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct WindowSample {
    /// Cycle the window opened at (exclusive).
    pub start_cycle: u64,
    /// Cycle the window closed at (inclusive).
    pub end_cycle: u64,
    /// The window's network statistics: deliveries, generation, drops,
    /// rejections, deflections, latency and hop sums and counts.
    pub stats: StatsSnapshot,
    /// The window's tracer counters, summed over routers: stall causes,
    /// link flits, launches, the occupancy integral (all zero unless
    /// tracing counters are on).
    pub trace: RouterMetrics,
    /// Gauge: live packets anywhere in the system, per class.
    pub in_flight: [u64; NUM_CLASSES],
    /// Gauge: packets held by the scheme's overlay (FastPass flights).
    pub overlay_packets: u64,
    /// Gauge: occupied router VCs, summed over routers.
    pub occupied_vcs: u64,
    /// Gauge: NI source-queue packets, summed over nodes.
    pub ni_source: u64,
    /// Gauge: NI injection-queue packets, summed over nodes and classes.
    pub ni_inj: u64,
    /// Gauge: NI ejection-queue packets, summed over nodes and classes.
    pub ni_ej: u64,
    /// Gauge: packets awaiting drop-regeneration, summed over nodes.
    pub ni_regen: u64,
}

impl WindowSample {
    /// Total live packets across classes (gauge).
    pub fn in_flight_total(&self) -> u64 {
        self.in_flight.iter().sum()
    }
}

/// The windowed sampler. Install via
/// [`Simulation::set_sampler`](crate::Simulation::set_sampler); read the
/// series back with [`windows`](Self::windows) after
/// [`Simulation::finish_sampling`](crate::Simulation::finish_sampling).
#[derive(Debug, Clone)]
pub struct Sampler {
    cfg: SamplerConfig,
    windows: Vec<WindowSample>,
    dropped_windows: u64,
    last_stats: StatsSnapshot,
    last_trace: RouterMetrics,
    window_open_cycle: u64,
}

impl Sampler {
    /// Creates a sampler with its full series pre-allocated.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` or `max_windows` is zero — a zero-length
    /// window would record forever at cycle granularity and a zero-entry
    /// series drops everything silently; both are configuration errors.
    pub fn new(cfg: &SamplerConfig) -> Self {
        assert!(cfg.sample_every > 0, "sample_every must be >= 1");
        assert!(cfg.max_windows > 0, "max_windows must be >= 1");
        Sampler {
            cfg: *cfg,
            windows: Vec::with_capacity(cfg.max_windows),
            dropped_windows: 0,
            last_stats: StatsSnapshot::default(),
            last_trace: RouterMetrics::default(),
            window_open_cycle: 0,
        }
    }

    /// The installed configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// Recorded windows, in time order.
    pub fn windows(&self) -> &[WindowSample] {
        &self.windows
    }

    /// Windows discarded because the series was full.
    pub fn dropped_windows(&self) -> u64 {
        self.dropped_windows
    }

    /// Cycle at which the first due window closes.
    pub(crate) fn next_due(&self) -> u64 {
        self.window_open_cycle + self.cfg.sample_every
    }

    /// Re-bases the delta baselines on the core's *current* counters and
    /// clears the series. Called at install and at every statistics
    /// reset, so the series always reconciles with the stats window it
    /// was recorded in (warmup windows never leak into measurement
    /// sums).
    pub(crate) fn resync(&mut self, core: &NetworkCore) {
        self.last_stats = core.stats.snapshot();
        self.last_trace = core.trace.totals();
        self.window_open_cycle = core.cycle();
        self.windows.clear();
        self.dropped_windows = 0;
    }

    /// Closes the current window at the core's current cycle. Hot-scope
    /// discipline (`noc-lint` `hot-loop-alloc`): reads, subtracts, and
    /// pushes into reserved capacity only.
    pub(crate) fn record_window(&mut self, core: &NetworkCore, overlay_packets: u64) {
        let now = core.cycle();
        let stats = core.stats.snapshot();
        let trace = core.trace.totals();
        let mut w = WindowSample {
            start_cycle: self.window_open_cycle,
            end_cycle: now,
            stats: stats.delta_since(&self.last_stats),
            trace: trace.delta_since(&self.last_trace),
            overlay_packets,
            ..WindowSample::default()
        };
        for pkt in core.store.iter() {
            w.in_flight[pkt.class.index()] += 1;
        }
        for n in core.mesh().nodes() {
            w.occupied_vcs += core.occupied_vcs(n) as u64;
            let ni = core.ni(n);
            w.ni_source += ni.source_depth() as u64;
            w.ni_regen += ni.regen_pending() as u64;
            for c in CLASSES {
                w.in_flight[c.index()] += ni.pending(c) as u64;
                w.ni_inj += ni.inj_len(c) as u64;
                w.ni_ej += ni.ej_len(c) as u64;
            }
        }
        self.last_stats = stats;
        self.last_trace = trace;
        self.window_open_cycle = now;
        if self.windows.len() < self.cfg.max_windows {
            self.windows.push(w);
        } else {
            self.dropped_windows += 1;
        }
    }

    /// Flushes the final, possibly short window (no-op if the current
    /// window is empty). Without this, counts accrued since the last
    /// window boundary would be missing from the series and window sums
    /// would not reconcile with end-of-run totals.
    pub(crate) fn flush(&mut self, core: &NetworkCore, overlay_packets: u64) {
        if core.cycle() > self.window_open_cycle {
            self.record_window(core, overlay_packets);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let cfg = SamplerConfig::default();
        assert!(cfg.sample_every > 0);
        assert!(cfg.max_windows > 0);
    }

    #[test]
    #[should_panic(expected = "sample_every")]
    fn zero_window_rejected() {
        let _ = Sampler::new(&SamplerConfig {
            sample_every: 0,
            max_windows: 8,
        });
    }

    #[test]
    #[should_panic(expected = "max_windows")]
    fn zero_capacity_rejected() {
        let _ = Sampler::new(&SamplerConfig {
            sample_every: 8,
            max_windows: 0,
        });
    }

    #[test]
    fn in_flight_total_sums_classes() {
        let w = WindowSample {
            in_flight: [1, 0, 2, 0, 0, 0],
            ..WindowSample::default()
        };
        assert_eq!(w.in_flight_total(), 3);
        assert_eq!(WindowSample::default().in_flight_total(), 0);
    }
}
