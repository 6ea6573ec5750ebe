//! One engine op: build a simulation for a [`Point`], run it, reduce and
//! check its statistics. The untraced path is exactly what the figure
//! binaries do (`make_sim` + `run_windows`, or `Simulation::run` to
//! completion); the traced path runs the same steps with a span around
//! each call into a layer.

use crate::inputs::Point;
use crate::span::Spans;
use bench::runner::{latency_point, make_sim};
use bench::{LatencyPoint, PhaseTimes, SchemeId, WallProbe};
use noc_core::stats::NetStats;
use noc_sim::{SamplerConfig, Simulation};
use noc_trace::{NetworkTotals, TraceConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use traffic::{ProtocolWorkload, SyntheticWorkload};

/// FNV-1a 64 over bytes, continuing from `h`.
pub fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV offset basis: the digest of nothing.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// What one finished point looked like.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV digest of the `NetStats` JSON: equal digests, equal stats.
    pub digest: u64,
    /// The stored reduction (what sweeps, the store and the daemon carry).
    pub point: LatencyPoint,
    /// Simulated cycles actually stepped (warmup + measure, or to finish).
    pub cycles: u64,
    /// The full measured statistics.
    pub stats: NetStats,
}

/// Builds the simulation for a point, as the figure binaries do.
pub fn build(p: &Point) -> Simulation {
    match p {
        Point::Synthetic { spec, rate } => make_sim(
            spec.id,
            spec.pattern,
            *rate,
            spec.size,
            spec.fp_vcs,
            spec.seed,
        ),
        Point::Protocol { id, .. } => {
            let cfg = id.sim_config(p.size(), p.fp_vcs(), p.seed());
            let scheme = id.build(&cfg, p.seed());
            let workload = protocol_workload(p);
            Simulation::new(cfg, scheme, Box::new(workload))
        }
    }
}

fn protocol_workload(p: &Point) -> ProtocolWorkload {
    let Point::Protocol {
        app, quota, seed, ..
    } = p
    else {
        unreachable!("protocol_workload is only called for protocol points");
    };
    let mut cfg = app.protocol_config();
    cfg.quota = Some(*quota);
    cfg.seed ^= seed << 16;
    ProtocolWorkload::new(p.nodes() as usize, cfg)
}

/// `(warmup, measure)` cycles of a point; a protocol point has no warmup
/// and its measure window is the cycle cap.
pub fn windows(p: &Point) -> (u64, u64) {
    match p {
        Point::Synthetic { spec, .. } => (spec.warmup, spec.measure),
        Point::Protocol { max_cycles, .. } => (0, *max_cycles),
    }
}

/// Runs a built simulation through the point's windows; returns the
/// measured statistics and the cycles stepped.
pub fn run(p: &Point, sim: &mut Simulation) -> (NetStats, u64) {
    match p {
        Point::Synthetic { spec, .. } => {
            let stats = sim.run_windows(spec.warmup, spec.measure);
            (stats, spec.warmup + spec.measure)
        }
        Point::Protocol { max_cycles, .. } => {
            let ran = sim.run(*max_cycles);
            (sim.core.stats.clone(), ran)
        }
    }
}

/// Reduces finished statistics to an [`Outcome`] (untimed: the JSON
/// digest costs about as much as a short zero-load point).
pub fn outcome(p: &Point, stats: NetStats, cycles: u64) -> Outcome {
    let json = serde_json::to_string(&stats).expect("NetStats serializes");
    let rate = match p {
        Point::Synthetic { rate, .. } => *rate,
        Point::Protocol { .. } => 0.0,
    };
    Outcome {
        digest: fnv1a64(FNV_BASIS, json.as_bytes()),
        point: latency_point(rate, &stats),
        cycles,
        stats,
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Per-point sanity checks on finished statistics: something was
/// delivered, accepted load does not exceed offered load, statistics are
/// finite below 0.10 load, a protocol point finishes within its cycle
/// cap, and latency is at least the mean hop count.
///
/// # Errors
///
/// The first failed check, as a message naming the point.
pub fn check(p: &Point, o: &Outcome) -> Result<(), String> {
    let fail = |what: String| Err(format!("{}: {what}", p.label()));
    let s = &o.stats;
    if s.delivered() == 0 {
        return fail("delivered nothing".into());
    }
    match p {
        Point::Synthetic { rate, .. } => {
            // Open loop: what is delivered from this window was generated
            // in it, so accepted load cannot exceed offered load.
            if s.delivered_in_window() > s.generated {
                return fail(format!(
                    "accepted {} > offered {}",
                    s.delivered_in_window(),
                    s.generated
                ));
            }
            if *rate < 0.10 && !(o.point.avg_latency.is_finite() && o.point.throughput.is_finite())
            {
                return fail("non-finite statistics below 0.10 load".into());
            }
        }
        Point::Protocol { max_cycles, .. } => {
            if o.cycles >= *max_cycles {
                return fail(format!("did not finish within {max_cycles} cycles"));
            }
        }
    }
    // A packet needs at least one cycle per hop.
    if let Some(hops) = s.hops.mean() {
        if o.point.avg_latency.is_finite() && o.point.avg_latency < hops {
            return fail(format!(
                "latency {} below mean hop count {hops}",
                o.point.avg_latency
            ));
        }
    }
    Ok(())
}

/// Whether a point collapsed: it accepts less than a quarter of what is
/// offered. A property of the modelled scheme, not a failure.
pub fn collapsed(p: &Point, o: &Outcome) -> bool {
    matches!(p, Point::Synthetic { rate, .. } if o.point.throughput < rate / 4.0)
}

/// What a traced point is observed with, on top of its spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// Spans only.
    Spans,
    /// `TraceLevel::Counters`.
    Counters,
    /// `TraceLevel::Full`.
    Full,
    /// The windowed sampler at its default period.
    Sampler,
    /// Counters plus the wall-clock phase probe: the fully traced pass.
    Probed,
}

/// A traced point: its outcome plus what the spans and counters saw.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The point's outcome (bitwise equal to the untraced one).
    pub outcome: Outcome,
    /// Host ns building the simulation (config, scheme, workload, core).
    pub construct_ns: u64,
    /// Host ns of that spent in `SchemeId::build`.
    pub scheme_build_ns: u64,
    /// Host ns in `run(warmup)`.
    pub warmup_ns: u64,
    /// Host ns in `run(measure)`.
    pub measure_ns: u64,
    /// Cycles stepped in warmup.
    pub warmup_cycles: u64,
    /// Tracer counters over the measure window (zeros unless counters on).
    pub totals: NetworkTotals,
}

/// Builds and runs a point with a span around each call into a layer:
/// `noc-sim.engine.construct` (with `scheme.build` inside), then
/// `noc-sim.engine.warmup` and `noc-sim.engine.measure`, which is
/// `run_windows` by construction.
pub fn run_traced(
    p: &Point,
    op: u64,
    observe: Observe,
    spans: &mut Spans,
    phases: &Arc<Mutex<PhaseTimes>>,
) -> Traced {
    spans.enter("noc-sim.engine.construct", op);
    let id = p.scheme();
    let cfg = id.sim_config(p.size(), p.fp_vcs(), p.seed());
    let (scheme, scheme_build_ns) = spans.scope(scheme_span(id), op, || id.build(&cfg, p.seed()));
    let workload: Box<dyn noc_sim::Workload> = match p {
        // `make_sim`'s workload seed, spelled out so the scheme build can
        // have a span of its own; every lane is compared bit for bit with
        // the `make_sim` reference, so drift cannot go unnoticed.
        Point::Synthetic { spec, rate } => Box::new(SyntheticWorkload::new(
            spec.pattern,
            *rate,
            spec.seed ^ 0x17A_FF1C,
        )),
        Point::Protocol { .. } => Box::new(protocol_workload(p)),
    };
    let mut sim = Simulation::new(cfg, scheme, workload);
    let construct_ns = spans.exit();
    match observe {
        Observe::Spans => {}
        Observe::Counters => sim.set_trace(&TraceConfig::counters()),
        Observe::Full => sim.set_trace(&TraceConfig::full()),
        Observe::Sampler => sim.set_sampler(&SamplerConfig::default()),
        Observe::Probed => {
            sim.set_trace(&TraceConfig::counters());
            sim.set_probe(Box::new(WallProbe::sharing(phases)));
        }
    }
    let (warmup, measure) = windows(p);
    let (warmup_cycles, warmup_ns) = spans.scope("noc-sim.engine.warmup", op, || sim.run(warmup));
    if matches!(p, Point::Synthetic { .. }) {
        sim.reset_stats();
    }
    let at_reset = sim.tracer().totals();
    let (ran, measure_ns) = spans.scope("noc-sim.engine.measure", op, || sim.run(measure));
    let totals = sim.tracer().totals().delta_since(&at_reset);
    let cycles = match p {
        Point::Synthetic { .. } => warmup + measure,
        Point::Protocol { .. } => ran,
    };
    Traced {
        outcome: outcome(p, sim.core.stats.clone(), cycles),
        construct_ns,
        scheme_build_ns,
        warmup_ns,
        measure_ns,
        warmup_cycles,
        totals,
    }
}

/// Span name of a scheme's constructor.
fn scheme_span(id: SchemeId) -> &'static str {
    match id {
        SchemeId::FastPass => "fastpass.scheme.build",
        _ => "baselines.scheme.build",
    }
}

/// Per-layer metric prefix of a scheme (`None` for the VCT substrate
/// baseline, which no workload runs).
pub fn scheme_layer(id: SchemeId) -> Option<&'static str> {
    Some(match id {
        SchemeId::EscapeVc => "baselines.escape_vc",
        SchemeId::Spin => "baselines.spin",
        SchemeId::Swap => "baselines.swap",
        SchemeId::Drain => "baselines.drain",
        SchemeId::Pitstop => "baselines.pitstop",
        SchemeId::MinBd => "baselines.minbd",
        SchemeId::Tfc => "baselines.tfc",
        SchemeId::FastPass => "fastpass.scheme",
        SchemeId::Vct => return None,
    })
}
