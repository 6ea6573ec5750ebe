//! The engine lanes of the traced run: a workload's points run serially,
//! one lane per way of observing them.
//!
//! * `spans`: spans only: engine, per-scheme and serial-baseline rows;
//! * `probed`: spans + phase probe + counters (the fully traced pass):
//!   phase rows, simulated counters, `benchmark.trace_overhead_pct`;
//! * `counters`, `full`, `sampler`: one observer each, for its overhead;
//! * `batched`: the same points through `run_windows_batched` in claims
//!   of four, as the daemon's workers run them.
//!
//! The last four lanes run on the `engine_*` workloads only. A point
//! goes through all lanes back to back, so the lanes see the same
//! machine state, and every host time is the point's fastest over the
//! rounds (see `common::Timed` for why).

use crate::catalogue::per_layer_name;
use crate::common::{overhead_pct, ratio, same_point};
use crate::engine::{self, Observe, Traced};
use crate::inputs::Point;
use crate::report::Report;
use crate::span::Spans;
use bench::{LatencyPoint, PhaseTimes, SchemeId};
use noc_sim::{run_windows_batched, Phase, Simulation};
use noc_trace::StallCause;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a lane's point must reproduce.
pub struct Want {
    /// The stored reduction.
    pub point: LatencyPoint,
    /// `NetStats` digest, where the reference kept full statistics.
    pub digest: Option<u64>,
}

impl Want {
    fn matches(&self, o: &engine::Outcome) -> bool {
        match self.digest {
            Some(d) => o.digest == d,
            None => same_point(&o.point, &self.point),
        }
    }
}

/// The serial lanes, in the order a point goes through them.
const SERIAL: [(Observe, &str); 5] = [
    (Observe::Spans, "spans"),
    (Observe::Probed, "probed"),
    (Observe::Counters, "counters"),
    (Observe::Full, "full"),
    (Observe::Sampler, "sampler"),
];

/// The fastest host times of one point in the `spans` lane, ns.
#[derive(Clone, Copy)]
struct Best {
    construct: u64,
    scheme_build: u64,
    warmup: u64,
    measure: u64,
}

/// Everything the engine lanes accumulate.
pub struct Lanes {
    /// Rounds run.
    pub rounds: u64,
    /// Per serial lane, each point's fastest wall (construct + run), ns.
    wall: [Vec<u64>; SERIAL.len()],
    /// Each claim's fastest batched wall, ns.
    batched: Vec<u64>,
    batched_cycles: u64,
    best: Vec<Best>,
    /// Cycles stepped under the probe, all rounds.
    probed_cycles: u64,
    /// The probed lane's outcomes of the latest round.
    last: Vec<Traced>,
    /// One message per point that differed from its reference.
    pub failures: Vec<String>,
}

impl Lanes {
    /// The quiet-state wall of the `spans` lane over all points, ns:
    /// what the points cost serially with nothing observing them.
    pub fn serial_ns(&self) -> f64 {
        self.wall[0].iter().sum::<u64>() as f64
    }

    /// Point `i`'s share of that wall, ns.
    pub fn serial_ns_of(&self, i: usize) -> f64 {
        self.wall[0][i] as f64
    }
}

/// Runs the engine lanes over `points` for about `budget_s` seconds (at
/// least one round).
pub fn run(
    points: &[Point],
    wants: &[Want],
    all_lanes: bool,
    budget_s: f64,
    spans: &mut Spans,
    phases: &Arc<Mutex<PhaseTimes>>,
) -> Lanes {
    let n = points.len();
    let mut l = Lanes {
        rounds: 0,
        wall: std::array::from_fn(|_| vec![u64::MAX; n]),
        batched: vec![u64::MAX; n.div_ceil(4)],
        batched_cycles: 0,
        best: vec![
            Best {
                construct: u64::MAX,
                scheme_build: u64::MAX,
                warmup: u64::MAX,
                measure: u64::MAX,
            };
            n
        ],
        probed_cycles: 0,
        last: Vec::new(),
        failures: Vec::new(),
    };
    let lanes = if all_lanes { SERIAL.len() } else { 2 };
    let begun = Instant::now();
    spans.enter("benchmark.engine_lanes", 0);
    loop {
        let mut probed = Vec::with_capacity(n);
        for (i, (p, want)) in points.iter().zip(wants).enumerate() {
            for (lane, &(observe, name)) in SERIAL.iter().enumerate().take(lanes) {
                match engine::guarded(|| engine::run_traced(p, i as u64, observe, spans, phases)) {
                    Ok(t) => {
                        let wall = t.construct_ns + t.warmup_ns + t.measure_ns;
                        l.wall[lane][i] = l.wall[lane][i].min(wall);
                        if !want.matches(&t.outcome) {
                            l.failures.push(format!(
                                "{}: {name} lane differs from the reference",
                                p.label()
                            ));
                        }
                        match observe {
                            Observe::Spans => {
                                let b = &mut l.best[i];
                                b.construct = b.construct.min(t.construct_ns);
                                b.scheme_build = b.scheme_build.min(t.scheme_build_ns);
                                b.warmup = b.warmup.min(t.warmup_ns);
                                b.measure = b.measure.min(t.measure_ns);
                            }
                            Observe::Probed => {
                                l.probed_cycles += t.outcome.cycles;
                                probed.push(t);
                            }
                            _ => {}
                        }
                    }
                    Err(e) => l.failures.push(format!("{}: {name} lane: {e}", p.label())),
                }
            }
            if all_lanes && (i % 4 == 3 || i + 1 == n) {
                let claim = i / 4;
                let from = claim * 4;
                let (ns, cycles) = batched_claim(
                    &points[from..=i],
                    &wants[from..=i],
                    claim as u64,
                    spans,
                    &mut l.failures,
                );
                l.batched[claim] = l.batched[claim].min(ns);
                if l.rounds == 0 {
                    l.batched_cycles += cycles;
                }
            }
        }
        if probed.len() == n {
            l.last = probed;
        }
        l.rounds += 1;
        if begun.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    spans.exit();
    l
}

/// One claim of up to four points, built and run together as the
/// daemon's workers do. Returns the wall ns and the cycles stepped.
fn batched_claim(
    points: &[Point],
    wants: &[Want],
    claim: u64,
    spans: &mut Spans,
    failures: &mut Vec<String>,
) -> (u64, u64) {
    let (warmup, measure) = engine::windows(&points[0]);
    let (got, ns) = spans.scope("noc-sim.batch.run_windows_batched", claim, || {
        engine::guarded(|| {
            let mut sims: Vec<Simulation> = points.iter().map(engine::build).collect();
            run_windows_batched(&mut sims, warmup, measure)
        })
    });
    let mut cycles = 0;
    match got {
        Ok(stats) => {
            for ((p, s), w) in points.iter().zip(stats).zip(wants) {
                // Cycles stepped: the windows, or a closed-loop point's
                // own finishing time.
                let stepped = match p {
                    Point::Synthetic { .. } => warmup + measure,
                    Point::Protocol { .. } => s.cycles,
                };
                cycles += stepped;
                if !w.matches(&engine::outcome(p, s, stepped)) {
                    failures.push(format!(
                        "{}: batched lane differs from the reference",
                        p.label()
                    ));
                }
            }
        }
        Err(e) => failures.push(format!("claim {claim}: batched lane: {e}")),
    }
    (ns, cycles)
}

/// Turns what the lanes accumulated into per-layer rows.
pub fn rows(report: &mut Report, points: &[Point], l: &Lanes, phases: &Arc<Mutex<PhaseTimes>>) {
    if l.last.len() != points.len() {
        // A point failed outright; its failure is already recorded.
        return;
    }
    let sum = |f: &dyn Fn(&Best) -> u64| l.best.iter().map(f).sum::<u64>() as f64;
    let warmup_cycles: u64 = l.last.iter().map(|t| t.warmup_cycles).sum();
    let total_cycles: u64 = l.last.iter().map(|t| t.outcome.cycles).sum();
    report.set(
        "noc-sim.engine.construct_us",
        sum(&|b| b.construct) / points.len() as f64 / 1e3,
    );
    report.set(
        "noc-sim.engine.warmup_ns_per_cycle",
        ratio(sum(&|b| b.warmup), warmup_cycles as f64),
    );
    report.set(
        "noc-sim.engine.measure_ns_per_cycle",
        ratio(sum(&|b| b.measure), (total_cycles - warmup_cycles) as f64),
    );
    for id in bench::ALL_SCHEMES {
        let (mut ns, mut cycles, mut build, mut builds) = (0u64, 0u64, 0u64, 0u64);
        for ((p, b), t) in points.iter().zip(&l.best).zip(&l.last) {
            if p.scheme() == id {
                ns += b.warmup + b.measure;
                cycles += t.outcome.cycles;
                build += b.scheme_build;
                builds += 1;
            }
        }
        if let Some(layer) = engine::scheme_layer(id) {
            report.set(
                per_layer_name(&format!("{layer}.ns_per_cycle")),
                ratio(ns as f64, cycles as f64),
            );
        }
        if id == SchemeId::FastPass {
            report.set(
                "fastpass.scheme.build_us",
                ratio(build as f64, builds as f64) / 1e3,
            );
        }
    }

    // Phase self time per simulated cycle of the probed lane, all
    // rounds. The probe costs two clock reads per bracket, so these rows
    // rank the phases; the untraced cost is `measure_ns_per_cycle`.
    let t = phases.lock().expect("probes run on this thread").clone();
    let cycles = l.probed_cycles as f64;
    for phase in Phase::ALL {
        report.set(
            per_layer_name(&format!("noc-sim.phase.{}.ns_per_cycle", phase.label())),
            ratio(t.nanos[phase.index()] as f64, cycles),
        );
    }
    report.set(
        "noc-sim.phase.unattributed.ns_per_cycle",
        ratio(t.unattributed_nanos as f64, cycles),
    );

    // Simulated counters of one probed round: exact for a seed.
    let mut stalls = [0u64; StallCause::COUNT];
    let (mut reg, mut byp, mut occ, mut launches, mut fp_cycles) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut rejections, mut deflections) = (0u64, 0u64);
    let mut collapsed: Vec<String> = Vec::new();
    let (mut measured, mut generated, mut transactions) = (0u64, 0f64, 0u64);
    let mut fp: Vec<&Traced> = Vec::new();
    for (p, t) in points.iter().zip(&l.last) {
        let s = &t.outcome.stats;
        for (acc, v) in stalls.iter_mut().zip(t.totals.stalls) {
            *acc += v;
        }
        reg += t.totals.link_flits_regular;
        byp += t.totals.link_flits_bypass;
        occ += t.totals.occupancy_integral;
        rejections += s.rejections;
        deflections += s.deflections;
        if engine::collapsed(p, &t.outcome) {
            collapsed.push(p.label());
        }
        measured += s.cycles;
        match p {
            // `generated` counts the measure window; ticks also run in
            // warmup, at the same rate.
            Point::Synthetic { .. } => {
                generated += s.generated as f64 * t.outcome.cycles as f64 / s.cycles.max(1) as f64;
            }
            Point::Protocol { quota, .. } => transactions += quota * p.nodes(),
        }
        if p.scheme() == SchemeId::FastPass {
            launches += t.totals.bypass_launches;
            fp_cycles += s.cycles;
            fp.push(t);
        }
    }
    let kcycles = measured as f64 / 1e3;
    for cause in StallCause::ALL {
        report.set(
            per_layer_name(&format!("noc-sim.model.stall.{}", cause.label())),
            ratio(stalls[cause.index()] as f64, kcycles),
        );
    }
    report.set("noc-sim.model.link_flits_regular", reg as f64);
    report.set("noc-sim.model.link_flits_bypass", byp as f64);
    report.set(
        "noc-sim.model.mean_vc_occupancy",
        ratio(occ as f64, measured as f64),
    );
    report.set("noc-sim.model.rejections", rejections as f64);
    report.set("noc-sim.model.deflections", deflections as f64);
    report.set("noc-sim.model.collapsed_points", collapsed.len() as f64);
    if !collapsed.is_empty() {
        report.notes.push(format!(
            "collapsed (accepted under a quarter of offered; counted, not failed): {}",
            collapsed.join(", ")
        ));
    }
    // Host ns of the unobserved lane per simulated link traversal: the
    // number that compares across loads.
    report.set(
        "noc-sim.engine.ns_per_link_flit",
        ratio(sum(&|b| b.measure), (reg + byp) as f64),
    );

    let rounds = l.rounds as f64;
    let tick_ns = t.nanos[Phase::WorkloadTick.index()] as f64;
    report.set(
        "traffic.synthetic.ns_per_packet",
        ratio(tick_ns, generated * rounds),
    );
    // A transaction's host cost: its requests are ticked out and its
    // replies are issued from the consumer hook.
    let txn_ns = tick_ns + t.nanos[Phase::NiConsume.index()] as f64;
    report.set(
        "traffic.protocol.ns_per_transaction",
        ratio(txn_ns, transactions as f64 * rounds),
    );

    if !fp.is_empty() {
        let sum = |f: &dyn Fn(&Traced) -> f64| fp.iter().map(|t| f(t)).sum::<f64>();
        let delivered = sum(&|t| t.outcome.stats.delivered() as f64);
        report.set(
            "fastpass.model.bypass_fraction",
            ratio(
                sum(&|t| t.outcome.stats.delivered_fastpass as f64),
                delivered,
            ),
        );
        report.set(
            "fastpass.model.dropped_fraction",
            ratio(sum(&|t| t.outcome.stats.dropped_packets as f64), delivered),
        );
        report.set(
            "fastpass.model.bypass_launches_per_kcycle",
            ratio(launches as f64, fp_cycles as f64 / 1e3),
        );
        report.set(
            "fastpass.model.bufferless_latency_cycles",
            ratio(
                sum(&|t| t.outcome.stats.fastpass_bufferless.sum() as f64),
                sum(&|t| t.outcome.stats.fastpass_bufferless.count() as f64),
            ),
        );
        let finite: Vec<f64> = fp
            .iter()
            .map(|t| t.outcome.point.avg_latency)
            .filter(|v| v.is_finite())
            .collect();
        report.set(
            "fastpass.model.latency_cycles",
            ratio(finite.iter().sum(), finite.len() as f64),
        );
        report.set(
            "fastpass.model.accepted_load",
            sum(&|t| t.outcome.point.throughput) / fp.len() as f64,
        );
    }

    let lane_ns = |lane: usize| l.wall[lane].iter().sum::<u64>() as f64;
    let spans_ns = lane_ns(0);
    report.set(
        "benchmark.trace_overhead_pct",
        overhead_pct(lane_ns(1), spans_ns),
    );
    if l.wall[2].iter().all(|&ns| ns != u64::MAX) {
        report.set(
            "noc-trace.counters.overhead_pct",
            overhead_pct(lane_ns(2), spans_ns),
        );
        report.set(
            "noc-trace.full.overhead_pct",
            overhead_pct(lane_ns(3), spans_ns),
        );
        report.set(
            "noc-sim.sampler.overhead_pct",
            overhead_pct(lane_ns(4), spans_ns),
        );
        let batched_ns = l.batched.iter().sum::<u64>() as f64;
        report.set(
            "noc-sim.batch.cycles_per_s",
            ratio(l.batched_cycles as f64, batched_ns / 1e9),
        );
        report.set(
            "noc-sim.batch.speedup_vs_serial",
            ratio(spans_ns, batched_ns),
        );
    }

    // The written-down prediction about phase shares.
    let total = (t.total_nanos() + t.unattributed_nanos).max(1) as f64;
    let share = |phases: &[Phase]| {
        100.0 * phases.iter().map(|p| t.nanos[p.index()]).sum::<u64>() as f64 / total
    };
    report.notes.push(format!(
        "phase shares of the probed lane: route_alloc+switch_alloc {:.1}%, workload_tick {:.1}%, inject+ni_consume {:.1}%, unattributed {:.1}% ({} rounds)",
        share(&[Phase::RouteAlloc, Phase::SwitchAlloc]),
        share(&[Phase::WorkloadTick]),
        share(&[Phase::Inject, Phase::NiConsume]),
        100.0 * t.unattributed_nanos as f64 / total,
        l.rounds
    ));
}
