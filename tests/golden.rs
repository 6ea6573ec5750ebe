//! The golden gate: every pinned point, declared once and checked under
//! every observer.
//!
//! Three grids of fixed-seed sweep points, each with its committed
//! fixture under `tests/golden/`:
//!
//! * 4×4 low load — FastPass + plain VCT, uniform, rates ≤ 0.08
//!   (`netstats.json`, generated before the active-set rewrite of the
//!   cycle loop);
//! * 8×8 saturated — all eight schemes × {uniform, transpose} × {zero
//!   load, past every knee}, where SPIN rotations, SWAP exchanges, DRAIN
//!   circulation, Pitstop absorption and FastPass upgrades all fire
//!   (`netstats_8x8_sat.json`, generated before event-driven allocation);
//! * 16×16 — the 4×4 grid's schemes and rates at 256 nodes
//!   (`netstats_16x16.json`).
//!
//! Each point's fully serialized
//! [`NetStats`](noc_core::stats::NetStats) JSON (every distribution's
//! value → count histogram included) is hashed with FNV-1a 64 and
//! compared, with its packet and cycle counts, against the fixture
//! record for the same `(scheme, pattern, rate)`.
//!
//! An observer — trace level, windowed sampler, phase probe — is a
//! parameter of the one runner, and every observed run must match the
//! same fixture: tracing, sampling and probing are observation, never
//! behaviour. The 4×4 grid runs plain, at every trace level and at four
//! sampling granularities; the 8×8 grid runs plain and with all three
//! observers installed at once; the 16×16 grid runs plain. An observed
//! run must also have observed something (events, windows, phase
//! entries), so the check is never vacuous. No grid point rejects a
//! FastPass flight at a full ejection queue, so one more run floods a
//! node that never consumes and holds that reject-and-return path to the
//! same rule: equal statistics under every observer.
//!
//! Regenerate (only when simulated behaviour is *intentionally*
//! changed):
//!
//! ```text
//! FP_GOLDEN_REGEN=1 cargo test --release --test golden
//! ```
//!
//! and commit the updated fixtures together with an explanation of why
//! the simulated behaviour changed.

use bench::runner::{make_sim, netstats_fnv64};
use bench::{SchemeId, ALL_SCHEMES};
use fastpass_noc::core::config::SimConfig;
use fastpass_noc::core::packet::{MessageClass, Packet};
use fastpass_noc::core::stats::NetStats;
use fastpass_noc::core::topology::NodeId;
use fastpass_noc::fastpass::{FastPass, FastPassConfig};
use fastpass_noc::sim::{NetworkCore, Phase, PhaseProbe, SamplerConfig, Simulation};
use fastpass_noc::sim::{WindowSample, Workload};
use fastpass_noc::trace::{BypassOutcome, StallCause, TraceConfig, TraceEvent, TraceLevel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use traffic::SyntheticPattern;

const FP_VCS: usize = 2;
const SEED: u64 = 5;
const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// A fixed matrix of sweep points and the fixture that pins it.
struct Grid {
    name: &'static str,
    /// File name under `tests/golden/`.
    fixture: &'static str,
    size: usize,
    schemes: &'static [SchemeId],
    patterns: &'static [SyntheticPattern],
    rates: &'static [f64],
    warmup: u64,
    measure: u64,
    /// Whether the fixture names each point's pattern: the 4×4 and
    /// 16×16 fixtures predate the key (all their points are uniform).
    names_pattern: bool,
}

const LOW_LOAD: Grid = Grid {
    name: "4x4 low-load",
    fixture: "netstats.json",
    size: 4,
    schemes: &[SchemeId::FastPass, SchemeId::Vct],
    patterns: &[SyntheticPattern::Uniform],
    rates: &[0.02, 0.05, 0.08],
    warmup: 1_000,
    measure: 3_000,
    names_pattern: false,
};

const SATURATED: Grid = Grid {
    name: "8x8 saturated",
    fixture: "netstats_8x8_sat.json",
    size: 8,
    schemes: &ALL_SCHEMES,
    patterns: &[SyntheticPattern::Uniform, SyntheticPattern::Transpose],
    rates: &[0.01, 0.14],
    warmup: 400,
    measure: 600,
    names_pattern: true,
};

const BIG_MESH: Grid = Grid {
    name: "16x16",
    fixture: "netstats_16x16.json",
    size: 16,
    schemes: &[SchemeId::FastPass, SchemeId::Vct],
    patterns: &[SyntheticPattern::Uniform],
    rates: &[0.02, 0.05, 0.08],
    warmup: 500,
    measure: 1_500,
    names_pattern: false,
};

type Point = (SchemeId, SyntheticPattern, f64);

impl Grid {
    /// Every point, in fixture order.
    fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.schemes.iter().flat_map(move |&id| {
            self.patterns
                .iter()
                .flat_map(move |&pattern| self.rates.iter().map(move |&rate| (id, pattern, rate)))
        })
    }
}

/// One fixture record.
#[derive(Debug, serde::Serialize, serde::Deserialize, PartialEq)]
struct Record {
    scheme: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pattern: Option<String>,
    rate: f64,
    /// FNV-1a 64 over the serde_json serialization of the full
    /// NetStats, as a hex string.
    netstats_fnv64: String,
    delivered: u64,
    generated: u64,
    cycles: u64,
}

/// What watches a run. `PLAIN` installs nothing; `trace: Some(Off)`
/// installs the tracer switched off.
#[derive(Debug, Clone, Copy)]
struct Observer {
    trace: Option<TraceLevel>,
    sample_every: Option<u64>,
    probe: bool,
}

const PLAIN: Observer = Observer {
    trace: None,
    sample_every: None,
    probe: false,
};

fn traced(level: TraceLevel) -> Observer {
    Observer {
        trace: Some(level),
        ..PLAIN
    }
}

fn sampled(every: u64) -> Observer {
    Observer {
        sample_every: Some(every),
        ..PLAIN
    }
}

const PROBED: Observer = Observer {
    probe: true,
    ..PLAIN
};

/// Counts phase entries into a counter the test keeps.
struct Entries(Arc<AtomicU64>);

impl PhaseProbe for Entries {
    fn begin(&mut self, _: Phase) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    fn end(&mut self, _: Phase) {}
}

/// Runs `sim` for `warmup + measure` cycles under `observer`, sampling
/// flushed, and checks the observer recorded something, so no
/// transparency check is vacuous. `what` names the run in failures.
fn observed_run(
    sim: &mut Simulation,
    observer: Observer,
    (warmup, measure): (u64, u64),
    what: &str,
) -> NetStats {
    if let Some(level) = observer.trace {
        sim.set_trace(&TraceConfig { level });
    }
    if let Some(every) = observer.sample_every {
        sim.set_sampler(&SamplerConfig {
            sample_every: every,
            max_windows: 4096,
        });
    }
    let entries = Arc::new(AtomicU64::new(0));
    if observer.probe {
        sim.set_probe(Box::new(Entries(Arc::clone(&entries))));
    }
    let stats = sim.run_windows(warmup, measure);
    sim.finish_sampling();
    if observer.trace == Some(TraceLevel::Full) {
        assert!(sim.tracer().total_events() > 0, "{what}: no trace events");
    }
    if observer.sample_every.is_some() {
        let windows = sim.sampler().expect("sampler installed").windows();
        assert!(!windows.is_empty(), "{what}: no windows");
    }
    if observer.probe {
        let entered = entries.load(Ordering::Relaxed);
        assert!(entered > 0, "{what}: the probe saw no phase");
    }
    stats
}

/// Names a run of `point` on `grid` under `observer` in failures.
fn describe(grid: &Grid, (id, pattern, rate): Point, observer: Observer) -> String {
    let (scheme, pattern) = (id.name(), pattern.name());
    format!(
        "{} {scheme} / {pattern} @ rate {rate} under {observer:?}",
        grid.name
    )
}

/// Runs `point` on `grid` under `observer`: its record and the
/// simulation with its observers still installed (sampling flushed).
fn run(grid: &Grid, point: Point, observer: Observer) -> (Record, Simulation) {
    let (id, pattern, rate) = point;
    let mut sim = make_sim(id, pattern, rate, grid.size, FP_VCS, SEED);
    let what = describe(grid, point, observer);
    let stats = observed_run(&mut sim, observer, (grid.warmup, grid.measure), &what);
    let record = Record {
        scheme: id.name().to_string(),
        pattern: grid.names_pattern.then(|| pattern.name().to_string()),
        rate,
        netstats_fnv64: netstats_fnv64(&stats),
        delivered: stats.delivered(),
        generated: stats.generated,
        cycles: stats.cycles,
    };
    (record, sim)
}

/// Fixtures regenerated so far: of the parallel tests sharing a grid,
/// one rewrites its fixture, once, and none reads it mid-write.
static REGENERATED: Mutex<Vec<&str>> = Mutex::new(Vec::new());

/// The gate: under `FP_GOLDEN_REGEN` a plain pass rewrites `grid`'s
/// fixture first; then every point runs under each observer and must
/// equal its fixture record, having observed what the observer records.
fn gate(grid: &Grid, observers: &[Observer]) {
    let path = &format!("{FIXTURES}/{}", grid.fixture);
    let text = {
        let mut regenerated = REGENERATED.lock().unwrap_or_else(PoisonError::into_inner);
        let regen = std::env::var("FP_GOLDEN_REGEN").is_ok_and(|v| !v.is_empty() && v != "0");
        if regen && !regenerated.contains(&grid.fixture) {
            let records: Vec<Record> = grid.points().map(|p| run(grid, p, PLAIN).0).collect();
            let json = serde_json::to_string_pretty(&records).expect("records serialize");
            std::fs::write(path, json + "\n").expect("write fixture");
            regenerated.push(grid.fixture);
            eprintln!("regenerated {path}");
        }
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("{path}: {e} — run with FP_GOLDEN_REGEN=1 once"))
    };
    let fixture: Vec<Record> = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(
        fixture.len(),
        grid.points().count(),
        "{}: point count drifted from {path} — regenerate it if intentional",
        grid.name
    );
    for &observer in observers {
        for point in grid.points() {
            let got = run(grid, point, observer).0;
            let what = describe(grid, point, observer);
            let want = fixture
                .iter()
                .find(|w| (&w.scheme, &w.pattern, w.rate) == (&got.scheme, &got.pattern, point.2))
                .unwrap_or_else(|| panic!("{what}: {path} has no such point — regenerate it"));
            assert_eq!(
                &got, want,
                "{what}: NetStats diverged from the golden fixture"
            );
        }
    }
}

#[test]
fn low_load_4x4_matches_plain() {
    gate(&LOW_LOAD, &[PLAIN]);
}

#[test]
fn low_load_4x4_matches_under_every_trace_level() {
    let levels = [TraceLevel::Off, TraceLevel::Counters, TraceLevel::Full];
    gate(&LOW_LOAD, &levels.map(traced));
}

#[test]
fn low_load_4x4_matches_under_every_sampling_level() {
    // One window per cycle (maximum observation frequency), a typical
    // size, and a non-divisor prime that forces a partial flush window.
    gate(&LOW_LOAD, &[1, 64, 997].map(sampled));
}

#[test]
fn saturated_8x8_matches_plain_and_fully_observed() {
    let everything = Observer {
        trace: Some(TraceLevel::Full),
        sample_every: Some(1),
        probe: true,
    };
    gate(&SATURATED, &[PLAIN, everything]);
}

#[test]
fn mesh_16x16_matches_at_every_point() {
    gate(&BIG_MESH, &[PLAIN]);
}

/// The 4×4 grid's FastPass point at `rate`.
fn low_load_fastpass(rate: f64, observer: Observer) -> Simulation {
    let point = (SchemeId::FastPass, SyntheticPattern::Uniform, rate);
    run(&LOW_LOAD, point, observer).1
}

/// Every other node sends node `hot` a one-flit request every fourth
/// cycle, and `hot` never consumes: its one-packet ejection queue stays
/// full, so FastPass flights reaching it are rejected and fly home
/// (§III-C4).
#[derive(Clone)]
struct Flood {
    hot: NodeId,
}

impl Workload for Flood {
    fn tick(&mut self, core: &mut NetworkCore) {
        let cycle = core.cycle();
        if cycle.is_multiple_of(4) {
            for src in core.mesh().nodes().filter(|&n| n != self.hot) {
                core.generate(Packet::new(src, self.hot, MessageClass::Request, 1, cycle));
            }
        }
    }

    fn can_consume(&self, node: NodeId, _: MessageClass) -> bool {
        node != self.hot
    }
}

#[test]
fn rejected_flights_return_home_alike_under_every_observer() {
    let observers = [
        PLAIN,
        traced(TraceLevel::Counters),
        traced(TraceLevel::Full),
        sampled(1),
        PROBED,
    ];
    let digests = observers.map(|observer| {
        let cfg = SimConfig::builder()
            .mesh(4, 4)
            .vns(0)
            .vcs_per_vn(1)
            .ej_queue_packets(1)
            .seed(SEED)
            .build();
        let scheme = FastPass::new(&cfg, FastPassConfig::default());
        let flood = Flood {
            hot: NodeId::new(5),
        };
        let mut sim = Simulation::new(cfg, Box::new(scheme), Box::new(flood));
        let what = format!("flood under {observer:?}");
        let stats = observed_run(&mut sim, observer, (300, 1_000), &what);
        assert!(stats.rejections > 0, "{what}: no flight was rejected");
        if observer.trace == Some(TraceLevel::Full) {
            let tracer = sim.tracer();
            let records = tracer.records_in_order();
            let exits = |want| {
                records.iter().any(|r| {
                    matches!(r.event, TraceEvent::BypassExit { outcome, .. } if outcome == want)
                })
            };
            assert!(exits(BypassOutcome::Rejected), "{what}: no Rejected exit");
            assert!(exits(BypassOutcome::Returned), "{what}: no Returned exit");
            let stalls = tracer.totals().stalls;
            let refused =
                stalls[StallCause::EjBackpressure.index()] + stalls[StallCause::EjReserved.index()];
            assert!(refused > 0, "{what}: no ejection-refusal stall counted");
        }
        netstats_fnv64(&stats)
    });
    assert!(
        digests.iter().all(|d| *d == digests[0]),
        "observers changed the flood's NetStats: {digests:?}"
    );
}

#[test]
fn counters_and_events_actually_record() {
    // Each level must produce the artifacts it promises, so the
    // transparency above is not vacuous at Counters either.
    let observe = |level: TraceLevel| {
        let sim = low_load_fastpass(0.08, traced(level));
        let t = sim.tracer();
        let injected: u64 = t
            .metrics()
            .iter()
            .map(|m| m.injected.iter().sum::<u64>())
            .sum();
        (injected, t.total_events())
    };
    let (inj_off, ev_off) = observe(TraceLevel::Off);
    assert_eq!((inj_off, ev_off), (0, 0), "Off must record nothing");
    let (inj_cnt, ev_cnt) = observe(TraceLevel::Counters);
    assert!(inj_cnt > 0, "Counters must populate RouterMetrics");
    assert_eq!(ev_cnt, 0, "Counters must not record events");
    let (inj_full, ev_full) = observe(TraceLevel::Full);
    assert!(inj_full > 0 && ev_full > 0, "Full records both");
    assert_eq!(inj_full, inj_cnt, "counters agree across levels");
}

#[test]
fn window_sums_reconcile_with_run_totals() {
    // Stall counters flow through the tracer, so this point runs with
    // counters live; the gate above proves counters are
    // behaviour-transparent. The recorded windows must tile the
    // measurement span exactly and their per-window deltas must sum to
    // the end-of-run totals: the series is an exact decomposition of the
    // run, not an approximation of it.
    let (warmup, measure) = (LOW_LOAD.warmup, LOW_LOAD.measure);
    let counters_every = |every| Observer {
        trace: Some(TraceLevel::Counters),
        ..sampled(every)
    };
    // 128 is a non-divisor of 3000: it forces a partial flush.
    let fine = low_load_fastpass(0.08, counters_every(128));
    let stats = &fine.core.stats;
    let windows = fine.sampler().expect("sampler installed").windows();

    // The series tiles [reset, end] with no gaps or overlaps.
    assert_eq!(windows.first().expect("windows").start_cycle, warmup);
    assert_eq!(windows.last().expect("windows").end_cycle, warmup + measure);
    for pair in windows.windows(2) {
        assert_eq!(pair[0].end_cycle, pair[1].start_cycle, "gap in series");
    }

    // Monotone-counter deltas sum back to the end-of-run totals.
    let sum = |f: fn(&WindowSample) -> u64| windows.iter().map(f).sum::<u64>();
    assert_eq!(sum(|w| w.stats.delivered()), stats.delivered());
    assert_eq!(sum(|w| w.stats.flits_delivered), stats.flits_delivered);
    assert_eq!(sum(|w| w.stats.generated), stats.generated);
    assert_eq!(sum(|w| w.stats.latency_count), stats.latency.count() as u64);

    // Stall cycles: a single whole-measurement window must equal the sum
    // of the fine-grained windows (both are deltas over the same span).
    let coarse = low_load_fastpass(0.08, counters_every(measure));
    let coarse_windows = coarse.sampler().expect("sampler").windows();
    assert_eq!(coarse_windows.len(), 1, "one window spans the measurement");
    let one = &coarse_windows[0];
    assert_eq!(sum(|w| w.trace.total_stalls()), one.trace.total_stalls());
    assert!(
        one.trace.total_stalls() > 0,
        "rate 0.08 must stall somewhere"
    );
    assert_eq!(
        sum(|w| w.trace.link_flits_regular),
        one.trace.link_flits_regular
    );
    assert_eq!(sum(|w| w.stats.delivered()), one.stats.delivered());
}

#[test]
fn window_series_is_deterministic_across_runs() {
    let series = || {
        let sim = low_load_fastpass(0.05, sampled(64));
        sim.sampler().expect("sampler").windows().to_vec()
    };
    let a = series();
    let b = series();
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical runs must record identical series");
}
