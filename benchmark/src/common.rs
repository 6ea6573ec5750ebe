//! What every workload shares: the run context, the timed-section
//! record, pass loops and small statistics helpers.

use crate::inputs::Scale;
use bench::LatencyPoint;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads for sweeps and the daemon. Fixed, not read from the
/// machine, so runs on different boxes execute the same schedule shape.
pub const JOBS: usize = 2;

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Matrix size.
    pub scale: Scale,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the timed section measures.
    pub seconds: f64,
    /// Scratch directory for stores and sockets, inside the checkout.
    pub work: PathBuf,
    /// Self-test hook: corrupt one reference digest, so that a point
    /// must come out as failed.
    pub plant_failure: bool,
}

/// What a timed section measured.
///
/// The sandbox this runs in shares its cores with other tenants: for
/// seconds to minutes at a time everything runs 10-40% slower, and
/// nothing this process does causes or ends it. A mean or a median over
/// a run follows whichever state the run fell in. Every host-time number
/// here is therefore the quiet-state value: the timed section is cut
/// into blocks of equal work, and the fastest blocks speak for the run.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Points returned per host second, over the fastest blocks.
    pub points_per_s: f64,
    /// Simulated cycles covered per host second, over the fastest blocks.
    pub cycles_per_s: f64,
    /// Median latency of one op (a pass, or a computed job), ms, over
    /// the ops of the fastest blocks.
    pub op_p50_ms: f64,
    /// Latency of every op, ms, for the printed quartiles.
    pub ops_ms: Vec<f64>,
    /// Points attempted.
    pub points: u64,
    /// Blocks measured.
    pub blocks: u64,
    /// One message per failed point.
    pub failures: Vec<String>,
}

/// One block of a timed section: a fixed amount of work, timed.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Host time inside the program under test, ns (checks excluded).
    pub host_ns: u64,
    /// Points returned.
    pub points: u64,
    /// Simulated cycles those points cover.
    pub cycles: u64,
    /// Latency of each op in the block, ms.
    pub ops_ms: Vec<f64>,
    /// One message per failed point.
    pub failures: Vec<String>,
}

impl Timed {
    /// Reduces blocks to the quiet-state values. Throughput and the
    /// median op latency are taken over the fastest `keep` share of the
    /// blocks, by host time per point (at least one block): 0
    /// where every block repeats the same work, so the single fastest
    /// one stands; a half where blocks differ in shape (which jobs of
    /// two clients happen to overlap), so that no lucky block decides.
    pub fn of(mut blocks: Vec<Block>, keep: f64) -> Timed {
        let mut timed = Timed {
            blocks: blocks.len() as u64,
            ..Timed::default()
        };
        let ns_per_point = |b: &Block| b.host_ns.max(1) as f64 / b.points.max(1) as f64;
        blocks.sort_by(|a, b| ns_per_point(a).total_cmp(&ns_per_point(b)));
        let kept = ((blocks.len() as f64 * keep) as usize).max(1);
        let (mut ns, mut points, mut cycles) = (0u64, 0u64, 0u64);
        let mut kept_ops = Vec::new();
        for (i, b) in blocks.iter_mut().enumerate() {
            timed.points += b.points;
            timed.failures.append(&mut b.failures);
            if i < kept {
                ns += b.host_ns;
                points += b.points;
                cycles += b.cycles;
                kept_ops.extend_from_slice(&b.ops_ms);
            }
            timed.ops_ms.append(&mut b.ops_ms);
        }
        let secs = ns.max(1) as f64 / 1e9;
        timed.points_per_s = points as f64 / secs;
        timed.cycles_per_s = cycles as f64 / secs;
        timed.op_p50_ms = median(&mut kept_ops);
        timed
    }
}

/// Repeats `block` until `seconds` have elapsed (at least once).
pub fn run_blocks(seconds: f64, mut block: impl FnMut(u64) -> Block) -> Vec<Block> {
    let begun = Instant::now();
    let mut blocks = Vec::new();
    loop {
        blocks.push(block(blocks.len() as u64));
        if begun.elapsed().as_secs_f64() >= seconds {
            return blocks;
        }
    }
}

/// Median (0 for no samples); sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile (0 for no samples); sorts in place.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `100 * (with / without - 1)`, or 0 when there is no baseline.
pub fn overhead_pct(with: f64, without: f64) -> f64 {
    if without > 0.0 {
        100.0 * (with / without - 1.0)
    } else {
        0.0
    }
}

/// Folds a point into a running digest, bit for bit.
pub fn fold_point(h: u64, p: &LatencyPoint) -> u64 {
    let mut h = h;
    for bits in [
        p.rate.to_bits(),
        p.avg_latency.to_bits(),
        p.throughput.to_bits(),
        p.delivered,
        p.fastpass_fraction.to_bits(),
        p.dropped_fraction.to_bits(),
    ] {
        h = crate::engine::fnv1a64(h, &bits.to_le_bytes());
    }
    h
}

/// Bitwise equality of two points (`==` would call NaN unequal to
/// itself, and a collapsed point's latency can be NaN on every path).
pub fn same_point(a: &LatencyPoint, b: &LatencyPoint) -> bool {
    fold_point(0, a) == fold_point(0, b)
}

/// The simulated numbers a user reads off a workload, from its
/// reference results: exact for a given seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Model {
    /// Mean packet latency, averaged over the points (cycles).
    pub latency_cycles: f64,
    /// Accepted throughput, averaged over the points (pkt/node/cycle).
    pub accepted_load: f64,
}

impl Model {
    /// Reduces reference points. Points without a finite latency (a
    /// collapsed point can deliver nothing it generated) are left out of
    /// the latency mean, never out of the throughput mean.
    pub fn of<'a>(points: impl Iterator<Item = &'a LatencyPoint>) -> Model {
        let (mut lat, mut nlat, mut thr, mut n) = (0.0, 0u64, 0.0, 0u64);
        for p in points {
            if p.avg_latency.is_finite() {
                lat += p.avg_latency;
                nlat += 1;
            }
            thr += p.throughput;
            n += 1;
        }
        Model {
            latency_cycles: lat / nlat.max(1) as f64,
            accepted_load: thr / n.max(1) as f64,
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM` in
/// `/proc/self/status`); 0 where `/proc` is not mounted.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
