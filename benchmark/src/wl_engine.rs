//! `engine_zeroload`, `engine_saturated`, `engine_protocol`: the serial
//! engine path, no store and no daemon. One op is one pass over the
//! workload's points; each point builds a fresh simulation and runs it.

use crate::common::{Ctx, Model, Timed};
use crate::engine::{self, Outcome};
use crate::inputs::{self, Point};
use crate::Kind;
use noc_sim::{run_windows_batched, Simulation};
use std::time::Instant;

/// A set-up engine workload: its points and the reference outcomes every
/// later pass must reproduce bit for bit.
pub struct Engine {
    /// The points of one pass.
    pub points: Vec<Point>,
    /// Outcomes of the untimed warm pass.
    pub reference: Vec<Outcome>,
    /// Failures found while setting up (checks on the warm pass).
    pub setup_failures: Vec<String>,
}

/// The points of an engine workload.
pub fn points_for(kind: Kind, ctx: &Ctx) -> Vec<Point> {
    match kind {
        Kind::EngineZeroload => inputs::points_of(&inputs::engine_zeroload(ctx.scale, ctx.seed)),
        Kind::EngineSaturated => inputs::points_of(&inputs::engine_saturated(ctx.scale, ctx.seed)),
        Kind::EngineProtocol => inputs::engine_protocol(ctx.scale, ctx.seed),
        _ => unreachable!("not an engine workload"),
    }
}

/// Builds and runs one point; a panic becomes an error.
fn simulate(p: &Point) -> Result<(Simulation, noc_core::stats::NetStats, u64), String> {
    engine::guarded(|| {
        let mut sim = engine::build(p);
        let (stats, cycles) = engine::run(p, &mut sim);
        (sim, stats, cycles)
    })
}

impl Engine {
    /// Set-up: generate the points and run the untimed warm pass, whose
    /// outcomes are checked (sanity, conservation audit) and kept as the
    /// reference.
    pub fn setup(kind: Kind, ctx: &Ctx) -> Engine {
        let points = points_for(kind, ctx);
        let mut reference = Vec::with_capacity(points.len());
        let mut setup_failures = Vec::new();
        for p in &points {
            match simulate(p) {
                Ok((sim, stats, cycles)) => {
                    let o = engine::outcome(p, stats, cycles);
                    if let Err(e) = engine::check(p, &o) {
                        setup_failures.push(e);
                    }
                    if let Err(e) = engine::guarded(|| sim.assert_conserved()) {
                        setup_failures.push(format!("{}: conservation audit: {e}", p.label()));
                    }
                    reference.push(o);
                }
                Err(e) => {
                    setup_failures.push(format!("{}: {e}", p.label()));
                    // Keeps indices aligned; its digest matches nothing.
                    reference.push(engine::outcome(p, Default::default(), 0));
                }
            }
        }
        if ctx.plant_failure {
            reference[0].digest ^= 1;
        }
        Engine {
            points,
            reference,
            setup_failures,
        }
    }

    /// One pass: every point, serially. Only building and running is
    /// timed; digesting and comparing the statistics is not. Returns the
    /// host ns of each point and the failures.
    pub fn pass(&self) -> (Vec<u64>, Vec<String>) {
        let mut times = Vec::with_capacity(self.points.len());
        let mut failures = Vec::new();
        for (p, want) in self.points.iter().zip(&self.reference) {
            let begun = Instant::now();
            let result = simulate(p);
            times.push(begun.elapsed().as_nanos() as u64);
            match result {
                Ok((_, stats, cycles)) => {
                    if engine::outcome(p, stats, cycles).digest != want.digest {
                        failures.push(format!("{}: statistics differ between passes", p.label()));
                    }
                }
                Err(e) => failures.push(format!("{}: {e}", p.label())),
            }
        }
        (times, failures)
    }

    /// The timed section: passes until the time is up. A point is the
    /// smallest repeatable unit here, so the quiet-state pass is the sum
    /// of each point's fastest time over the passes.
    pub fn timed(&self, ctx: &Ctx) -> Timed {
        let begun = Instant::now();
        let mut best = vec![u64::MAX; self.points.len()];
        let mut passes_ms = Vec::new();
        let mut failures = Vec::new();
        loop {
            let (times, failed) = self.pass();
            passes_ms.push(times.iter().sum::<u64>() as f64 / 1e6);
            for (b, t) in best.iter_mut().zip(times) {
                *b = (*b).min(t);
            }
            failures.extend(failed);
            if begun.elapsed().as_secs_f64() >= ctx.seconds {
                break;
            }
        }
        let quiet_ns: u64 = best.iter().sum();
        let secs = quiet_ns.max(1) as f64 / 1e9;
        let passes = passes_ms.len() as u64;
        let points = self.points.len() as u64;
        let cycles: u64 = self.reference.iter().map(|o| o.cycles).sum();
        Timed {
            points_per_s: points as f64 / secs,
            cycles_per_s: cycles as f64 / secs,
            op_p50_ms: quiet_ns as f64 / 1e6,
            ops_ms: passes_ms,
            points: points * passes,
            blocks: passes,
            failures,
        }
    }

    /// Cross-path check, untimed: the first claim of four points through
    /// `run_windows_batched` must equal the serial reference bit for bit.
    pub fn verify(&self) -> Vec<String> {
        let n = self.points.len().min(4);
        batched_failures(&self.points[..n], &self.reference[..n])
    }

    /// The simulated numbers of the reference pass.
    pub fn model(&self) -> Model {
        Model::of(self.reference.iter().map(|o| &o.point))
    }

    /// Combined digest of the reference pass.
    pub fn digest(&self) -> u64 {
        self.reference.iter().fold(engine::FNV_BASIS, |h, o| {
            engine::fnv1a64(h, &o.digest.to_le_bytes())
        })
    }
}

/// Runs `points` (which share one window pair) through
/// `run_windows_batched` and compares each with its serial outcome.
pub fn batched_failures(points: &[Point], want: &[Outcome]) -> Vec<String> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    let (warmup, measure) = engine::windows(first);
    let got = engine::guarded(|| {
        let mut sims: Vec<Simulation> = points.iter().map(engine::build).collect();
        run_windows_batched(&mut sims, warmup, measure)
    });
    match got {
        Err(e) => vec![format!("run_windows_batched: {e}")],
        Ok(stats) => points
            .iter()
            .zip(stats)
            .zip(want)
            .filter_map(|((p, s), w)| {
                let cycles = w.cycles;
                (engine::outcome(p, s, cycles).digest != w.digest)
                    .then(|| format!("{}: batched differs from serial", p.label()))
            })
            .collect(),
    }
}
