//! `sweep_cold` and `sweep_warm`: one figure panel through
//! `run_sweep_parallel`. Cold passes start from an empty store (engine +
//! thread pool + key hashing + store writes); warm passes find every
//! point in a store primed during set-up (key hashing + store reads +
//! thread spawn + `git_sha`, no engine).

use crate::common::{fold_point, run_blocks, same_point, Block, Ctx, Model, Timed, JOBS};
use crate::engine;
use crate::inputs;
use crate::Kind;
use bench::{run_sweep_parallel, simulate_point, SweepOptions, SweepResult, SweepSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A set-up sweep workload.
pub struct Sweep {
    /// `true` for `sweep_warm`.
    pub warm: bool,
    /// The panel.
    pub specs: Vec<SweepSpec>,
    /// The cold set-up pass's results: what every pass must return.
    pub reference: Vec<SweepResult>,
    /// The primed store (`sweep_warm`), or the parent of per-pass stores.
    pub dir: PathBuf,
    /// Failures found while setting up.
    pub setup_failures: Vec<String>,
}

fn options(dir: &Path) -> SweepOptions {
    SweepOptions {
        jobs: JOBS,
        cache_dir: Some(dir.to_path_buf()),
        progress: false,
    }
}

/// Points in a spec list.
pub fn count(specs: &[SweepSpec]) -> u64 {
    specs.iter().map(|s| s.rates.len() as u64).sum()
}

/// Simulated cycles a spec list covers.
pub fn cycles(specs: &[SweepSpec]) -> u64 {
    specs
        .iter()
        .map(|s| s.rates.len() as u64 * (s.warmup + s.measure))
        .sum()
}

/// Labels of the points where two result sets differ bitwise.
pub fn differences(specs: &[SweepSpec], got: &[SweepResult], want: &[SweepResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (spec, (g, w)) in specs.iter().zip(got.iter().zip(want)) {
        for (i, &rate) in spec.rates.iter().enumerate() {
            let same = match (g.points.get(i), w.points.get(i)) {
                (Some(a), Some(b)) => same_point(a, b),
                _ => false,
            };
            if !same {
                out.push(format!("{}/{}@{rate}", spec.id.name(), spec.pattern.name()));
            }
        }
    }
    if got.len() != want.len() {
        out.push(format!(
            "{} sweeps returned, {} expected",
            got.len(),
            want.len()
        ));
    }
    out
}

/// Per-point sanity on stored reductions: something was delivered,
/// accepted load stays within noise of offered load, and statistics are
/// finite below 0.10 load.
fn sanity(specs: &[SweepSpec], results: &[SweepResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (spec, r) in specs.iter().zip(results) {
        for p in &r.points {
            let label = format!("{}/{}@{}", spec.id.name(), spec.pattern.name(), p.rate);
            if p.delivered == 0 {
                out.push(format!("{label}: delivered nothing"));
            }
            // Carry-over from warmup lets a short window accept a little
            // more than it was offered; a quarter more is a bug.
            if p.throughput > p.rate * 1.25 + 0.005 {
                out.push(format!("{label}: accepted {} > offered", p.throughput));
            }
            if p.rate < 0.10 && !p.avg_latency.is_finite() {
                out.push(format!("{label}: non-finite latency below 0.10 load"));
            }
        }
    }
    out
}

impl Sweep {
    /// Set-up: generate the panel and run one cold pass into a fresh
    /// store. For `sweep_warm` that pass is the priming, followed by one
    /// untimed all-hit pass; for `sweep_cold` it is the untimed warm-up
    /// pass and its store is thrown away.
    pub fn setup(kind: Kind, ctx: &Ctx, tag: &str) -> Sweep {
        let warm = kind == Kind::SweepWarm;
        let specs = inputs::sweep_panel(ctx.scale, ctx.seed);
        let dir = ctx.work.join(format!("sweep-{tag}"));
        let primed = dir.join("primed");
        let mut setup_failures = Vec::new();
        let reference = engine::guarded(|| run_sweep_parallel(&specs, &options(&primed)))
            .unwrap_or_else(|e| {
                setup_failures.push(format!("cold set-up pass: {e}"));
                Vec::new()
            });
        setup_failures.extend(sanity(&specs, &reference));
        let sweep = Sweep {
            warm,
            specs,
            reference,
            dir,
            setup_failures,
        };
        if warm {
            let (_, failures) = sweep.pass(0);
            let mut sweep = sweep;
            sweep.setup_failures.extend(failures);
            sweep
        } else {
            let _ = std::fs::remove_dir_all(&primed);
            sweep
        }
    }

    /// One pass. Timed: the `run_sweep_parallel` call. Untimed: making
    /// and removing the per-pass store, comparing the results. Returns
    /// the host ns and the failed points.
    pub fn pass(&self, n: u64) -> (u64, Vec<String>) {
        let dir = if self.warm {
            self.dir.join("primed")
        } else {
            self.dir.join(format!("cold-{n}"))
        };
        let opts = options(&dir);
        let begun = Instant::now();
        let got = engine::guarded(|| run_sweep_parallel(&self.specs, &opts));
        let host_ns = begun.elapsed().as_nanos() as u64;
        if !self.warm {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let failures = match got {
            Ok(got) => differences(&self.specs, &got, &self.reference),
            Err(e) => vec![format!("run_sweep_parallel: {e}")],
        };
        (host_ns, failures)
    }

    /// Passes per block: one cold pass is long enough to stand alone; a
    /// warm pass takes under two milliseconds, so ten make a block. Not
    /// more: with both cores busy, the quiet stretches between other
    /// tenants' bursts are tens of milliseconds long, and a block has to
    /// fit into one.
    fn passes_per_block(&self) -> u64 {
        if self.warm {
            10
        } else {
            1
        }
    }

    /// One block of passes.
    pub fn block(&self, n: u64) -> Block {
        let per = self.passes_per_block();
        let mut block = Block::default();
        for i in 0..per {
            let (host_ns, failures) = self.pass(n * per + i);
            block.host_ns += host_ns;
            block.points += count(&self.specs);
            block.cycles += cycles(&self.specs);
            block.ops_ms.push(host_ns as f64 / 1e6);
            block.failures.extend(failures);
        }
        block
    }

    /// The timed section.
    pub fn timed(&self, ctx: &Ctx) -> Timed {
        Timed::of(run_blocks(ctx.seconds, |n| self.block(n)), 0.0)
    }

    /// Cross-path check, untimed: every ninth point (with eight rates
    /// per scheme, each scheme at a different rate) through the serial
    /// `simulate_point` must equal what the parallel sweep returned.
    pub fn verify(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut i = 0usize;
        for (spec, want) in self.specs.iter().zip(&self.reference) {
            for (&rate, w) in spec.rates.iter().zip(&want.points) {
                if i.is_multiple_of(9) {
                    match engine::guarded(|| simulate_point(spec, rate)) {
                        Ok(p) if same_point(&p, w) => {}
                        Ok(_) => out.push(format!(
                            "{}/{}@{rate}: serial differs from parallel sweep",
                            spec.id.name(),
                            spec.pattern.name()
                        )),
                        Err(e) => out.push(format!("simulate_point: {e}")),
                    }
                }
                i += 1;
            }
        }
        out
    }

    /// The simulated numbers of the reference pass.
    pub fn model(&self) -> Model {
        Model::of(self.reference.iter().flat_map(|r| r.points.iter()))
    }

    /// Combined digest of the reference pass.
    pub fn digest(&self) -> u64 {
        self.reference
            .iter()
            .flat_map(|r| r.points.iter())
            .fold(engine::FNV_BASIS, fold_point)
    }

    /// `saturation_rate()` of FastPass over SPIN on this panel.
    pub fn sat_ratio_spin(&self) -> f64 {
        let sat = |name: &str| {
            self.reference
                .iter()
                .find(|r| r.scheme == name)
                .map_or(0.0, SweepResult::saturation_rate)
        };
        let spin = sat(bench::SchemeId::Spin.name());
        if spin > 0.0 {
            sat(bench::SchemeId::FastPass.name()) / spin
        } else {
            0.0
        }
    }
}

impl Drop for Sweep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
