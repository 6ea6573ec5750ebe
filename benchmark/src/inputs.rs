//! Workload inputs, generated from `--seed`: the same seed gives the
//! same spec lists, simulation seeds and client walks. The program
//! under test receives only these plain `SweepSpec`s and configs.

use bench::{SchemeId, SweepSpec, ALL_SCHEMES};
use traffic::{AppModel, SyntheticPattern};

/// Matrix size: the measured one, or the self-test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's regime (8x8), sized so one pass stays near a second.
    Full,
    /// 4x4 with short windows: drives every code path in seconds, even
    /// from a debug build. Its numbers are not measurements.
    Tiny,
}

/// SplitMix64 step: decorrelates `--seed` from the per-use salts.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One unit of engine work: a simulation to build and run.
#[derive(Debug, Clone)]
pub enum Point {
    /// Open-loop synthetic traffic through warmup + measure windows.
    Synthetic {
        /// Scheme, pattern, mesh, windows and simulation seed.
        spec: SweepSpec,
        /// Offered load, packets/node/cycle.
        rate: f64,
    },
    /// Closed-loop coherence traffic, run until every core meets its
    /// transaction quota.
    Protocol {
        /// Application model.
        app: AppModel,
        /// Scheme under test.
        id: SchemeId,
        /// FastPass VCs per input buffer.
        fp_vcs: usize,
        /// Mesh edge length.
        size: usize,
        /// Transactions per core.
        quota: u64,
        /// Cycle cap (never reached on a healthy run).
        max_cycles: u64,
        /// Simulation and workload seed.
        seed: u64,
    },
}

impl Point {
    /// The scheme this point runs.
    pub fn scheme(&self) -> SchemeId {
        match self {
            Point::Synthetic { spec, .. } => spec.id,
            Point::Protocol { id, .. } => *id,
        }
    }

    /// Mesh edge length.
    pub fn size(&self) -> usize {
        match self {
            Point::Synthetic { spec, .. } => spec.size,
            Point::Protocol { size, .. } => *size,
        }
    }

    /// FastPass VCs per input buffer.
    pub fn fp_vcs(&self) -> usize {
        match self {
            Point::Synthetic { spec, .. } => spec.fp_vcs,
            Point::Protocol { fp_vcs, .. } => *fp_vcs,
        }
    }

    /// Simulation seed.
    pub fn seed(&self) -> u64 {
        match self {
            Point::Synthetic { spec, .. } => spec.seed,
            Point::Protocol { seed, .. } => *seed,
        }
    }

    /// Nodes in the mesh.
    pub fn nodes(&self) -> u64 {
        (self.size() * self.size()) as u64
    }

    /// A short label for tables and failure messages.
    pub fn label(&self) -> String {
        match self {
            Point::Synthetic { spec, rate } => {
                format!("{}/{}@{rate}", spec.id.name(), spec.pattern.name())
            }
            Point::Protocol {
                app, id, fp_vcs, ..
            } => format!("{}/{}(vc{fp_vcs})", app.name(), id.name()),
        }
    }
}

fn synthetic_spec(
    id: SchemeId,
    pattern: SyntheticPattern,
    rates: Vec<f64>,
    size: usize,
    fp_vcs: usize,
    windows: (u64, u64),
    seed: u64,
) -> SweepSpec {
    SweepSpec {
        id,
        pattern,
        rates,
        size,
        fp_vcs,
        warmup: windows.0,
        measure: windows.1,
        seed,
    }
}

/// Expands spec lists into one point per `(spec, rate)`, in spec order.
pub fn points_of(specs: &[SweepSpec]) -> Vec<Point> {
    specs
        .iter()
        .flat_map(|spec| {
            spec.rates.iter().map(move |&rate| Point::Synthetic {
                spec: spec.clone(),
                rate,
            })
        })
        .collect()
}

/// The eight schemes x {uniform, transpose} at one rate.
fn engine_matrix(scale: Scale, rate: f64, windows: (u64, u64), seed: u64) -> Vec<SweepSpec> {
    let (size, fp_vcs) = match scale {
        Scale::Full => (8, 4),
        Scale::Tiny => (4, 2),
    };
    // One simulation seed per point: with a common seed all sixteen
    // points see the same traffic and their costs move together, which
    // doubles the run-to-run spread of the sum at 0.14 load.
    ALL_SCHEMES
        .iter()
        .flat_map(|&id| {
            [SyntheticPattern::Uniform, SyntheticPattern::Transpose]
                .into_iter()
                .map(move |pattern| (id, pattern))
        })
        .enumerate()
        .map(|(i, (id, pattern))| {
            let seed = mix(seed, i as u64) % 100_000;
            synthetic_spec(id, pattern, vec![rate], size, fp_vcs, windows, seed)
        })
        .collect()
}

/// `engine_zeroload`: rate 0.01, long windows.
pub fn engine_zeroload(scale: Scale, seed: u64) -> Vec<SweepSpec> {
    let windows = match scale {
        Scale::Full => (500, 3_500),
        Scale::Tiny => (100, 400),
    };
    engine_matrix(scale, 0.01, windows, mix(seed, 1) % 100_000)
}

/// `engine_saturated`: rate 0.14, past every scheme's knee.
pub fn engine_saturated(scale: Scale, seed: u64) -> Vec<SweepSpec> {
    let windows = match scale {
        Scale::Full => (400, 600),
        Scale::Tiny => (100, 200),
    };
    engine_matrix(scale, 0.14, windows, mix(seed, 2) % 100_000)
}

/// The eight Fig. 10 configurations: `(scheme, fp_vcs)`.
pub const FIG10_CONFIGS: [(SchemeId, usize); 8] = [
    (SchemeId::EscapeVc, 2),
    (SchemeId::Spin, 2),
    (SchemeId::Swap, 2),
    (SchemeId::Drain, 2),
    (SchemeId::Pitstop, 2),
    (SchemeId::Tfc, 2),
    (SchemeId::FastPass, 2),
    (SchemeId::FastPass, 4),
];

/// `engine_protocol`: `AppModel::FIG10` x the Fig. 10 configs, app-major.
pub fn engine_protocol(scale: Scale, seed: u64) -> Vec<Point> {
    let (size, quota, apps) = match scale {
        Scale::Full => (8, 12, &AppModel::FIG10[..]),
        Scale::Tiny => (4, 4, &AppModel::FIG10[..2]),
    };
    // One seed per app: the eight configs of an app see the same
    // transactions, as in Fig. 10, and `bench.model.exec_norm` compares
    // like with like.
    apps.iter()
        .enumerate()
        .flat_map(|(i, &app)| {
            let seed = mix(mix(seed, 3), i as u64) % 100_000;
            FIG10_CONFIGS
                .iter()
                .map(move |&(id, fp_vcs)| Point::Protocol {
                    app,
                    id,
                    fp_vcs,
                    size,
                    quota,
                    max_cycles: 400_000,
                    seed,
                })
        })
        .collect()
}

/// `sweep_cold` / `sweep_warm`: the reduced Fig. 7 transpose panel,
/// eight schemes x rates 0.02..0.16.
pub fn sweep_panel(scale: Scale, seed: u64) -> Vec<SweepSpec> {
    let (size, fp_vcs, windows, rates): (usize, usize, (u64, u64), Vec<f64>) = match scale {
        Scale::Full => (
            8,
            4,
            (250, 750),
            (1..=8).map(|i| f64::from(i) * 0.02).collect(),
        ),
        Scale::Tiny => (4, 2, (100, 200), vec![0.02, 0.08]),
    };
    // One seed per scheme (see `engine_matrix`).
    ALL_SCHEMES
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let seed = mix(mix(seed, 4), i as u64) % 100_000;
            synthetic_spec(
                id,
                SyntheticPattern::Transpose,
                rates.clone(),
                size,
                fp_vcs,
                windows,
                seed,
            )
        })
        .collect()
}

/// One `serve_mixed` job: eight schemes x uniform x three rates on 4x4
/// (24 points) for one simulation seed.
pub fn serve_job(scale: Scale, sim_seed: u64) -> Vec<SweepSpec> {
    let windows = match scale {
        Scale::Full => (500, 1_500),
        Scale::Tiny => (50, 150),
    };
    ALL_SCHEMES
        .iter()
        .map(|&id| {
            synthetic_spec(
                id,
                SyntheticPattern::Uniform,
                vec![0.02, 0.05, 0.08],
                4,
                2,
                windows,
                sim_seed,
            )
        })
        .collect()
}

/// The `serve_mixed` client walks. Simulation seeds come in blocks: each
/// block holds `fresh` seeds nobody has computed plus `primed` seeds a
/// previous daemon lifetime left in the store. Both clients walk every
/// block, each in its own `--seed`-derived order, so every seed is asked
/// for twice (one computes or hits the store, the other finds it in
/// memory or in flight), and every fourth job is re-submitted at once.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// `--seed`.
    pub seed: u64,
    /// Fresh seeds per block.
    pub fresh: u64,
    /// Store-primed seeds per block.
    pub primed: u64,
    /// Blocks whose primed seeds set-up actually stores; later blocks
    /// reuse them (they are then memory hits).
    pub primed_blocks: u64,
}

impl ServePlan {
    /// The plan for a scale.
    pub fn new(scale: Scale, seed: u64) -> ServePlan {
        match scale {
            Scale::Full => ServePlan {
                seed,
                fresh: 8,
                primed: 1,
                primed_blocks: 32,
            },
            Scale::Tiny => ServePlan {
                seed,
                fresh: 2,
                primed: 1,
                primed_blocks: 1,
            },
        }
    }

    fn base(&self) -> u64 {
        // Keeps simulation seeds of different `--seed`s disjoint and small.
        (mix(self.seed, 5) % 10_000) * 100_000
    }

    /// Simulation seeds set-up primes into the store.
    pub fn primed_seeds(&self) -> Vec<u64> {
        (0..self.primed_blocks * self.primed)
            .map(|i| self.base() + 50_000 + i)
            .collect()
    }

    /// The jobs of one block for one client, as `(sim_seed, resubmit)`
    /// in that client's walk order.
    pub fn block(&self, client: u64, block: u64) -> Vec<(u64, bool)> {
        let mut seeds: Vec<u64> = (0..self.fresh)
            .map(|i| self.base() + block * self.fresh + i)
            .collect();
        let primed = self.primed_seeds();
        for i in 0..self.primed {
            let slot = ((block % self.primed_blocks) * self.primed + i) as usize;
            seeds.push(primed[slot]);
        }
        // Fisher-Yates with a per-(client, block) stream.
        let mut state = mix(self.seed, 1_000 + client * 1_000_003 + block);
        for i in (1..seeds.len()).rev() {
            state = mix(state, i as u64);
            seeds.swap(i, (state % (i as u64 + 1)) as usize);
        }
        seeds
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, i % 4 == 3))
            .collect()
    }
}
