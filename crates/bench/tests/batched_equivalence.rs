//! Batched-vs-serial equivalence property: interleaving N independent
//! simulations through [`noc_sim::batch::run_windows_batched`] must
//! produce, for every one of them, *bitwise identical* results to
//! running it alone through `run_windows` — the full serialized
//! [`NetStats`](noc_core::stats::NetStats) (every distribution histogram)
//! and the full sampler window series, across random seeds, rates,
//! schemes and **mixed mesh sizes in the same batch**.
//!
//! This is the determinism contract the batched executor's speed rests
//! on: if it ever held only "statistically", batched sweeps could not
//! share golden fixtures with serial ones.

use bench::runner::make_sim;
use bench::SchemeId;
use noc_sim::batch::run_windows_batched;
use noc_sim::{SamplerConfig, Simulation, WindowSample};
use proptest::prelude::*;
use traffic::SyntheticPattern;

const WARMUP: u64 = 100;
const MEASURE: u64 = 400;
const FP_VCS: usize = 2;

/// One sweep point's full specification.
#[derive(Debug, Clone, Copy)]
struct Spec {
    scheme: SchemeId,
    mesh: usize,
    rate: f64,
    seed: u64,
}

fn build(spec: &Spec, sampled: bool) -> Simulation {
    let mut sim = make_sim(
        spec.scheme,
        SyntheticPattern::Uniform,
        spec.rate,
        spec.mesh,
        FP_VCS,
        spec.seed,
    );
    if sampled {
        sim.set_sampler(&SamplerConfig {
            sample_every: 64,
            max_windows: 32,
        });
    }
    sim
}

/// `(stats JSON, sampler window series)` — the complete observable
/// output of one point.
fn observe(
    mut sim: Simulation,
    run: impl FnOnce(&mut Simulation) -> String,
) -> (String, Vec<WindowSample>) {
    let stats_json = run(&mut sim);
    let windows = sim
        .finish_sampling()
        .map(|s| s.windows().to_vec())
        .unwrap_or_default();
    (stats_json, windows)
}

/// Draws a [`Spec`] with independent scheme, mesh size, rate and seed.
struct SpecStrategy;
impl Strategy for SpecStrategy {
    type Value = Spec;
    fn sample(&self, rng: &mut proptest::TestRng) -> Spec {
        Spec {
            scheme: if (0usize..2).sample(rng) == 0 {
                SchemeId::FastPass
            } else {
                SchemeId::Vct
            },
            mesh: (3usize..6).sample(rng),
            rate: (1u64..9).sample(rng) as f64 / 100.0,
            seed: (0u64..1_000).sample(rng),
        }
    }
}

fn spec_strategy() -> SpecStrategy {
    SpecStrategy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batch of 2–4 points with independently drawn schemes, mesh
    /// sizes, rates and seeds: every point's NetStats and sampler
    /// series must match its serial run bit for bit.
    #[test]
    fn batched_is_bitwise_equivalent_to_serial(
        specs in proptest::collection::vec(spec_strategy(), 2..5),
        sampled_bit in 0u8..2,
    ) {
        let sampled = sampled_bit == 1;
        // Serial reference: each point alone.
        let serial: Vec<(String, Vec<WindowSample>)> = specs
            .iter()
            .map(|spec| {
                observe(build(spec, sampled), |sim| {
                    let stats = sim.run_windows(WARMUP, MEASURE);
                    serde_json::to_string(&stats).expect("NetStats serializes")
                })
            })
            .collect();

        // Batched run of the same points, same construction order.
        let mut sims: Vec<Simulation> = specs.iter().map(|s| build(s, sampled)).collect();
        let all = run_windows_batched(&mut sims, WARMUP, MEASURE);
        for ((spec, (sim, stats)), (want_json, want_windows)) in specs
            .iter()
            .zip(sims.into_iter().zip(all))
            .zip(&serial)
        {
            let json = serde_json::to_string(&stats).expect("NetStats serializes");
            prop_assert_eq!(&json, want_json, "NetStats diverged for {:?}", spec);
            let (_, windows) = observe(sim, |_| String::new());
            prop_assert_eq!(&windows, want_windows, "sampler series diverged for {:?}", spec);
        }
    }
}
