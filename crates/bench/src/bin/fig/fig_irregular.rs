//! Irregular-mesh figure (§III-F): FastPass on a 4×4 mesh with one
//! channel disabled, certified statically, next to the healthy-mesh
//! latency reference.
//!
//! The simulator substrate executes regular meshes only, so the
//! irregular point itself is covered by proof rather than simulation:
//! `noc-prove` certifies the 4×4-minus-channel topology (holistic-path
//! Eulerian circuit + disjoint lane segmentation, `holistic-lanes`)
//! and a band of seeded fault configurations from the deterministic
//! generator. The healthy 4×4 FastPass curve runs through the shared
//! sweep runner as the baseline the degraded mesh is compared against,
//! and everything lands together in `results/fig_irregular.json`.
//!
//! Under `--serve` the reference sweep goes to a running `nocserve`
//! daemon; the certification legs always run locally (they are proofs,
//! not sweep points). A point that fails certification fails the figure.

use crate::Outcome;
use bench::{run_sweeps, SchemeId, SweepResult, SweepSpec};
use noc_prove::{certify, configs, Certificate};
use serde::Serialize;
use traffic::SyntheticPattern;

/// Number of seeded fault points certified alongside the figure's
/// 4×4-minus-channel topology.
const FAULT_POINTS: usize = 4;

#[derive(Serialize)]
struct FigIrregular {
    /// Healthy-mesh FastPass reference sweep (regular 4×4).
    reference: Vec<SweepResult>,
    /// Static deadlock-freedom certificates: the 4×4-minus-channel
    /// figure point plus the seeded fault band.
    certificates: Vec<Certificate>,
}

pub fn run() -> Outcome {
    println!("== Fig. irregular — FastPass on fault-degraded meshes ==");

    // Healthy-mesh reference: the same 4×4 FastPass configuration the
    // degraded topologies are judged against, on the shared runner.
    let reference = run_sweeps(&[SweepSpec {
        id: SchemeId::FastPass,
        pattern: SyntheticPattern::Uniform,
        rates: vec![0.02, 0.04, 0.06, 0.08, 0.10],
        size: 4,
        fp_vcs: 2,
        warmup: 1_000,
        measure: 3_000,
        seed: 5,
    }])?;
    println!(
        "healthy 4x4 reference: saturation {:.2}, zero-load latency {:.1}",
        reference[0].saturation_rate(),
        reference[0].points[0].avg_latency
    );

    // Certified irregular points: the figure's 4×4-minus-channel mesh
    // plus seeded fault configs from the deterministic generator.
    let mut points = vec![configs::irregular_smoke()];
    points.extend(configs::fault_suite(FAULT_POINTS));
    let certificates: Vec<Certificate> = points.iter().map(certify).collect();
    let mut failed = Vec::new();
    for cert in &certificates {
        println!("  {}", cert.summary());
        if !cert.certified() {
            failed.push(cert.config.as_str());
        }
    }
    if !failed.is_empty() {
        return Err(format!(
            "irregular points failed certification: {}",
            failed.join(", ")
        ));
    }
    Ok(Some(Box::new(FigIrregular {
        reference,
        certificates,
    })))
}
