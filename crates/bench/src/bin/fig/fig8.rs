//! Fig. 8: saturation throughput as the network scales (4×4, 8×8,
//! 16×16), Transpose traffic, 4 VCs for FastPass.
//!
//! Expected shape (paper): FastPass wins at every size and its margin
//! *grows* with size (more partitions ⇒ more concurrent FastPass-Lanes):
//! +17% over SWAP at 4×4, +67% at 8×8, +78% at 16×16. SPIN is lowest
//! everywhere (detection latency scales with size).
//!
//! Under `--serve` the sweeps go to a running `nocserve` daemon.

use crate::{scheme_header, window, Outcome, FIVE_SCHEMES};
use bench::{run_sweeps, SweepSpec};
use serde::Serialize;
use traffic::SyntheticPattern;

#[derive(Serialize)]
struct Fig8Row {
    scheme: String,
    size: usize,
    saturation_throughput: f64,
}

pub fn run() -> Outcome {
    let (warmup, measure, _) = window(4_000, 10_000, 0);
    // Each size with the paper's FastPass/SWAP ratio there.
    let sizes = [(4usize, "1.17"), (8, "1.67"), (16, "1.78")];
    let rates: Vec<f64> = (1..=12).map(|i| 0.02 * i as f64).collect();
    let mut specs = Vec::new();
    for (size, _) in sizes {
        for id in FIVE_SCHEMES {
            specs.push(SweepSpec {
                id,
                pattern: SyntheticPattern::Transpose,
                rates: rates.clone(),
                size,
                fp_vcs: 4,
                warmup,
                measure,
                seed: 7,
            });
        }
    }
    let rows: Vec<Fig8Row> = specs
        .iter()
        .zip(run_sweeps(&specs)?)
        .map(|(spec, r)| {
            // Accepted throughput at the saturation rate.
            let sat = r.saturation_rate();
            let points = r.points.iter().filter(|p| p.rate <= sat + 1e-9);
            Fig8Row {
                scheme: spec.id.name().to_string(),
                size: spec.size,
                saturation_throughput: points.map(|p| p.throughput).fold(0.0_f64, f64::max),
            }
        })
        .collect();
    println!("== Fig. 8 — saturation throughput vs network size (transpose) ==");
    scheme_header(&format!("{:>6}", "size"), &FIVE_SCHEMES);
    let by_size = || sizes.iter().zip(rows.chunks(FIVE_SCHEMES.len()));
    for ((size, _), row) in by_size() {
        print!("{size:>4}x{size:<2}");
        for r in row {
            print!("{:>10.3}", r.saturation_throughput);
        }
        println!();
    }
    // Shape summary.
    for ((size, paper), row) in by_size() {
        let get = |name: &str| {
            let r = row.iter().find(|r| r.scheme == name);
            r.map_or(f64::NAN, |r| r.saturation_throughput)
        };
        println!(
            "{size}x{size}: FastPass/SWAP = {:.2} (paper: {paper})",
            get("FastPass") / get("SWAP")
        );
    }
    Ok(Some(Box::new(rows)))
}
