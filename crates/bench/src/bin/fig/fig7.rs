//! Fig. 7: average packet latency vs. injection rate for synthetic
//! traffic on an 8×8 mesh — Transpose, Shuffle and Bit-rotation panels
//! plus the Uniform data series, all eight schemes.
//!
//! FastPass runs with 4 VCs per input buffer and 0 VNs; the VN-based
//! baselines use 6 VNs × 2 VCs (Table II). Expected shape (paper):
//! SPIN and TFC saturate first, then MinBD/EscapeVC, then the periodic
//! schemes (SWAP/DRAIN/Pitstop), with FastPass sustaining ~1.8× SPIN/TFC
//! and up to ~51% more than the periodic group.
//!
//! Under `--serve` the sweeps go to a running `nocserve` daemon; the
//! emitted JSON is bitwise identical either way.

use crate::{scheme_header, window, Outcome};
use bench::{run_sweeps, SweepSpec, ALL_SCHEMES};
use traffic::SyntheticPattern::{BitRotation, Shuffle, Transpose, Uniform};

pub fn run() -> Outcome {
    let (warmup, measure, size) = window(5_000, 15_000, 8);
    // The paper sweeps 0.02..0.46 with a mostly-1-flit mix; this
    // substrate's 50/50 1-/5-flit mix shifts saturation to ~1/3 of those
    // rates, so the sweep samples the same knee region proportionally.
    let rates: Vec<f64> = (1..=12).map(|i| 0.015 * i as f64).collect();
    let patterns = [Transpose, Shuffle, BitRotation, Uniform];
    let mut specs = Vec::new();
    for pattern in patterns {
        for id in ALL_SCHEMES {
            specs.push(SweepSpec {
                id,
                pattern,
                rates: rates.clone(),
                size,
                fp_vcs: 4,
                warmup,
                measure,
                seed: 99,
            });
        }
    }
    let all = run_sweeps(&specs)?;
    for (pattern, results) in patterns.iter().zip(all.chunks(ALL_SCHEMES.len())) {
        println!(
            "== Fig. 7 ({}) — avg latency vs injection rate ==",
            pattern.name()
        );
        scheme_header(&format!("{:>6}", "rate"), &ALL_SCHEMES);
        for (i, &rate) in rates.iter().enumerate() {
            print!("{rate:>6.2}");
            for r in results {
                let lat = r.points[i].avg_latency;
                if lat.is_finite() && lat < 10_000.0 {
                    print!("{lat:>10.1}");
                } else {
                    print!("{:>10}", "sat");
                }
            }
            println!();
        }
        println!("saturation rates (first rate with latency > 3x zero-load):");
        for r in results {
            println!("  {:<10} {:.2}", r.scheme, r.saturation_rate());
        }
        let sat = |name: &str| {
            let r = results.iter().find(|r| r.scheme == name);
            r.expect("Fig. 7 runs every scheme").saturation_rate()
        };
        println!(
            "  FastPass/SPIN saturation ratio: {:.2} (paper: ~1.8x)",
            sat("FastPass") / sat("SPIN").max(1e-9)
        );
        println!(
            "  FastPass/SWAP saturation ratio: {:.2} (paper: up to ~1.5x)",
            sat("FastPass") / sat("SWAP").max(1e-9)
        );
        println!();
    }
    Ok(Some(Box::new(all)))
}
