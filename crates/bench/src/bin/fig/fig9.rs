//! Fig. 9: latency breakdown of FastPass-Packets vs. regular packets,
//! Uniform traffic, 1 VC per input buffer, 8×8.
//!
//! Expected shape (paper): the bufferless ("FastPass time") component of
//! FastPass-Packet latency stays small and nearly flat at every
//! injection rate — forward progress every cycle — while the buffered
//! ("regular time") component grows with load; regular packets' total
//! latency grows with load as usual.

use crate::{run_sims, sweep_sims, window, Outcome};
use bench::{SchemeId::FastPass, SweepSpec};
use serde::Serialize;
use traffic::SyntheticPattern;

#[derive(Serialize)]
struct Fig9Row {
    rate: f64,
    regular_avg_latency: f64,
    fastpass_avg_latency: f64,
    fastpass_buffered_time: f64,
    fastpass_bufferless_time: f64,
    fastpass_fraction: f64,
}

pub fn run() -> Outcome {
    let (warmup, measure, size) = window(5_000, 15_000, 8);
    let rates = [0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.16];
    println!("== Fig. 9 — FastPass vs regular packet latency breakdown (uniform, 1 VC) ==");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>14} {:>8}",
        "rate", "reg lat", "fp lat", "fp buffered", "fp bufferless", "fp frac"
    );
    let sims = sweep_sims(&SweepSpec {
        id: FastPass,
        pattern: SyntheticPattern::Uniform,
        rates: rates.into(),
        size,
        fp_vcs: 1,
        warmup,
        measure,
        seed: 11,
    })?;
    let stats = run_sims(sims, move |sim| sim.run_windows(warmup, measure));
    let rows: Vec<Fig9Row> = rates
        .into_iter()
        .zip(stats)
        .map(|(rate, stats)| Fig9Row {
            rate,
            regular_avg_latency: stats.regular_latency.mean().unwrap_or(f64::NAN),
            fastpass_avg_latency: stats.fastpass_latency.mean().unwrap_or(0.0),
            fastpass_buffered_time: stats.fastpass_buffered.mean().unwrap_or(0.0),
            fastpass_bufferless_time: stats.fastpass_bufferless.mean().unwrap_or(0.0),
            fastpass_fraction: stats.fastpass_fraction(),
        })
        .collect();
    for row in &rows {
        println!(
            "{:>6.2} {:>10.1} {:>10.1} {:>12.1} {:>14.1} {:>8.3}",
            row.rate,
            row.regular_avg_latency,
            row.fastpass_avg_latency,
            row.fastpass_buffered_time,
            row.fastpass_bufferless_time,
            row.fastpass_fraction
        );
    }
    // Shape check: bufferless time roughly flat (< 2x spread).
    let bl = rows.iter().map(|r| r.fastpass_bufferless_time);
    let bl = bl.filter(|v| *v > 0.0);
    if let (Some(min), Some(max)) = (bl.clone().reduce(f64::min), bl.reduce(f64::max)) {
        println!(
            "bufferless time range: {min:.1}..{max:.1} cycles (paper: small and flat across rates)"
        );
    }
    Ok(Some(Box::new(rows)))
}
