//! Fig. 11: post-P&R router power and area (28 nm analytical model),
//! six configurations.
//!
//! Expected shape (paper): FastPass and Pitstop (0 VNs) cut ~40% of the
//! 6-VN routers' area/power; SPIN is the most expensive (+6% detection
//! circuit over EscapeVC); FastPass's own overhead is ~4% of its router.

use crate::Outcome;
use noc_power::fig11_configs;

pub fn run() -> Outcome {
    let rows = fig11_configs();
    println!("== Fig. 11 — router area (um^2) and static power (uW) ==");
    let parts = ["Buffers", "Crossbar", "Arbiters", "NIQueues", "Overhead"];
    let parts: String = parts.iter().map(|p| format!(" {p:>9}")).collect();
    let (scheme, config, area, power) = ("Scheme", "Config", "AreaTotal", "PowerTot");
    println!("{scheme:<10} {config:<12}{parts} {area:>10} | {power:>9}");
    for r in &rows {
        let a = &r.area;
        let parts = [a.buffers, a.crossbar, a.arbiters, a.ni_queues, a.overhead];
        let parts: String = parts.iter().map(|p| format!(" {p:>9.0}")).collect();
        let (area, power) = (a.total(), r.power.total());
        println!(
            "{:<10} {:<12}{parts} {area:>10.0} | {power:>9.1}",
            r.scheme, r.config
        );
    }
    let row = |name: &str| rows.iter().find(|r| r.scheme == name).expect("Fig. 11 row");
    let (escape, fp) = (row("EscapeVC"), row("FastPass"));
    println!(
        "\nFastPass vs EscapeVC: area -{:.0}% (paper: -40%), power -{:.0}% (paper: -41%)",
        100.0 * (1.0 - fp.area.total() / escape.area.total()),
        100.0 * (1.0 - fp.power.total() / escape.power.total()),
    );
    println!(
        "FastPass overhead: {:.1}% of its router (paper: ~4%)",
        100.0 * fp.area.overhead / fp.area.total()
    );
    Ok(Some(Box::new(rows)))
}
