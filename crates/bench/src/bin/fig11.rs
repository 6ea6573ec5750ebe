//! Fig. 11: post-P&R router power and area (28 nm analytical model),
//! six configurations.
//!
//! Expected shape (paper): FastPass and Pitstop (0 VNs) cut ~40% of the
//! 6-VN routers' area/power; SPIN is the most expensive (+6% detection
//! circuit over EscapeVC); FastPass's own overhead is ~4% of its router.

use bench::emit_json;
use noc_power::fig11_configs;

fn main() {
    bench::serve_client::warn_if_serve_requested("fig11");
    let rows = fig11_configs();
    println!("== Fig. 11 — router area (um^2) and static power (uW) ==");
    println!(
        "{:<10} {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} | {:>9}",
        "Scheme",
        "Config",
        "Buffers",
        "Crossbar",
        "Arbiters",
        "NIQueues",
        "Overhead",
        "AreaTotal",
        "PowerTot"
    );
    for r in &rows {
        println!(
            "{:<10} {:<12} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>10.0} | {:>9.1}",
            r.scheme,
            r.config,
            r.area.buffers,
            r.area.crossbar,
            r.area.arbiters,
            r.area.ni_queues,
            r.area.overhead,
            r.area.total(),
            r.power.total(),
        );
    }
    let escape = rows
        .iter()
        .find(|r| r.scheme == "EscapeVC")
        .expect("Fig. 11 has an EscapeVC row");
    let fp = rows
        .iter()
        .find(|r| r.scheme == "FastPass")
        .expect("Fig. 11 has a FastPass row");
    println!(
        "\nFastPass vs EscapeVC: area -{:.0}% (paper: -40%), power -{:.0}% (paper: -41%)",
        100.0 * (1.0 - fp.area.total() / escape.area.total()),
        100.0 * (1.0 - fp.power.total() / escape.power.total()),
    );
    println!(
        "FastPass overhead: {:.1}% of its router (paper: ~4%)",
        100.0 * fp.area.overhead / fp.area.total()
    );
    let path = emit_json("fig11", &rows).expect("write results");
    println!("JSON written to {}", path.display());
}
