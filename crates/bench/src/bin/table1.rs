//! Table I: qualitative comparison of deadlock-freedom solutions.
//!
//! Printed from the scheme catalogue's `SchemeId::properties()`, where
//! each row is stated once.

use bench::ALL_SCHEMES;

fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        " - "
    }
}

fn main() {
    bench::serve_client::warn_if_serve_requested("table1");
    println!("Table I: Comparison of deadlock freedom solutions");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Scheme",
        "NoDetect",
        "ProtoDF",
        "NetDF",
        "PathDiv",
        "HighThpt",
        "LowPower",
        "Scalable",
        "NoMisrt"
    );
    for id in ALL_SCHEMES {
        // MinBD is not in the paper's Table I but is shown for
        // completeness; the six Table I rows plus TFC/MinBD.
        let p = id.properties();
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            id.name(),
            tick(p.no_detection),
            tick(p.protocol_deadlock_freedom),
            tick(p.network_deadlock_freedom),
            tick(p.full_path_diversity),
            tick(p.high_throughput),
            tick(p.low_power),
            tick(p.scalable),
            tick(p.no_misrouting),
        );
    }
    println!("\nFastPass is the only row with every property (paper's Table I).");
}
