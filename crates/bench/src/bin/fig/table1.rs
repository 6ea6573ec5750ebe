//! Table I: qualitative comparison of deadlock-freedom solutions.
//!
//! Printed from the scheme catalogue's `SchemeId::properties()`, where
//! each row is stated once.

use crate::Outcome;
use bench::ALL_SCHEMES;

/// One cell per column, each right-aligned in 9 after a space.
fn cells(values: [&str; 8]) -> String {
    values.iter().map(|v| format!(" {v:>9}")).collect()
}

pub fn run() -> Outcome {
    println!("Table I: Comparison of deadlock freedom solutions");
    let columns = [
        "NoDetect", "ProtoDF", "NetDF", "PathDiv", "HighThpt", "LowPower", "Scalable", "NoMisrt",
    ];
    println!("{:<10}{}", "Scheme", cells(columns));
    for id in ALL_SCHEMES {
        // MinBD is not in the paper's Table I but is shown for
        // completeness; the six Table I rows plus TFC/MinBD.
        let p = id.properties();
        let row = [
            p.no_detection,
            p.protocol_deadlock_freedom,
            p.network_deadlock_freedom,
            p.full_path_diversity,
            p.high_throughput,
            p.low_power,
            p.scalable,
            p.no_misrouting,
        ];
        println!(
            "{:<10}{}",
            id.name(),
            cells(row.map(|b| if b { "yes" } else { " - " }))
        );
    }
    println!("\nFastPass is the only row with every property (paper's Table I).");
    Ok(None)
}
