//! Deterministic counterexample replay.
//!
//! The explorer's wedge oracle runs on abstracted state; before a
//! counterexample is believed (or shipped in a report) it is re-executed
//! here, concretely, through a fresh [`Simulation`] with full tracing
//! enabled. The replay re-applies the decision schedule cycle by cycle,
//! runs the same drain, and confirms the wedge reproduces **bitwise**:
//! the canonical state hash at the wedge cycle, the consumption count
//! and the in-flight population must all match the explorer's record.
//! The trace buffer is streamed out as a Chrome/Perfetto JSON artifact
//! so a human can open the exact deadlocked execution in a timeline
//! viewer.

use crate::canon::canon_hash;
use crate::explore::{decide, materialize, CheckConfig, Counterexample};
use crate::script::script;
use noc_trace::chrome::write_tracer;
use noc_trace::{ChromeWriter, TraceConfig};
use serde::Serialize;
use std::io::{self, Write};

/// Result of replaying a counterexample.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayResult {
    /// Whether the wedge reproduced bitwise (hash + consumed + in-flight
    /// all equal to the explorer's record).
    pub confirmed: bool,
    /// Canonical state hash at the replayed wedge cycle.
    pub state_hash: u64,
    /// Consumptions at the replayed wedge cycle.
    pub consumed: u64,
    /// In-flight packets at the replayed wedge cycle.
    pub in_flight: usize,
    /// Mismatch descriptions (empty when confirmed).
    pub mismatches: Vec<String>,
}

/// Re-executes `cex` against a fresh simulation of `cc` with full
/// tracing, streams the Chrome-trace JSON of the whole doomed execution
/// (compact layout) onto `trace`, and returns the confirmation result.
///
/// # Errors
///
/// Propagates `trace`'s write errors.
pub fn replay(
    cc: &CheckConfig,
    cex: &Counterexample,
    trace: impl Write,
) -> io::Result<ReplayResult> {
    // From cycle 0, not from a clone of an explored state: tracing is on
    // from the first cycle, and the run shares nothing with the search.
    let mut sim = materialize(cc);
    sim.set_trace(&TraceConfig::full());
    for &d in &cex.schedule {
        decide(&mut sim, d);
    }
    for _ in 0..cex.drain_cycles {
        sim.step();
    }

    let state_hash = canon_hash(&sim, &cc.canon);
    let consumed = script(&sim).consumed;
    let in_flight = sim.in_flight();

    let mut mismatches = Vec::new();
    if sim.core.cycle() != cex.wedge_cycle {
        mismatches.push(format!(
            "cycle: replay {} vs recorded {}",
            sim.core.cycle(),
            cex.wedge_cycle
        ));
    }
    if state_hash != cex.state_hash {
        mismatches.push(format!(
            "state hash: replay {state_hash:#018x} vs recorded {:#018x}",
            cex.state_hash
        ));
    }
    if consumed != cex.consumed {
        mismatches.push(format!(
            "consumed: replay {consumed} vs recorded {}",
            cex.consumed
        ));
    }
    if in_flight != cex.in_flight {
        mismatches.push(format!(
            "in-flight: replay {in_flight} vs recorded {}",
            cex.in_flight
        ));
    }

    let mut out = ChromeWriter::compact(trace);
    write_tracer(&mut out, sim.tracer())?;
    out.finish()?;
    Ok(ReplayResult {
        confirmed: mismatches.is_empty(),
        state_hash,
        consumed,
        in_flight,
        mismatches,
    })
}
