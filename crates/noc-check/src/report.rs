//! Machine-readable checker summaries (the CI artifact).

use crate::explore::{CheckReport, Verdict};
use crate::replay::ReplayResult;
use serde::Serialize;

/// Outcome of one configuration, including replay confirmation when a
/// counterexample was produced.
#[derive(Debug, Serialize)]
pub struct ConfigOutcome {
    /// The exploration report.
    pub report: CheckReport,
    /// Whether the verdict matches the config's expectation.
    pub as_expected: bool,
    /// Replay confirmation (present iff the verdict is a wedge).
    pub replay: Option<ReplayResult>,
    /// Trace artifact file name, relative to the output directory
    /// (present iff a wedge was replayed to disk).
    pub trace_path: Option<String>,
}

/// The full run summary serialized to `summary.json`.
#[derive(Debug, Serialize)]
pub struct Summary {
    /// Tool version (crate version at build time).
    pub version: &'static str,
    /// Which matrices ran.
    pub matrices: Vec<String>,
    /// Per-config outcomes.
    pub configs: Vec<ConfigOutcome>,
    /// Overall pass/fail.
    pub ok: bool,
}

impl Summary {
    /// One-line human rendering of a config outcome that took `seconds`
    /// of wall-clock time to explore (printed, never serialized, so the
    /// summary of two runs of one build is byte-identical).
    pub fn describe(o: &ConfigOutcome, seconds: f64) -> String {
        let verdict = match &o.report.verdict {
            Verdict::DeadlockFree => {
                if o.report.truncated_paths == 0 && !o.report.budget_exhausted {
                    "deadlock-free (exhaustive within bounds)".to_string()
                } else {
                    format!(
                        "deadlock-free (bounded: {} truncated paths{})",
                        o.report.truncated_paths,
                        if o.report.budget_exhausted {
                            ", budget exhausted"
                        } else {
                            ""
                        }
                    )
                }
            }
            Verdict::Wedged(cex) => format!(
                "WEDGE after {} decisions + {} drain cycles ({} of {} consumed, {} in flight)",
                cex.schedule.len(),
                cex.drain_cycles,
                cex.consumed,
                cex.expected,
                cex.in_flight
            ),
            Verdict::InvariantViolation(v) => {
                format!("INVARIANT VIOLATION: {}", v.errors.join("; "))
            }
        };
        let replayed = match &o.replay {
            Some(r) if r.confirmed => " [replay: confirmed bitwise]",
            Some(_) => " [replay: MISMATCH]",
            None => "",
        };
        format!(
            "{:28} {} — {} states, {} nodes, {} terminals, depth {}/{} in {:.1}s{}",
            o.report.name,
            verdict,
            o.report.states_explored,
            o.report.nodes_materialized,
            o.report.terminals_drained,
            o.report.deepest_path,
            o.report.depth_limit,
            seconds,
            replayed
        )
    }
}
