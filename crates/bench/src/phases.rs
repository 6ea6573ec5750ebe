//! Wall-clock phase profiling: the `std::time::Instant` implementation
//! of [`PhaseProbe`].
//!
//! The probe *interface* lives in `noc-sim` (`noc_sim::probe`), which —
//! like every simulation crate — is barred from reading the wall clock
//! by the determinism lint. This module is the other half: a probe that
//! attributes elapsed time to pipeline phases, so the repo benchmark's
//! traced run (`noc-sim.phase.*` rows) can report *where* cycles/sec go
//! instead of just the total.
//!
//! Attribution is **self time**: phases nest (`Eject` inside
//! `SwitchAlloc` inside `SchemeStep`), and each nanosecond lands in the
//! innermost open phase only, so the per-phase numbers sum to the total
//! bracketed time with no double counting. Time outside any phase
//! (loop overhead, `advance_cycle`) is tracked separately as
//! `unattributed`.
//!
//! The accumulator is shared (`Arc<Mutex<...>>`) rather than owned by
//! the boxed probe, so the caller keeps a handle to read results after
//! the run without downcasting the trait object. The mutex is
//! uncontended (one simulation, one thread) — its cost is part of the
//! measured hook overhead, which is fine: phase profiling is a
//! diagnostic mode, never enabled in headline benchmarks.

use noc_sim::{Phase, PhaseProbe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-phase self-time accumulators, indexed by [`Phase::index`].
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    /// Self time per phase, nanoseconds.
    pub nanos: [u64; Phase::COUNT],
    /// `begin` calls per phase.
    pub calls: [u64; Phase::COUNT],
    /// Time inside the outermost brackets not attributed to any phase.
    pub unattributed_nanos: u64,
}

impl PhaseTimes {
    /// Total attributed self time, nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `(phase, self_nanos, calls)` rows sorted by descending self time.
    pub fn ranked(&self) -> Vec<(Phase, u64, u64)> {
        let mut rows: Vec<(Phase, u64, u64)> = Phase::ALL
            .iter()
            .map(|&p| (p, self.nanos[p.index()], self.calls[p.index()]))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Human-readable per-phase breakdown (one line per phase, largest
    /// first, with percentage of attributed time).
    pub fn report(&self) -> String {
        let total = self.total_nanos().max(1);
        let mut out = String::new();
        for (p, ns, calls) in self.ranked() {
            out.push_str(&format!(
                "{:>14}  {:>9.1} ms  {:>5.1}%  ({} calls)\n",
                p.label(),
                ns as f64 / 1e6,
                100.0 * ns as f64 / total as f64,
                calls
            ));
        }
        out.push_str(&format!(
            "{:>14}  {:>9.1} ms\n",
            "unattributed",
            self.unattributed_nanos as f64 / 1e6
        ));
        out
    }
}

/// A [`PhaseProbe`] that measures wall-clock self time per phase.
pub struct WallProbe {
    times: Arc<Mutex<PhaseTimes>>,
    /// Open phases, innermost last. Capacity covers the deepest real
    /// nesting (engine → scheme → pipeline stage → eject) with slack.
    stack: Vec<Phase>,
    mark: Instant,
}

impl WallProbe {
    /// Creates a probe and the shared handle its results are read from.
    pub fn new() -> (WallProbe, Arc<Mutex<PhaseTimes>>) {
        let times = Arc::new(Mutex::new(PhaseTimes::default()));
        (WallProbe::sharing(&times), times)
    }

    /// Creates a probe accumulating into an existing handle, so one
    /// accumulator can aggregate phases across many simulations (a
    /// sweep attaches a fresh probe per point).
    pub fn sharing(times: &Arc<Mutex<PhaseTimes>>) -> WallProbe {
        WallProbe {
            times: Arc::clone(times),
            stack: Vec::with_capacity(8),
            mark: Instant::now(),
        }
    }

    fn attribute_since_mark(&mut self, now: Instant) {
        let ns = now.duration_since(self.mark).as_nanos() as u64;
        let mut t = self.times.lock().expect("phase accumulator lock");
        match self.stack.last() {
            Some(&p) => t.nanos[p.index()] += ns,
            None => t.unattributed_nanos += ns,
        }
    }
}

impl PhaseProbe for WallProbe {
    fn begin(&mut self, phase: Phase) {
        let now = Instant::now();
        // Time since the last event belongs to the enclosing phase, or —
        // with no phase open — to the unattributed bucket (advance_cycle,
        // loop overhead, and the gap before the first cycle).
        self.attribute_since_mark(now);
        self.stack.push(phase);
        self.times.lock().expect("phase accumulator lock").calls[phase.index()] += 1;
        self.mark = now;
    }

    fn end(&mut self, phase: Phase) {
        let now = Instant::now();
        self.attribute_since_mark(now);
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(phase), "unbalanced phase end");
        let _ = phase;
        self.mark = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_attribution_with_nesting() {
        let (mut probe, times) = WallProbe::new();
        let spin = || {
            let t = Instant::now();
            while t.elapsed().as_micros() < 200 {}
        };
        probe.begin(Phase::SchemeStep);
        spin(); // -> SchemeStep
        probe.begin(Phase::SwitchAlloc);
        spin(); // -> SwitchAlloc
        probe.begin(Phase::Eject);
        spin(); // -> Eject
        probe.end(Phase::Eject);
        probe.end(Phase::SwitchAlloc);
        spin(); // -> SchemeStep again
        probe.end(Phase::SchemeStep);
        let t = times.lock().expect("lock");
        assert!(t.nanos[Phase::SchemeStep.index()] >= 2 * 150_000);
        assert!(t.nanos[Phase::SwitchAlloc.index()] >= 150_000);
        assert!(t.nanos[Phase::Eject.index()] >= 150_000);
        assert_eq!(t.calls[Phase::SchemeStep.index()], 1);
        assert_eq!(t.calls[Phase::Eject.index()], 1);
        // Ranked rows cover every phase exactly once.
        assert_eq!(t.ranked().len(), Phase::COUNT);
        let report = t.report();
        assert!(report.contains("scheme_step"), "{report}");
        assert!(report.contains("unattributed"), "{report}");
    }

    #[test]
    fn probe_profiles_a_real_simulation() {
        use crate::runner::make_sim;
        use crate::SchemeId;
        use traffic::SyntheticPattern;

        let (probe, times) = WallProbe::new();
        let mut sim = make_sim(SchemeId::FastPass, SyntheticPattern::Uniform, 0.05, 4, 2, 5);
        sim.set_probe(Box::new(probe));
        sim.run_windows(200, 800);
        let t = times.lock().expect("lock");
        assert_eq!(t.calls[Phase::WorkloadTick.index()], 1_000);
        assert_eq!(t.calls[Phase::SchemeStep.index()], 1_000);
        assert!(
            t.total_nanos() > 0,
            "a real run must attribute nonzero time"
        );
    }
}
