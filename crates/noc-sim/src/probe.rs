//! Phase profiling hooks: *where* does a simulated cycle go?
//!
//! The engine and the regular pipeline bracket their stages with
//! [`PhaseProbe::begin`]/[`PhaseProbe::end`] calls, routed through
//! [`NetworkCore::probe_begin`](crate::NetworkCore::probe_begin) /
//! [`probe_end`](crate::NetworkCore::probe_end). With no probe installed
//! (the default) each hook is a single predicted branch — the same
//! discipline as the trace hooks, so the hot path stays at its
//! benchmarked speed.
//!
//! This crate deliberately contains **no timing implementation**: the
//! determinism contract (enforced by `noc-lint`) bans wall-clock reads
//! in simulation crates, because a time-dependent branch anywhere in the
//! pipeline would make runs irreproducible. The probe *interface* lives
//! here; the `std::time::Instant`-based implementation lives in
//! `crates/bench`, outside the lint's determinism scope, and only ever
//! observes.
//!
//! Phases may nest: `SchemeStep` brackets the whole scheme step, and the
//! regular pipeline's stage phases (`RouteAlloc`, `SwitchAlloc`, `Eject`,
//! `Inject`, `ApplyStaged`) fire inside it. `Eject` additionally nests
//! inside `SwitchAlloc`, because ejection is the Local-output leg of
//! switch allocation. Implementations that want exclusive per-phase time
//! must therefore attribute *self time* (time spent in a phase minus its
//! nested phases), which a begin/end stack makes straightforward.

/// A bracketed region of the per-cycle pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Workload packet generation (`Workload::tick`).
    WorkloadTick,
    /// The scheme's whole step (contains the pipeline stage phases).
    SchemeStep,
    /// Route computation + downstream VC allocation.
    RouteAlloc,
    /// Switch allocation + link traversal (contains `Eject`).
    SwitchAlloc,
    /// Ejection into the NI (the Local-output leg of switch allocation).
    Eject,
    /// NI injection into router input VCs.
    Inject,
    /// End-of-cycle application of staged flit arrivals.
    ApplyStaged,
    /// Engine-side NI consumption (delivery to the simulated cores).
    NiConsume,
}

impl Phase {
    /// Number of phases (sizes fixed per-phase accumulator arrays).
    pub const COUNT: usize = 8;

    /// All phases, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::WorkloadTick,
        Phase::SchemeStep,
        Phase::RouteAlloc,
        Phase::SwitchAlloc,
        Phase::Eject,
        Phase::Inject,
        Phase::ApplyStaged,
        Phase::NiConsume,
    ];

    /// Dense index in `[0, COUNT)` for accumulator arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label (JSON keys, reports).
    pub fn label(self) -> &'static str {
        match self {
            Phase::WorkloadTick => "workload_tick",
            Phase::SchemeStep => "scheme_step",
            Phase::RouteAlloc => "route_alloc",
            Phase::SwitchAlloc => "switch_alloc",
            Phase::Eject => "eject",
            Phase::Inject => "inject",
            Phase::ApplyStaged => "apply_staged",
            Phase::NiConsume => "ni_consume",
        }
    }
}

/// Observer bracketing pipeline phases.
///
/// Implementations must be pure observers: a probe receives no simulator
/// state and must not influence any, so a probed run produces bitwise
/// identical [`NetStats`](noc_core::stats::NetStats) to an unprobed one.
/// `Send` for the same reason schemes are — simulations move across bench
/// worker threads whole.
///
/// `begin`/`end` calls are properly nested per the phase tree described
/// in the [module docs](self): every `end(p)` matches the most recent
/// unmatched `begin(p)`.
pub trait PhaseProbe: Send {
    /// A phase was entered.
    fn begin(&mut self, phase: Phase);
    /// The most recently entered phase was left.
    fn end(&mut self, phase: Phase);
}

/// A probe that records begin/end call counts per phase — used by tests
/// to prove the hooks fire, balance, and nest correctly. Not a timer.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct CountingProbe {
    /// `begin` calls per phase, indexed by [`Phase::index`].
    pub(crate) begins: [u64; Phase::COUNT],
    /// `end` calls per phase, indexed by [`Phase::index`].
    pub(crate) ends: [u64; Phase::COUNT],
    depth: usize,
    /// Maximum observed nesting depth.
    pub(crate) max_depth: usize,
}

#[cfg(test)]
impl PhaseProbe for CountingProbe {
    fn begin(&mut self, phase: Phase) {
        self.begins[phase.index()] += 1;
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
    }

    fn end(&mut self, phase: Phase) {
        self.ends[phase.index()] += 1;
        self.depth = self.depth.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_labeled() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "ALL must be in index order");
            assert!(!p.label().is_empty());
        }
        let mut labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::COUNT, "labels must be unique");
    }

    #[test]
    fn counting_probe_tracks_depth() {
        let mut p = CountingProbe::default();
        p.begin(Phase::SchemeStep);
        p.begin(Phase::SwitchAlloc);
        p.begin(Phase::Eject);
        p.end(Phase::Eject);
        p.end(Phase::SwitchAlloc);
        p.end(Phase::SchemeStep);
        assert_eq!(p.max_depth, 3);
        assert_eq!(p.begins, p.ends);
    }
}
