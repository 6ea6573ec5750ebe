//! The [`Scheme`] trait: how flow-control schemes plug into the substrate.

use crate::network::NetworkCore;
use noc_core::packet::PacketId;

/// One item of a scheme's exported overlay state (see
/// [`Scheme::export_state`]).
///
/// Packet references are tagged so an external observer can rename ids
/// into a canonical space; plain words are folded in verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportItem {
    /// An opaque state word (counters, pointers, phases, timers).
    Word(u64),
    /// A reference to a live packet.
    Pkt(PacketId),
}

/// Collector for a scheme's overlay-state digest.
///
/// Schemes push their behaviour-relevant private state (flight tables,
/// pit contents, deflection flits, arbitration pointers…) in a fixed,
/// deterministic order. The model checker folds the items into its
/// canonical state so two network states that differ only in hidden
/// scheme state are never wrongly merged. Timestamps should be exported
/// *relative* to the current cycle (and saturated) so that states
/// reached at different absolute cycles can still canonicalize equal.
#[derive(Debug, Default, Clone)]
pub struct StateExport {
    items: Vec<ExportItem>,
}

impl StateExport {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an opaque state word.
    pub fn word(&mut self, w: u64) {
        self.items.push(ExportItem::Word(w));
    }

    /// Appends a packet reference.
    pub fn pkt(&mut self, p: PacketId) {
        self.items.push(ExportItem::Pkt(p));
    }

    /// The collected items, in push order.
    pub fn items(&self) -> &[ExportItem] {
        &self.items
    }

    /// Number of collected items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing was exported.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A flow-control scheme: FastPass or one of the baselines.
///
/// A scheme owns whatever overlay state it needs (TDM schedules, flights,
/// probes, tokens…) and advances the whole network exactly one cycle per
/// [`step`](Scheme::step) call, typically by doing its own bookkeeping and
/// then delegating to [`regular::advance`](crate::regular::advance).
///
/// The trait is behaviour only. What a scheme *is* — its name, its
/// Table I row, its Table II configuration — lives in the scheme
/// catalogue (`noc_schemes::SchemeId`), one layer up.
///
/// Schemes must be [`Send`]: the bench harness fans independent
/// simulations out across worker threads, moving each `Box<dyn Scheme>`
/// onto the thread that runs it. Keep scheme state in owned containers
/// (no `Rc`, no thread-local interior mutability) — see DESIGN.md's
/// scheme-author checklist.
///
/// Schemes must also be [`Clone`] (through [`SchemeClone`]'s blanket
/// implementation), RNG state included: a cloned
/// [`Simulation`](crate::Simulation) continues exactly as the original
/// would, which is how the model checker forks a search state.
pub trait Scheme: Send + SchemeClone {
    /// Number of virtual networks the scheme requires for protocol-level
    /// deadlock freedom (0 for FastPass and Pitstop, 6 for the rest).
    fn required_vns(&self) -> usize;

    /// Advances the network by one cycle.
    fn step(&mut self, core: &mut NetworkCore);

    /// Packets currently held *outside* the core's buffers (e.g. FastPass
    /// flights in the air, Pitstop pit lanes). Used by conservation
    /// checks.
    fn overlay_packets(&self) -> usize {
        0
    }

    /// Exports the scheme's behaviour-relevant private state (used by the
    /// `noc-check` bounded model checker to canonicalize full system
    /// states). The default exports nothing, which is correct for
    /// stateless schemes; schemes with overlay state (TDM phases, flight
    /// tables, pits, in-air flits) should export it here — cycle-valued
    /// fields as *now-relative* saturated deltas via `core.cycle()`.
    fn export_state(&self, core: &NetworkCore, out: &mut StateExport) {
        let _ = (core, out);
    }
}

/// The object-safe clone hook of [`Scheme`], implemented for every
/// `Clone` scheme: what lets `Box<dyn Scheme>` be [`Clone`].
pub trait SchemeClone {
    /// A boxed deep copy of the scheme.
    fn box_clone(&self) -> Box<dyn Scheme>;
}

impl<T: Scheme + Clone + 'static> SchemeClone for T {
    fn box_clone(&self) -> Box<dyn Scheme> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Scheme> {
    fn clone(&self) -> Self {
        (**self).box_clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests_support::PlainXy;

    #[test]
    fn trait_object_usable() {
        let mut s: Box<dyn Scheme> = Box::new(PlainXy);
        assert_eq!(s.required_vns(), 0);
        assert_eq!(s.overlay_packets(), 0);
        let mut core = NetworkCore::new(
            noc_core::config::SimConfig::builder()
                .mesh(2, 2)
                .vns(0)
                .vcs_per_vn(2)
                .build(),
        );
        s.step(&mut core);
        core.advance_cycle();
        assert_eq!(core.cycle(), 1);
    }
}
