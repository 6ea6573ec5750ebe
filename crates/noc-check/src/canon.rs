//! Canonical state abstraction over a running [`Simulation`].
//!
//! A system state is the concatenation, in a fixed scan order, of every
//! behaviour-relevant component: VC occupants (flit counters, allocated
//! routes, saturated blocked-ages), NI queues (source, injection,
//! ejection, regeneration, the injection stream), router-local control
//! state (switch-allocation and class round-robin pointers, the ejection
//! lock), the scripted workload's protocol overlay (backlogs, job
//! status), and whatever the scheme exports through
//! [`Scheme::export_state`](noc_sim::Scheme::export_state).
//!
//! Two normalizations make the state *canonical* — equal for logically
//! identical states reached along different interleavings:
//!
//! * **Packet renaming**: [`PacketId`]s are assigned in creation order,
//!   which is schedule-dependent; every id is replaced by its *job id*
//!   from the simulation's [`ScriptCtl`], which is
//!   schedule-independent.
//! * **Time relativization**: absolute cycle values (ready times, last
//!   progress, regeneration deadlines) are folded as now-relative deltas,
//!   saturated at `age_cap`. Saturation is exact for schemes whose only
//!   time sensitivity is a threshold comparison (choose
//!   `age_cap > threshold`); for age-*ordered* schemes (MinBD's
//!   oldest-first sort) it is a documented over-merge — see DESIGN.md.
//!
//! The digest is FNV-1a over the resulting word stream. The visited set
//! stores only the 64-bit hash; a collision would silently merge two
//! distinct states, which (like every abstraction here) can only cause a
//! missed schedule, never a false counterexample — every reported
//! counterexample is replayed concretely before being believed.

use crate::script::{script, ScriptCtl};
use noc_core::packet::{MessageClass, PacketId, CLASSES};
use noc_core::topology::{NodeId, NUM_PORTS};
use noc_sim::ni::SourceEntry;
use noc_sim::{ExportItem, Simulation, StateExport};

/// Canonicalization knobs.
#[derive(Debug, Clone, Copy)]
pub struct CanonParams {
    /// Saturation bound for now-relative ages/deadlines. Must exceed
    /// every blocked-time threshold the scheme under test compares
    /// against (SPIN detection, Pitstop absorption) for the abstraction
    /// to be exact.
    pub age_cap: u64,
}

impl Default for CanonParams {
    fn default() -> Self {
        CanonParams { age_cap: 16 }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a word folder.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Folds a packet id as its canonical job id. Packets unknown to the
/// script (there should be none) fold as a tagged descriptor of their
/// store record instead, so the digest stays total.
fn fold_pkt(h: &mut Fnv, sim: &Simulation, ctl: &ScriptCtl, pkt: PacketId) {
    fold_job_or(h, ctl, pkt, || {
        let p = sim.core.store.get(pkt);
        [
            p.src.index(),
            p.dst.index(),
            p.class.index(),
            p.len_flits as usize,
        ]
    });
}

/// Folds a source-queue entry of `node`'s `class` queue exactly as
/// [`fold_pkt`] folds the packet it is or will be stored as: a pending
/// record has no store record, but its descriptor words are the same.
fn fold_source(
    h: &mut Fnv,
    sim: &Simulation,
    ctl: &ScriptCtl,
    node: NodeId,
    class: MessageClass,
    entry: SourceEntry,
) {
    match entry {
        SourceEntry::Stored(pkt) => fold_pkt(h, sim, ctl, pkt),
        SourceEntry::Pending(p) => fold_job_or(h, ctl, p.id(), || {
            [
                node.index(),
                p.dst().index(),
                class.index(),
                p.len_flits() as usize,
            ]
        }),
    }
}

/// The job id of `pkt`, or the tagged `[src, dst, class, len]`
/// descriptor `describe` returns.
fn fold_job_or(h: &mut Fnv, ctl: &ScriptCtl, pkt: PacketId, describe: impl FnOnce() -> [usize; 4]) {
    match ctl.job_of(pkt) {
        Some(job) => {
            h.word(2);
            h.word(job);
        }
        None => {
            h.word(3);
            for w in describe() {
                h.word(w as u64);
            }
        }
    }
}

/// Computes the canonical digest of the current state of a simulation
/// driven by a [`ScriptedWorkload`](crate::script::ScriptedWorkload).
///
/// # Panics
///
/// Panics if `sim` runs another workload.
pub fn canon_hash(sim: &Simulation, params: &CanonParams) -> u64 {
    let ctl = script(sim);
    let core = &sim.core;
    let now = core.cycle();
    let cap = params.age_cap;
    let age = |cycle: u64| now.saturating_sub(cycle).min(cap);
    let deadline = |cycle: u64| cycle.saturating_sub(now).min(cap);
    let mut h = Fnv::new();
    let vcs = core.vcs_per_port();

    // ---- VC buffers -----------------------------------------------------
    // The arena's derived words (ready, parked, the per-slot refused
    // masks, the waiter words) are deliberately not folded. `ready` is a
    // function of the counters folded below. The rest is bookkeeping of
    // event-driven allocation that only decides which `route()` calls are
    // *skipped*, and a skipped call is one that would have returned
    // `None` and changed nothing: two states that differ only there have
    // identical futures, so hashing them apart would split one logical
    // state by the path that reached it. Their consistency is checked at
    // every explored state by `audit_conservation` instead.
    //
    // The node work-set words stay out for the same reason, each in its
    // own way. The arena's `occ_nodes` is a function of the occupancy
    // folded below (bit n <=> some slot of node n is occupied). The
    // core's `ni_live` is not even that: it is a lazily-cleared
    // *superset* of the NIs holding anything, so two states with
    // identical NIs can differ in it depending on which NI the consumer
    // last retired — and both words only decide where `node_active` and
    // the consumer *ask*, never what a node does. The audit checks the
    // equivalence for the first and the inclusion for the second.
    //
    // The switch-request words (`NetworkCore::switch_requests`) are a
    // function of the route and the two flit counters folded below (bit
    // set <=> routed to that output and `sent < arrived`), so hashing
    // them would add nothing; the audit checks them against that gather
    // at every explored state. The arbiters that consume them — real
    // state — are folded with the router control state further down.
    for node in core.mesh().nodes() {
        for port in 0..NUM_PORTS {
            let input = core.input(node, port);
            for vc in 0..vcs {
                match input.occupant(vc) {
                    None => h.word(0),
                    Some(occ) => {
                        h.word(1);
                        fold_pkt(&mut h, sim, ctl, occ.pkt);
                        h.word(occ.len as u64);
                        h.word(occ.arrived as u64);
                        h.word(occ.sent as u64);
                        h.word(occ.route.map(|p| p.index() as u64 + 1).unwrap_or(0));
                        h.word(occ.out_vc.map(|v| v as u64 + 1).unwrap_or(0));
                        h.word(age(occ.head_arrival));
                        h.word(age(occ.last_progress));
                    }
                }
            }
        }
    }

    // ---- NIs ------------------------------------------------------------
    for node in core.mesh().nodes() {
        let ni = core.ni(node);
        for class in CLASSES {
            for entry in ni.source_iter(class) {
                fold_source(&mut h, sim, ctl, node, class, entry);
            }
            h.word(u64::MAX);
            for pkt in ni.inj_iter(class) {
                fold_pkt(&mut h, sim, ctl, pkt);
            }
            h.word(u64::MAX);
            for e in ni.ej_iter(class) {
                fold_pkt(&mut h, sim, ctl, e.pkt);
                h.word(deadline(e.ready));
            }
            h.word(u64::MAX);
            h.word(ni.ej_inflight(class) as u64);
            match ni.ej_reservation(class) {
                Some(pkt) => fold_pkt(&mut h, sim, ctl, pkt),
                None => h.word(0),
            }
        }
        match ni.inj_stream {
            Some(s) => {
                h.word(1);
                fold_pkt(&mut h, sim, ctl, s.pkt);
                h.word(s.vc as u64);
                h.word(s.flits_sent as u64);
                h.word(s.len as u64);
            }
            None => h.word(0),
        }
        for (pkt, ready) in ni.regen_iter() {
            fold_pkt(&mut h, sim, ctl, pkt);
            h.word(deadline(ready));
        }
        h.word(u64::MAX);
    }

    // ---- Router control state -------------------------------------------
    for node in core.mesh().nodes() {
        let r = core.router(node);
        for rr in &r.sa_rr {
            h.word(rr.priority() as u64);
        }
        h.word(r.inj_class_rr.priority() as u64);
        match r.eject_lock {
            Some((p, v)) => {
                h.word(1);
                h.word(p as u64);
                h.word(v as u64);
            }
            None => h.word(0),
        }
    }

    // ---- Scripted-workload overlay --------------------------------------
    for &b in &ctl.backlog {
        h.word(b as u64);
    }
    for &inj in &ctl.injected {
        h.word(inj as u64);
    }
    h.word(ctl.consumed);

    // ---- Scheme overlay --------------------------------------------------
    let mut ex = StateExport::new();
    sim.scheme().export_state(core, &mut ex);
    for item in ex.items() {
        match *item {
            ExportItem::Word(w) => {
                h.word(4);
                h.word(w);
            }
            ExportItem::Pkt(p) => fold_pkt(&mut h, sim, ctl, p),
        }
    }

    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_folds_distinct_words_distinctly() {
        let mut a = Fnv::new();
        a.word(1);
        a.word(2);
        let mut b = Fnv::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.0, b.0, "order must matter");
    }
}
