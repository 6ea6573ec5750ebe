//! The TDM schedule: slots, phases, prime-router rotation (§III-C1).
//!
//! Time is divided into recurring fixed slots of `K` cycles. The mesh's
//! `P` columns are the partitions; each partition has one *prime router*
//! at a time. During slot `t` of a phase, the prime of partition `p` owns
//! an exclusive FastPass-Lane into partition `(p + t) mod P`. A *phase*
//! is `P` slots — after it, every prime has covered every partition — and
//! after each phase the prime role moves one row down within each
//! partition, so every router is eventually prime (Lemma 2).
//!
//! Primes are placed on a shifted diagonal (`row = (p + phase) mod H`),
//! which guarantees no two concurrent primes share a row or a column —
//! the condition §III-E requires for the returning paths to be collision-
//! free.

use noc_core::topology::{Mesh, NodeId, NUM_PORTS};

/// Cycles of slack a launch's round trip keeps beyond its `2·hops +
/// 2·len` flight; the shortest slot keeps it beyond the worst case.
pub const BUDGET_SLACK: u64 = 4;

/// Position within the TDM schedule at some cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotInfo {
    /// Monotone phase counter (increments every `P` slots).
    pub phase: u64,
    /// Slot within the phase, `0..P`.
    pub slot: usize,
    /// Cycle within the slot, `0..K`.
    pub cycle_in_slot: u64,
}

/// The FastPass TDM schedule for a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TdmSchedule {
    mesh: Mesh,
    slot_cycles: u64,
}

impl TdmSchedule {
    /// Creates a schedule with the paper's slot length
    /// `K = 2·#Hops · #Inputs · #VCs` (Qn5), where `#Hops` is the mesh
    /// diameter.
    ///
    /// # Panics
    ///
    /// Panics unless `width <= height`: the shifted-diagonal prime
    /// placement needs at least as many rows as partitions to keep
    /// concurrent primes on distinct rows.
    pub fn new(mesh: Mesh, vcs_per_port: usize) -> Self {
        Self::with_slot_cycles(mesh, Self::paper_slot_cycles(mesh, vcs_per_port))
    }

    /// Creates a schedule with an explicit slot length (tests and
    /// sensitivity studies).
    ///
    /// # Panics
    ///
    /// Panics if `width > height` or the slot is too short for any
    /// round trip (`< 2·diameter + 2·max-packet + BUDGET_SLACK`).
    pub fn with_slot_cycles(mesh: Mesh, slot_cycles: u64) -> Self {
        assert!(
            mesh.width() <= mesh.height(),
            "prime placement requires width <= height (got {}×{})",
            mesh.width(),
            mesh.height()
        );
        let min = Self::min_slot_cycles(mesh);
        assert!(
            slot_cycles >= min,
            "slot of {slot_cycles} cycles cannot fit a worst-case round trip ({min})"
        );
        TdmSchedule { mesh, slot_cycles }
    }

    /// The paper's design-time slot length (Qn5).
    pub fn paper_slot_cycles(mesh: Mesh, vcs_per_port: usize) -> u64 {
        (2 * mesh.diameter() * NUM_PORTS * vcs_per_port.max(1)) as u64
    }

    /// Smallest slot that admits a worst-case rejected round trip:
    /// `2·diameter + 2·max_len + BUDGET_SLACK`.
    pub fn min_slot_cycles(mesh: Mesh) -> u64 {
        (2 * mesh.diameter() + 2 * 5) as u64 + BUDGET_SLACK
    }

    /// The slot length `K`.
    pub fn slot_cycles(self) -> u64 {
        self.slot_cycles
    }

    /// Number of partitions `P` (mesh columns).
    pub fn partitions(self) -> usize {
        self.mesh.width()
    }

    /// Cycles per phase (`K × P`).
    pub fn phase_cycles(self) -> u64 {
        self.slot_cycles * self.partitions() as u64
    }

    /// Cycles for every router to have been prime once
    /// (`K × P × H`).
    pub fn rotation_cycles(self) -> u64 {
        self.phase_cycles() * self.mesh.height() as u64
    }

    /// Decomposes a cycle into its schedule position.
    pub fn slot_info(self, cycle: u64) -> SlotInfo {
        let slot_global = cycle / self.slot_cycles;
        let p = self.partitions() as u64;
        SlotInfo {
            phase: slot_global / p,
            slot: (slot_global % p) as usize,
            cycle_in_slot: cycle % self.slot_cycles,
        }
    }

    /// Cycles remaining in the current slot (including this one).
    pub fn remaining_in_slot(self, cycle: u64) -> u64 {
        self.slot_cycles - (cycle % self.slot_cycles)
    }

    /// Whether `cycle` is the first cycle of a slot (lane handover point;
    /// all flights must have completed).
    pub fn is_slot_boundary(self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.slot_cycles)
    }

    /// The prime router of partition `p` during `phase`.
    pub fn prime(self, p: usize, phase: u64) -> NodeId {
        debug_assert!(p < self.partitions());
        let row = (p + phase as usize) % self.mesh.height();
        self.mesh.node(p, row)
    }

    /// All concurrent primes at `cycle`, indexed by partition.
    pub fn primes(self, cycle: u64) -> Vec<NodeId> {
        let phase = self.slot_info(cycle).phase;
        (0..self.partitions())
            .map(|p| self.prime(p, phase))
            .collect()
    }

    /// The partition covered by partition `p`'s prime at `cycle`.
    pub fn covered_partition(self, p: usize, cycle: u64) -> usize {
        let slot = self.slot_info(cycle).slot;
        (p + slot) % self.partitions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> TdmSchedule {
        TdmSchedule::new(Mesh::new(8, 8), 4)
    }

    #[test]
    fn paper_slot_formula() {
        // 8×8, 4 VCs: 2 × 14 hops × 5 inputs × 4 VCs = 560 (Qn5).
        assert_eq!(TdmSchedule::paper_slot_cycles(Mesh::new(8, 8), 4), 560);
        assert_eq!(sched().slot_cycles(), 560);
        assert_eq!(sched().phase_cycles(), 8 * 560);
        assert_eq!(sched().rotation_cycles(), 8 * 8 * 560);
    }

    #[test]
    fn slot_decomposition() {
        let s = sched();
        assert_eq!(
            s.slot_info(0),
            SlotInfo {
                phase: 0,
                slot: 0,
                cycle_in_slot: 0
            }
        );
        assert_eq!(s.slot_info(559).slot, 0);
        assert_eq!(s.slot_info(560).slot, 1);
        assert_eq!(s.slot_info(8 * 560).phase, 1);
        assert_eq!(s.remaining_in_slot(0), 560);
        assert_eq!(s.remaining_in_slot(559), 1);
        assert!(s.is_slot_boundary(0));
        assert!(s.is_slot_boundary(560));
        assert!(!s.is_slot_boundary(561));
    }

    #[test]
    fn concurrent_primes_never_share_row_or_column() {
        let s = sched();
        let mesh = Mesh::new(8, 8);
        for phase in 0..32 {
            let primes: Vec<_> = (0..8).map(|p| s.prime(p, phase)).collect();
            let mut rows = std::collections::HashSet::new();
            let mut cols = std::collections::HashSet::new();
            for &pr in &primes {
                assert!(rows.insert(mesh.y(pr)), "row collision in phase {phase}");
                assert!(cols.insert(mesh.x(pr)), "column collision in phase {phase}");
            }
        }
    }

    #[test]
    fn every_router_becomes_prime() {
        let s = sched();
        let mesh = Mesh::new(8, 8);
        let mut seen = std::collections::HashSet::new();
        for phase in 0..8 {
            for p in 0..8 {
                seen.insert(s.prime(p, phase));
            }
        }
        assert_eq!(seen.len(), mesh.num_nodes(), "Lemma 2: all routers prime");
    }

    #[test]
    fn every_prime_covers_every_partition_within_a_phase() {
        let s = sched();
        for p in 0..8 {
            let mut covered = std::collections::HashSet::new();
            for slot in 0..8u64 {
                covered.insert(s.covered_partition(p, slot * s.slot_cycles()));
            }
            assert_eq!(covered.len(), 8);
        }
    }

    #[test]
    fn partitions_covered_exactly_once_per_slot() {
        let s = sched();
        for slot in 0..8u64 {
            let cycle = slot * s.slot_cycles();
            let mut covered = std::collections::HashSet::new();
            for p in 0..8 {
                assert!(
                    covered.insert(s.covered_partition(p, cycle)),
                    "two primes cover one partition in slot {slot}"
                );
            }
        }
    }

    #[test]
    fn rectangular_tall_mesh_supported() {
        let s = TdmSchedule::new(Mesh::new(4, 8), 2);
        assert_eq!(s.partitions(), 4);
        for phase in 0..16 {
            let mut rows = std::collections::HashSet::new();
            for p in 0..4 {
                assert!(rows.insert(Mesh::new(4, 8).y(s.prime(p, phase))));
            }
        }
    }

    #[test]
    #[should_panic(expected = "width <= height")]
    fn wide_mesh_rejected() {
        let _ = TdmSchedule::new(Mesh::new(8, 4), 2);
    }

    #[test]
    #[should_panic(expected = "round trip")]
    fn too_short_slot_rejected() {
        let _ = TdmSchedule::with_slot_cycles(Mesh::new(8, 8), 10);
    }
}
