//! Simulation configuration mirroring Table II of the paper.

use crate::topology::{Mesh, NUM_PORTS};
use serde::{Deserialize, Serialize};

/// Key simulation parameters (Table II).
///
/// The defaults reproduce the paper's 8×8 configuration: 1-cycle routers,
/// 5-flit buffers with a single packet per VC (virtual cut-through),
/// 128-bit links, a mix of 1-flit and 5-flit packets.
///
/// # Example
///
/// ```
/// use noc_core::config::SimConfig;
///
/// let cfg = SimConfig::builder()
///     .mesh(8, 8)
///     .vns(0)
///     .vcs_per_vn(4)
///     .seed(7)
///     .build();
/// assert_eq!(cfg.vcs_per_port(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Topology (4×4, 8×8 or 16×16 in the paper).
    pub mesh: Mesh,
    /// Number of virtual networks. 0 means "no VNs": all classes share
    /// the input buffers (FastPass, Pitstop). With `vns = 0` the input
    /// buffer still has `vcs_per_vn` VCs total.
    pub vns: usize,
    /// Virtual channels per VN (or per input buffer when `vns == 0`).
    pub vcs_per_vn: usize,
    /// Buffer depth per VC in flits (Table II: 5).
    pub buffer_flits: usize,
    /// Maximum packet length in flits (Table II mixes 1 and 5).
    pub max_packet_flits: usize,
    /// Capacity of each per-class injection queue at the NI, in packets.
    pub inj_queue_packets: usize,
    /// Capacity of each per-class ejection queue at the NI, in packets.
    pub ej_queue_packets: usize,
    /// Cycles a destination NI takes to consume an ejected packet slot.
    pub ni_consume_cycles: u64,
    /// Cycles before a dropped injection request is regenerated from its
    /// MSHR (§III-C4: regeneration is local and cheap).
    pub mshr_regen_cycles: u64,
    /// RNG seed for deterministic runs.
    pub seed: u64,
}

impl SimConfig {
    /// Starts building a configuration from the Table II defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Total VCs per input port: `max(vns,1) × vcs_per_vn`.
    pub fn vcs_per_port(&self) -> usize {
        self.vns.max(1) * self.vcs_per_vn
    }

    /// Whether this configuration separates message classes into VNs.
    pub fn has_vns(&self) -> bool {
        self.vns > 0
    }

    /// VC index range assigned to `class_index` at an input port.
    ///
    /// With VNs, each class owns a disjoint slice of VCs; without VNs all
    /// classes share the full range (the paper's 0-VN configurations).
    pub fn vc_range_for_class(&self, class_index: usize) -> std::ops::Range<usize> {
        if self.has_vns() {
            let vn = class_index % self.vns;
            vn * self.vcs_per_vn..(vn + 1) * self.vcs_per_vn
        } else {
            0..self.vcs_per_vn
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: packets
    /// must fit in one VC buffer (single-packet-per-VC VCT), all
    /// capacities must be nonzero, and the simulator's packed state must
    /// be able to hold them — one switch-request bit per `(port, VC)` of
    /// a router in a single 64-bit word (so at most 12 VCs per input
    /// port, Table II's largest configuration), and flit counts in bytes
    /// whose value 255 is the "none" sentinel.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vcs_per_vn == 0 {
            return Err(ConfigError("vcs_per_vn must be nonzero"));
        }
        if NUM_PORTS * self.vcs_per_port() > 64 {
            return Err(ConfigError(
                "at most 12 VCs per input port (max(vns, 1) x vcs_per_vn): \
                 a router's NUM_PORTS x VCs switch requesters share one 64-bit word",
            ));
        }
        if self.buffer_flits == 0 {
            return Err(ConfigError("buffer_flits must be nonzero"));
        }
        if self.max_packet_flits >= 255 {
            return Err(ConfigError("max_packet_flits must be below 255"));
        }
        if self.buffer_flits >= 255 {
            return Err(ConfigError("buffer_flits must be below 255"));
        }
        if self.max_packet_flits > self.buffer_flits {
            return Err(ConfigError(
                "max_packet_flits must fit in one VC buffer (single packet per VC)",
            ));
        }
        if self.inj_queue_packets == 0 || self.ej_queue_packets == 0 {
            return Err(ConfigError("NI queues must have nonzero capacity"));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfigBuilder::default().build()
    }
}

/// Error returned by [`SimConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError(&'static str);

impl ConfigError {
    /// An error naming the violated bound, for layers that narrow what
    /// this one accepts (the scheme catalogue bounds the mesh edge).
    pub fn new(bound: &'static str) -> Self {
        ConfigError(bound)
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`SimConfig`] (see [`SimConfig::builder`]).
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            cfg: SimConfig {
                mesh: Mesh::new(8, 8),
                vns: 6,
                vcs_per_vn: 2,
                buffer_flits: 5,
                max_packet_flits: 5,
                inj_queue_packets: 4,
                ej_queue_packets: 4,
                ni_consume_cycles: 1,
                mshr_regen_cycles: 32,
                seed: 0xF457_9A55,
            },
        }
    }
}

impl SimConfigBuilder {
    /// Sets the mesh dimensions.
    ///
    /// # Panics
    ///
    /// Panics where [`Mesh::new`] does: bound dimensions that come from
    /// outside the program before they get here.
    pub fn mesh(mut self, width: usize, height: usize) -> Self {
        self.cfg.mesh = Mesh::new(width, height);
        self
    }

    /// Sets the number of virtual networks (0 = no VNs).
    pub fn vns(mut self, vns: usize) -> Self {
        self.cfg.vns = vns;
        self
    }

    /// Sets the VCs per VN (or per port when `vns == 0`).
    pub fn vcs_per_vn(mut self, vcs: usize) -> Self {
        self.cfg.vcs_per_vn = vcs;
        self
    }

    /// Sets the VC buffer depth in flits.
    pub fn buffer_flits(mut self, flits: usize) -> Self {
        self.cfg.buffer_flits = flits;
        self
    }

    /// Sets the maximum packet length in flits.
    pub fn max_packet_flits(mut self, flits: usize) -> Self {
        self.cfg.max_packet_flits = flits;
        self
    }

    /// Sets the per-class injection queue capacity in packets.
    pub fn inj_queue_packets(mut self, packets: usize) -> Self {
        self.cfg.inj_queue_packets = packets;
        self
    }

    /// Sets the per-class ejection queue capacity in packets.
    pub fn ej_queue_packets(mut self, packets: usize) -> Self {
        self.cfg.ej_queue_packets = packets;
        self
    }

    /// Sets the NI consumption latency per ejected packet.
    pub fn ni_consume_cycles(mut self, cycles: u64) -> Self {
        self.cfg.ni_consume_cycles = cycles;
        self
    }

    /// Sets the MSHR regeneration delay for dropped requests.
    pub fn mshr_regen_cycles(mut self, cycles: u64) -> Self {
        self.cfg.mshr_regen_cycles = cycles;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Finalizes the configuration — the form for VC counts and
    /// capacities that come from outside the program.
    ///
    /// # Errors
    ///
    /// Returns the first constraint [`SimConfig::validate`] finds
    /// violated.
    pub fn try_build(self) -> Result<SimConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// Finalizes the configuration (literal call sites).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SimConfigBuilder::try_build`]).
    pub fn build(self) -> SimConfig {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.mesh.num_nodes(), 64);
        assert_eq!(cfg.vns, 6);
        assert_eq!(cfg.vcs_per_vn, 2);
        assert_eq!(cfg.buffer_flits, 5);
        assert_eq!(cfg.max_packet_flits, 5);
        assert_eq!(cfg.vcs_per_port(), 12);
    }

    #[test]
    fn zero_vn_config_shares_vcs() {
        let cfg = SimConfig::builder().vns(0).vcs_per_vn(4).build();
        assert!(!cfg.has_vns());
        assert_eq!(cfg.vcs_per_port(), 4);
        for c in 0..6 {
            assert_eq!(cfg.vc_range_for_class(c), 0..4);
        }
    }

    #[test]
    fn vn_config_partitions_vcs() {
        let cfg = SimConfig::builder().vns(6).vcs_per_vn(2).build();
        assert_eq!(cfg.vc_range_for_class(0), 0..2);
        assert_eq!(cfg.vc_range_for_class(2), 4..6);
        assert_eq!(cfg.vc_range_for_class(5), 10..12);
        // Ranges are disjoint and cover the whole port.
        let mut covered = vec![false; cfg.vcs_per_port()];
        for c in 0..6 {
            for vc in cfg.vc_range_for_class(c) {
                assert!(!covered[vc]);
                covered[vc] = true;
            }
        }
        assert!(covered.into_iter().all(|b| b));
    }

    #[test]
    fn oversized_packets_rejected() {
        let err = SimConfig::builder()
            .buffer_flits(4)
            .max_packet_flits(5)
            .cfg_validate_err();
        assert!(err.to_string().contains("single packet per VC"));
    }

    impl SimConfigBuilder {
        fn cfg_validate_err(self) -> ConfigError {
            self.try_build().unwrap_err()
        }
    }

    #[test]
    fn more_than_12_vcs_per_port_rejected() {
        let err = SimConfig::builder().vns(6).vcs_per_vn(3).cfg_validate_err();
        assert!(err.to_string().contains("12 VCs"), "{err}");
        let err = SimConfig::builder()
            .vns(0)
            .vcs_per_vn(13)
            .cfg_validate_err();
        assert!(err.to_string().contains("12 VCs"), "{err}");
        // The limit itself is fine, with or without VNs.
        for (vns, vcs_per_vn) in [(0, 12), (6, 2), (4, 3)] {
            let cfg = SimConfig::builder().vns(vns).vcs_per_vn(vcs_per_vn).cfg;
            assert_eq!(cfg.vcs_per_port(), 12);
            assert!(cfg.validate().is_ok(), "vns={vns} vcs_per_vn={vcs_per_vn}");
        }
    }

    #[test]
    fn flit_counts_must_stay_below_the_byte_sentinel() {
        let err = SimConfig::builder()
            .buffer_flits(300)
            .max_packet_flits(255)
            .cfg_validate_err();
        assert!(err.to_string().contains("max_packet_flits"), "{err}");
        let err = SimConfig::builder().buffer_flits(255).cfg_validate_err();
        assert!(
            err.to_string().contains("buffer_flits must be below"),
            "{err}"
        );
        assert!(SimConfig::builder()
            .buffer_flits(254)
            .max_packet_flits(254)
            .cfg
            .validate()
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_vcs_panics_on_build() {
        let _ = SimConfig::builder().vcs_per_vn(0).build();
    }
}
