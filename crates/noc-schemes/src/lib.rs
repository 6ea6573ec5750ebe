//! The scheme catalogue: what each scheme of the paper's comparison
//! *is* — its name, its Table I row, its Table II configuration, its
//! constructor, its routing discipline — stated once, on the scheme
//! layer, below everything that runs or verifies a scheme. A
//! `noc_sim::Scheme` is only what the scheme does each cycle.
//!
//! Three consumers read it and restate none of it: the sweep library
//! (`noc_serve::registry` is this crate) runs figures and the benchmark
//! through [`SchemeId::sim_config`] / [`SchemeId::build`]; the static
//! certifier (`noc-prove`) and the bounded model checker (`noc-check`)
//! both take their small-mesh configurations from [`verify_points`] and
//! their routing discipline from [`SchemeId::policy_kind`], so a
//! certificate and an exploration are about the same object by
//! construction.

#![warn(missing_docs)]

mod verify;

pub use verify::{verify_points, VerifyPoint};

use baselines::{
    drain::DrainConfig, minbd::MinBdConfig, pitstop::PitstopConfig, spin::SpinConfig,
    swap::SwapConfig, CreditVct, Drain, EscapeVc, MinBd, Pitstop, Spin, Swap, Tfc,
};
use fastpass::{FastPass, FastPassConfig};
use noc_core::config::{ConfigError, SimConfig};
use noc_sim::routing::introspect::PolicyKind;
use noc_sim::Scheme;

/// Every scheme of the paper's comparison, in Fig. 7 legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeId {
    /// EscapeVC (VN=6, VC=2).
    EscapeVc,
    /// SPIN (VN=6, VC=2, detection threshold 128).
    Spin,
    /// SWAP (VN=6, VC=2, swap duty 1K).
    Swap,
    /// DRAIN (VN=6, VC=2; the period is scaled to the run length the
    /// same way the paper's 64K relates to its full-system runs).
    Drain,
    /// Pitstop (VN=0, VC=2).
    Pitstop,
    /// MinBD (bufferless deflection).
    MinBd,
    /// TFC (VN=6, VC=2).
    Tfc,
    /// FastPass (VN=0; VC per experiment: 1, 2 or 4).
    FastPass,
    /// Plain credit-based VCT with XY routing (VN=6, VC=2). Not part of
    /// the paper's comparison (hence not in [`ALL_SCHEMES`]); used as the
    /// substrate sanity baseline in the CI smoke sweep.
    Vct,
}

/// All schemes in Fig. 7 order.
pub const ALL_SCHEMES: [SchemeId; 8] = [
    SchemeId::EscapeVc,
    SchemeId::Spin,
    SchemeId::Swap,
    SchemeId::Drain,
    SchemeId::Pitstop,
    SchemeId::MinBd,
    SchemeId::Tfc,
    SchemeId::FastPass,
];

/// Qualitative properties of a deadlock-freedom solution: one row of the
/// paper's Table I, fields in its column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeProperties {
    /// Needs no deadlock detection circuit.
    pub no_detection: bool,
    /// Free of protocol-level deadlock without relying on VNs.
    pub protocol_deadlock_freedom: bool,
    /// Free of network-level deadlock.
    pub network_deadlock_freedom: bool,
    /// Routing retains full (minimal) path diversity.
    pub full_path_diversity: bool,
    /// Delivers high throughput at saturation.
    pub high_throughput: bool,
    /// Low buffering cost (no VNs / few VCs).
    pub low_power: bool,
    /// Resolution cost does not grow with network size.
    pub scalable: bool,
    /// Never misroutes packets.
    pub no_misrouting: bool,
}

/// The schemes' own parameter structs, as [`SchemeId::build_tuned`]
/// hands them to the constructors. The default is what every figure
/// runs (Table II; DRAIN's period scaled as noted); a verification
/// point overrides the fields whose Table II thresholds outlast a
/// small-mesh exploration window.
#[derive(Debug, Clone, Copy)]
pub struct Tuning {
    /// SPIN detection parameters.
    pub spin: SpinConfig,
    /// SWAP duty and eligibility threshold.
    pub swap: SwapConfig,
    /// DRAIN epoch period and ring step.
    pub drain: DrainConfig,
    /// Pitstop class rotation and pit sizing.
    pub pitstop: PitstopConfig,
    /// MinBD side buffer and eject bandwidth.
    pub minbd: MinBdConfig,
    /// FastPass slot override and pipeline depth.
    pub fastpass: FastPassConfig,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            spin: SpinConfig::default(),
            swap: SwapConfig::default(),
            drain: DrainConfig {
                // Scaled from the paper's 64K so drains actually
                // occur within bench-length runs.
                period: 8_000,
                ..DrainConfig::default()
            },
            pitstop: PitstopConfig::default(),
            minbd: MinBdConfig::default(),
            fastpass: FastPassConfig::default(),
        }
    }
}

impl SchemeId {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeId::EscapeVc => "EscapeVC",
            SchemeId::Spin => "SPIN",
            SchemeId::Swap => "SWAP",
            SchemeId::Drain => "DRAIN",
            SchemeId::Pitstop => "Pitstop",
            SchemeId::MinBd => "MinBD",
            SchemeId::Tfc => "TFC",
            SchemeId::FastPass => "FastPass",
            SchemeId::Vct => "VCT-XY",
        }
    }

    /// The inverse of [`SchemeId::name`], case-insensitively — the wire
    /// protocol and `nocctl` spell schemes by name. Returns `None` for
    /// unknown names.
    pub fn parse(name: &str) -> Option<SchemeId> {
        ALL_SCHEMES
            .into_iter()
            .chain([SchemeId::Vct])
            .find(|id| id.name().eq_ignore_ascii_case(name))
    }

    /// The scheme's row of Table I.
    pub fn properties(self) -> SchemeProperties {
        const Y: bool = true;
        const N: bool = false;
        // Columns in Table I's order: no detection, protocol deadlock
        // freedom, network deadlock freedom, full path diversity, high
        // throughput, low power, scalable, no misrouting.
        let row = match self {
            // Path diversity: not within the escape VC; power: 6 VNs.
            SchemeId::EscapeVc => [Y, N, Y, N, N, N, Y, Y],
            // Requires detection; the probe round trip scales poorly.
            SchemeId::Spin => [N, N, Y, Y, N, N, N, Y],
            // The displaced packet is misrouted.
            SchemeId::Swap => [Y, N, Y, Y, N, N, Y, N],
            // Protocol freedom: works with 0 VNs in principle, but needs
            // non-minimal buffers [13].
            SchemeId::Drain => [Y, Y, Y, Y, N, N, N, N],
            // Single class, single bypass at a time: neither high
            // throughput nor scalable.
            SchemeId::Pitstop => [Y, Y, Y, Y, N, Y, N, Y],
            // Bufferless: no buffer cycles, but deflections waste
            // bandwidth.
            SchemeId::MinBd => [Y, Y, Y, Y, N, Y, Y, N],
            // Needs 6 VNs; deadlock-free by west-first routing.
            SchemeId::Tfc => [Y, N, Y, N, N, N, Y, Y],
            // Ticks in every column.
            SchemeId::FastPass => [Y, Y, Y, Y, Y, Y, Y, Y],
            // Needs VNs; deadlock-free by turn-restricted routing.
            SchemeId::Vct => [Y, N, Y, N, N, N, Y, Y],
        };
        SchemeProperties {
            no_detection: row[0],
            protocol_deadlock_freedom: row[1],
            network_deadlock_freedom: row[2],
            full_path_diversity: row[3],
            high_throughput: row[4],
            low_power: row[5],
            scalable: row[6],
            no_misrouting: row[7],
        }
    }

    /// VNs per Table II.
    pub fn vns(self) -> usize {
        match self {
            SchemeId::Pitstop | SchemeId::FastPass | SchemeId::MinBd => 0,
            _ => 6,
        }
    }

    /// The routing discipline the scheme's regular network runs — what
    /// the certifier builds its dependency graph from and the model
    /// checker diagnoses a wedge with. EscapeVC is named by its escape
    /// lane (its live policy still offers every productive direction);
    /// MinBD prefers the productive set and deflects when it loses.
    pub fn policy_kind(self) -> PolicyKind {
        match self {
            SchemeId::Vct => PolicyKind::Xy,
            SchemeId::Tfc => PolicyKind::WestFirst,
            SchemeId::EscapeVc => PolicyKind::EscapeXy,
            SchemeId::Spin
            | SchemeId::Swap
            | SchemeId::Drain
            | SchemeId::Pitstop
            | SchemeId::MinBd
            | SchemeId::FastPass => PolicyKind::FullyAdaptive,
        }
    }

    /// Builds the simulation configuration for this scheme on a
    /// `size × size` mesh. `fp_vcs` sets FastPass's VCs per input buffer
    /// (1, 2 or 4 in the paper); VN-based schemes always use 2 VCs/VN.
    ///
    /// # Panics
    ///
    /// Panics where [`SchemeId::try_sim_config`] errs.
    pub fn sim_config(self, size: usize, fp_vcs: usize, seed: u64) -> SimConfig {
        self.try_sim_config(size, fp_vcs, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SchemeId::sim_config`] for a `size` or `fp_vcs` that comes from
    /// outside the program.
    ///
    /// # Errors
    ///
    /// Returns the bound a mesh edge or VC count violates, or the
    /// scheme's own refusal ([`SchemeId::admits`]). No scheme (and no
    /// workload) runs on a single router, so the edge starts at 2; node
    /// ids are 16-bit, so it ends at 255.
    pub fn try_sim_config(
        self,
        size: usize,
        fp_vcs: usize,
        seed: u64,
    ) -> Result<SimConfig, ConfigError> {
        if !(2..=255).contains(&size) {
            return Err(ConfigError::new("the mesh edge must be 2 to 255"));
        }
        let vcs = match self {
            SchemeId::FastPass => fp_vcs,
            SchemeId::MinBd => 1, // buffers unused
            _ => 2,
        };
        let cfg = SimConfig::builder()
            .mesh(size, size)
            .vns(self.vns())
            .vcs_per_vn(vcs)
            .seed(seed)
            .try_build()?;
        self.admits(&cfg)?;
        Ok(cfg)
    }

    /// Whether the scheme can be built on `cfg`: its structural
    /// refusals of a configuration every layer below accepts. DRAIN's
    /// periodic drain circulates packets over a Hamiltonian ring, which
    /// no odd×odd mesh has; every other scheme builds on any valid
    /// configuration. No refusal depends on a [`Tuning`].
    ///
    /// # Errors
    ///
    /// Names the scheme and what it needs of the configuration.
    pub fn admits(self, cfg: &SimConfig) -> Result<(), ConfigError> {
        match self {
            SchemeId::Drain if !baselines::drain::has_hamiltonian_ring(cfg.mesh) => {
                Err(ConfigError::new(
                    "DRAIN needs a Hamiltonian ring: both mesh edges at least 2 and one of \
                     them even (no odd×odd mesh has one)",
                ))
            }
            _ => Ok(()),
        }
    }

    /// Instantiates the scheme for a configuration with the parameters
    /// every figure runs ([`Tuning::default`]).
    pub fn build(self, cfg: &SimConfig, seed: u64) -> Box<dyn Scheme> {
        self.build_tuned(cfg, seed, &Tuning::default())
    }

    /// Instantiates the scheme for a configuration under `tuning`.
    pub fn build_tuned(self, cfg: &SimConfig, seed: u64, tuning: &Tuning) -> Box<dyn Scheme> {
        match self {
            SchemeId::EscapeVc => Box::new(EscapeVc::new(seed)),
            SchemeId::Spin => Box::new(Spin::new(seed, tuning.spin)),
            SchemeId::Swap => Box::new(Swap::new(seed, tuning.swap)),
            SchemeId::Drain => Box::new(Drain::new(cfg.mesh, seed, tuning.drain)),
            SchemeId::Pitstop => Box::new(Pitstop::new(cfg.mesh.num_nodes(), seed, tuning.pitstop)),
            SchemeId::MinBd => Box::new(MinBd::new(cfg.mesh, seed, tuning.minbd)),
            SchemeId::Tfc => Box::new(Tfc::new(seed)),
            SchemeId::FastPass => Box::new(FastPass::new(cfg, tuning.fastpass)),
            SchemeId::Vct => Box::new(CreditVct::xy(cfg.vns)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every configuration the catalogue hands out builds its scheme
    /// with the VNs that scheme itself requires (Table II's VN column):
    /// the figure configuration of each scheme on 8×8, the smoke
    /// baseline, and every verification point under its own tuning.
    #[test]
    fn every_scheme_constructs_on_8x8() {
        assert!(!ALL_SCHEMES.contains(&SchemeId::Vct), "not in Fig. 7");
        let figures = ALL_SCHEMES.into_iter().chain([SchemeId::Vct]).map(|id| {
            let cfg = id.sim_config(8, 4, 1);
            let scheme = id.build(&cfg, 1);
            (id, cfg, scheme)
        });
        let points = verify_points().into_iter().map(|p| {
            let cfg = p.sim_config();
            let scheme = p.build(&cfg);
            (p.id, cfg, scheme)
        });
        for (id, cfg, scheme) in figures.chain(points) {
            assert_eq!(scheme.required_vns(), cfg.vns, "{}", id.name());
        }
    }

    /// The paper's headline for Table I: only FastPass ticks every
    /// column.
    #[test]
    fn fastpass_is_the_only_all_true_row() {
        for id in ALL_SCHEMES.into_iter().chain([SchemeId::Vct]) {
            let p = id.properties();
            let every = p.no_detection
                && p.protocol_deadlock_freedom
                && p.network_deadlock_freedom
                && p.full_path_diversity
                && p.high_throughput
                && p.low_power
                && p.scalable
                && p.no_misrouting;
            assert_eq!(every, id == SchemeId::FastPass, "{}", id.name());
        }
    }

    #[test]
    fn point_names_are_unique_and_one_point_is_planted() {
        let points = verify_points();
        let mut names: Vec<&str> = points.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), points.len(), "duplicate point names");
        assert_eq!(points.iter().filter(|p| p.expect_deadlock).count(), 1);
    }

    #[test]
    fn names_parse_back_to_their_scheme() {
        for id in ALL_SCHEMES.into_iter().chain([SchemeId::Vct]) {
            assert_eq!(SchemeId::parse(id.name()), Some(id));
        }
    }

    #[test]
    fn outside_sizes_and_vc_counts_are_errors() {
        let fp = SchemeId::FastPass;
        for (size, vcs, bound) in [(8, 13, "12 VCs"), (1, 4, "2 to 255"), (256, 4, "2 to 255")] {
            let err = fp.try_sim_config(size, vcs, 1).unwrap_err();
            assert!(err.to_string().contains(bound), "{size}/{vcs}: {err}");
        }
        assert_eq!(fp.try_sim_config(8, 4, 1).unwrap(), fp.sim_config(8, 4, 1));
    }

    #[test]
    fn drain_refuses_odd_meshes_only() {
        for size in 2..=12 {
            let refused = SchemeId::Drain.try_sim_config(size, 2, 1).is_err();
            assert_eq!(refused, size % 2 == 1, "{size}x{size}");
        }
        let err = SchemeId::Drain.try_sim_config(3, 2, 1).unwrap_err();
        assert!(err.to_string().contains("DRAIN"), "{err}");
        assert!(SchemeId::Vct.try_sim_config(3, 2, 1).is_ok());
    }

    #[test]
    fn fastpass_vc_knob_applies_only_to_fastpass() {
        let fp = SchemeId::FastPass.sim_config(8, 4, 1);
        assert_eq!(fp.vcs_per_port(), 4);
        let esc = SchemeId::EscapeVc.sim_config(8, 4, 1);
        assert_eq!(esc.vcs_per_port(), 12);
    }
}
