//! Scheme registry: Table II configurations and constructors.

use baselines::{
    drain::DrainConfig, pitstop::PitstopConfig, spin::SpinConfig, swap::SwapConfig, CreditVct,
    Drain, EscapeVc, MinBd, Pitstop, Spin, Swap, Tfc,
};
use fastpass::{FastPass, FastPassConfig};
use noc_core::config::SimConfig;
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

    /// VNs per Table II.
    pub fn vns(self) -> usize {
        match self {
            SchemeId::Pitstop | SchemeId::FastPass | SchemeId::MinBd => 0,
            _ => 6,
        }
    }

    /// Builds the simulation configuration for this scheme on a
    /// `size × size` mesh. `fp_vcs` sets FastPass's VCs per input buffer
    /// (1, 2 or 4 in the paper); VN-based schemes always use 2 VCs/VN.
    pub fn sim_config(self, size: usize, fp_vcs: usize, seed: u64) -> SimConfig {
        let vcs = match self {
            SchemeId::FastPass => fp_vcs,
            SchemeId::MinBd => 1, // buffers unused
            SchemeId::Pitstop => 2,
            _ => 2,
        };
        SimConfig::builder()
            .mesh(size, size)
            .vns(self.vns())
            .vcs_per_vn(vcs)
            .seed(seed)
            .build()
    }

    /// Instantiates the scheme for a configuration.
    pub fn build(self, cfg: &SimConfig, seed: u64) -> Box<dyn Scheme> {
        let nodes = cfg.mesh.num_nodes();
        match self {
            SchemeId::EscapeVc => Box::new(EscapeVc::new(seed)),
            SchemeId::Spin => Box::new(Spin::new(seed, SpinConfig::default())),
            SchemeId::Swap => Box::new(Swap::new(seed, SwapConfig::default())),
            SchemeId::Drain => Box::new(Drain::new(
                cfg.mesh,
                seed,
                DrainConfig {
                    // Scaled from the paper's 64K so drains actually
                    // occur within bench-length runs.
                    period: 8_000,
                    step_cycles: 5,
                },
            )),
            SchemeId::Pitstop => Box::new(Pitstop::new(nodes, seed, PitstopConfig::default())),
            SchemeId::MinBd => Box::new(MinBd::new(cfg.mesh, seed, Default::default())),
            SchemeId::Tfc => Box::new(Tfc::new(seed)),
            SchemeId::FastPass => Box::new(FastPass::new(cfg, FastPassConfig::default())),
            SchemeId::Vct => Box::new(CreditVct::xy(cfg.vns)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_constructs_on_8x8() {
        for id in ALL_SCHEMES {
            let cfg = id.sim_config(8, 4, 1);
            let scheme = id.build(&cfg, 1);
            assert_eq!(scheme.required_vns(), cfg.vns, "{}", id.name());
            assert_eq!(scheme.name(), id.name());
        }
    }

    #[test]
    fn fastpass_vc_knob_applies_only_to_fastpass() {
        let fp = SchemeId::FastPass.sim_config(8, 4, 1);
        assert_eq!(fp.vcs_per_port(), 4);
        let esc = SchemeId::EscapeVc.sim_config(8, 4, 1);
        assert_eq!(esc.vcs_per_port(), 12);
    }

    #[test]
    fn vct_smoke_baseline_constructs_but_stays_out_of_fig7() {
        assert!(!ALL_SCHEMES.contains(&SchemeId::Vct));
        let cfg = SchemeId::Vct.sim_config(4, 2, 1);
        let scheme = SchemeId::Vct.build(&cfg, 1);
        assert_eq!(scheme.name(), SchemeId::Vct.name());
        assert_eq!(scheme.required_vns(), cfg.vns);
    }

    #[test]
    fn table2_vn_assignments() {
        for id in [SchemeId::Pitstop, SchemeId::FastPass] {
            assert_eq!(id.vns(), 0, "{}", id.name());
        }
        for id in [
            SchemeId::EscapeVc,
            SchemeId::Spin,
            SchemeId::Swap,
            SchemeId::Drain,
            SchemeId::Tfc,
        ] {
            assert_eq!(id.vns(), 6, "{}", id.name());
        }
    }
}
