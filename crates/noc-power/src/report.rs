//! Fig. 11-shaped reporting: the six evaluated router configurations.

use crate::model::{router_area, router_power, AreaBreakdown, PowerBreakdown, RouterParams};
use noc_schemes::SchemeId;
use serde::{Deserialize, Serialize};

/// One bar pair of Fig. 11: a scheme at its evaluated configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Row {
    /// Scheme label, e.g. "FastPass".
    pub scheme: String,
    /// Configuration label, e.g. "VN=0, VC=2".
    pub config: String,
    /// Area breakdown (µm²).
    pub area: AreaBreakdown,
    /// Static power breakdown (µW).
    pub power: PowerBreakdown,
}

impl Fig11Row {
    /// `id`'s router with the buffers the simulator gives it on the
    /// paper's 8×8 mesh ([`SchemeId::sim_config`], FastPass at 2 VCs).
    fn new(id: SchemeId) -> Self {
        let params = RouterParams::from(&id.sim_config(8, 2, 0));
        Fig11Row {
            scheme: id.name().to_string(),
            config: format!("VN={}, VC={}", params.vns, params.vcs_per_vn),
            area: router_area(id, &params),
            power: router_power(id, &params),
        }
    }
}

/// The six configurations of Fig. 11: EscapeVC, SPIN, SWAP, DRAIN at
/// 6 VN × 2 VC; Pitstop and FastPass at 0 VN × 2 VC.
pub fn fig11_configs() -> Vec<Fig11Row> {
    [
        SchemeId::EscapeVc,
        SchemeId::Spin,
        SchemeId::Swap,
        SchemeId::Drain,
        SchemeId::Pitstop,
        SchemeId::FastPass,
    ]
    .into_iter()
    .map(Fig11Row::new)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_rows_in_figure_order() {
        let rows = fig11_configs();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].scheme, "EscapeVC");
        assert_eq!(rows[5].scheme, "FastPass");
        assert_eq!(rows[5].config, "VN=0, VC=2");
    }

    #[test]
    fn vn_based_schemes_cost_more_than_vn_free() {
        let rows = fig11_configs();
        let max_vn0 = rows[4].area.total().max(rows[5].area.total());
        for row in &rows[..4] {
            assert!(
                row.area.total() > max_vn0,
                "{} should exceed the VN-free routers",
                row.scheme
            );
        }
    }

    #[test]
    fn spin_is_the_most_expensive() {
        let rows = fig11_configs();
        let spin = rows.iter().find(|r| r.scheme == "SPIN").unwrap();
        for row in &rows {
            assert!(spin.area.total() >= row.area.total());
            assert!(spin.power.total() >= row.power.total());
        }
    }
}
