//! Property tests of the certifier's CDG model on random mesh shapes.
//! The cycle search it runs, `noc_core::graph::Digraph::find_cycle`, is
//! checked against a reachability oracle in the workspace's
//! `tests/properties.rs`.

use noc_core::config::SimConfig;
use noc_core::topology::Mesh;
use noc_prove::model::{build_cdg, route_graph};
use noc_sim::routing::introspect::PolicyKind;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// XY and YX CDGs are acyclic and dead-end free on every mesh shape,
    /// with or without 6-VN protocol coupling.
    #[test]
    fn dor_cdgs_acyclic_any_mesh(w in 2usize..6, h in 2usize..6, vn_bit in 0u8..2) {
        let vns = if vn_bit == 1 { 6usize } else { 0 };
        for kind in [PolicyKind::Xy, PolicyKind::Yx] {
            let sim = SimConfig::builder().mesh(w, h).vns(vns).vcs_per_vn(1).build();
            // Coupling only stays acyclic with class-separated VNs.
            let coupling = vns == 6;
            let (g, _, rg) = build_cdg(&sim, kind, coupling, false);
            prop_assert!(rg.routable(), "{} {w}x{h}", kind.name());
            prop_assert!(g.find_cycle().is_none(), "{} {w}x{h} vns={vns}", kind.name());
        }
    }

    /// The route graph of every policy is dead-end free on every mesh
    /// shape (minimal policies always deliver).
    #[test]
    fn all_policies_dead_end_free(w in 2usize..6, h in 2usize..6) {
        for kind in [
            PolicyKind::Xy,
            PolicyKind::Yx,
            PolicyKind::FullyAdaptive,
            PolicyKind::WestFirst,
            PolicyKind::NorthLast,
            PolicyKind::OddEven,
            PolicyKind::EscapeXy,
        ] {
            let rg = route_graph(kind, Mesh::new(w, h));
            prop_assert!(rg.routable(), "{} {w}x{h}: {:?}", kind.name(), rg.dead_ends);
        }
    }
}
