//! Static ↔ dynamic cross-validation against `noc-check`.
//!
//! Both verifiers take each configuration from one row of the scheme
//! catalogue (`noc_schemes::verify_points`), so their *structure* —
//! mesh, VC layout, scheme, protocol coupling — agrees by construction.
//! What remains to test is that their *verdicts* agree, in the one
//! direction that is sound: a static certificate implies no dynamic
//! counterexample exists, and the planted cyclic config must fail
//! statically exactly where `noc-check` witnesses its wedge dynamically.
//!
//! Configs whose exhaustive exploration is cheap enough for debug-mode
//! tests are explored live here; the expensive ones (`fastpass-2x2` at
//! a 300k-node budget, `pitstop-2x2` at 60k, their 3×3 siblings) are
//! validated against the point's declared expectation, which the CI
//! `modelcheck` job re-establishes dynamically in release mode.

use noc_check::explore::check;
use noc_prove::{certify, configs};

/// Configs cheap enough (≲200 ms debug) to explore exhaustively inside
/// this test.
const EXPLORE_LIVE: [&str; 7] = [
    "vct-xy0-2x2",
    "vct-xy6-2x2",
    "spin-2x2",
    "escape-vc-2x2",
    "minbd-min-2x2",
    "vct-xy6-3x3",
    "planted-vct0-protocol-2x2",
];

/// Every config `noc-check` explores (both tiers and the planted bug)
/// is in the certified suite under the same name, and the static
/// verdict agrees with the dynamic expectation.
#[test]
fn static_verdicts_agree_with_dynamic_expectations() {
    let dynamic = noc_check::configs::matrix_2x2()
        .into_iter()
        .chain(noc_check::configs::matrix_3x3())
        .chain([noc_check::configs::planted()]);
    for cc in dynamic {
        let name = cc.point.name;
        let pc = configs::by_name(name)
            .unwrap_or_else(|| panic!("noc-check config {name} is not certified"));
        // Verdict agreement: certified ⇔ no wedge expected; the planted
        // cycle ⇔ the planted wedge.
        let cert = certify(&pc);
        assert!(
            cert.as_expected(pc.expect_cycle),
            "{name}: {}",
            cert.summary()
        );
        assert_eq!(
            pc.expect_cycle, cc.point.expect_deadlock,
            "{name}: static and dynamic expectations diverge"
        );
    }
}

/// Live exhaustive exploration of the cheap tier: wherever the static
/// proof certifies, the model checker must find no counterexample, and
/// the planted config must fail on both sides — statically with a
/// concrete CDG cycle, dynamically with a wedge.
#[test]
fn exhaustive_exploration_confirms_static_verdicts() {
    for name in EXPLORE_LIVE {
        let cc = noc_check::configs::by_name(name).expect("known config");
        let pc = configs::by_name(name).expect("certified under the same name");
        let cert = certify(&pc);
        let report = check(&cc);
        let dynamic_clean = report.as_expected(&cc) && !cc.point.expect_deadlock;
        let dynamic_wedged = report.as_expected(&cc) && cc.point.expect_deadlock;
        assert!(
            report.as_expected(&cc),
            "{name}: dynamic exploration disagreed with its own expectation"
        );
        if cert.certified() {
            assert!(
                dynamic_clean,
                "{name}: statically certified but dynamically wedged — unsound"
            );
        }
        if cert.verdict == "cycle-found" {
            assert!(
                dynamic_wedged,
                "{name}: static cycle without a dynamic witness"
            );
            assert!(
                !cert.cycle.is_empty(),
                "{name}: failure certificate must carry the channel path"
            );
        }
    }
}

/// The planted pair in detail: the static certificate names a concrete
/// two-channel protocol cycle, and the dynamic wedge exists on the same
/// 2×2 miniature.
#[test]
fn planted_cycle_is_concrete_and_witnessed() {
    let cert = certify(&configs::planted());
    assert_eq!(cert.verdict, "cycle-found");
    // Closed path: first channel repeated at the end.
    assert!(cert.cycle.len() >= 3);
    assert_eq!(cert.cycle.first(), cert.cycle.last());
    for ch in &cert.cycle {
        assert!(
            ch.starts_with('R') && ch.contains("->") && ch.contains(".vc"),
            "channel label {ch:?} malformed"
        );
    }
    let report = check(&noc_check::configs::planted());
    assert!(
        matches!(report.verdict, noc_check::explore::Verdict::Wedged(_)),
        "noc-check must witness the planted wedge dynamically"
    );
}
