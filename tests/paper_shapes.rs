//! Qualitative "shape" assertions from the paper's evaluation, with
//! generous margins so they are robust to substrate details. These are
//! the regression net for EXPERIMENTS.md: if one of these fails, a
//! reported reproduction claim has silently changed.

use bench::{runner::make_sim, SchemeId, ALL_SCHEMES};
use fastpass_noc::power::{router_area, router_power, RouterParams};
use fastpass_noc::sim::Simulation;
use traffic::{AppModel, SyntheticPattern};

fn latency_at(id: SchemeId, rate: f64) -> f64 {
    let mut sim = make_sim(id, SyntheticPattern::Transpose, rate, 8, 4, 77);
    sim.run_windows(3_000, 8_000).avg_latency()
}

/// Pre-saturation latency: FastPass is the best or tied-best scheme
/// (the paper's "46% average packet latency improvement" direction).
#[test]
fn fastpass_lowest_presaturation_latency() {
    let fp = latency_at(SchemeId::FastPass, 0.08);
    for other in [SchemeId::EscapeVc, SchemeId::Tfc, SchemeId::Drain] {
        let l = latency_at(other, 0.08);
        assert!(
            fp <= l * 1.05,
            "FastPass {fp:.1} should beat {} ({l:.1}) before saturation",
            other.name()
        );
    }
}

/// TFC's west-first restriction hurts badly on transpose (Fig. 7: TFC
/// saturates first together with SPIN).
#[test]
fn tfc_saturates_early_on_transpose() {
    let tfc = latency_at(SchemeId::Tfc, 0.08);
    let fp = latency_at(SchemeId::FastPass, 0.08);
    assert!(
        tfc > 2.0 * fp,
        "TFC ({tfc:.1}) should be deep in trouble where FastPass ({fp:.1}) is fine"
    );
}

/// Misrouting (Table I's last column): MinBD deflects under load; every
/// catalogue row that claims `no_misrouting` — FastPass among them —
/// ends a run past its knee without a single deflection.
#[test]
fn misrouting_profile() {
    let mut sim = make_sim(SchemeId::MinBd, SyntheticPattern::Transpose, 0.15, 4, 1, 7);
    let stats = sim.run_windows(2_000, 6_000);
    assert!(stats.deflections > 0, "MinBD must deflect under load");

    let mut sim = make_sim(
        SchemeId::FastPass,
        SyntheticPattern::Transpose,
        0.3,
        4,
        4,
        7,
    );
    let stats = sim.run_windows(2_000, 6_000);
    assert_eq!(stats.deflections, 0, "FastPass never misroutes");

    for id in ALL_SCHEMES.into_iter().chain([SchemeId::Vct]) {
        let mut sim = make_sim(id, SyntheticPattern::Transpose, 0.14, 8, 4, 7);
        let deflections = sim.run_windows(1_000, 3_000).deflections;
        if id.properties().no_misrouting {
            assert_eq!(deflections, 0, "{} claims no misrouting", id.name());
        } else if id == SchemeId::MinBd {
            assert!(deflections > 0, "MinBD must deflect on 8x8");
        }
    }
}

/// Fig. 9's shape: the bufferless component of FastPass-Packet latency
/// stays small — below the network diameter plus serialization — even
/// past saturation, because flights progress every cycle.
#[test]
fn fastpass_bufferless_time_stays_small() {
    for rate in [0.05, 0.25] {
        let mut sim = make_sim(SchemeId::FastPass, SyntheticPattern::Uniform, rate, 8, 1, 3);
        let stats = sim.run_windows(3_000, 8_000);
        if stats.delivered_fastpass == 0 {
            continue; // low load may upgrade nothing
        }
        let bufferless = stats.fastpass_bufferless.mean().unwrap();
        // Worst case: round trip (2×14) + 2×5 flits + slack.
        assert!(
            bufferless <= 48.0,
            "bufferless time {bufferless:.1} at rate {rate} exceeds a round trip"
        );
    }
}

/// Fig. 13's headline: dropped packets stay a small fraction even past
/// saturation (paper: ≤5.9%; SCARAB drops up to 9%).
#[test]
fn drops_stay_rare_past_saturation() {
    let mut sim = make_sim(SchemeId::FastPass, SyntheticPattern::Uniform, 0.3, 4, 1, 3);
    let stats = sim.run_windows(2_000, 8_000);
    assert!(
        stats.dropped_fraction() < 0.10,
        "drop fraction {:.3} exceeds the paper's ceiling",
        stats.dropped_fraction()
    );
}

/// Fig. 12's extremes: DRAIN's wholesale misrouting gives it a worse
/// tail than FastPass on application traffic. Compared below saturation
/// — a light app on a 4×4 mesh — so the tails reflect each mechanism
/// (drain epochs vs. lanes), not raw buffer-budget congestion.
#[test]
fn drain_tail_worse_than_fastpass() {
    let p99 = |id: SchemeId| {
        let cfg = id.sim_config(4, 2, 9);
        let scheme = id.build(&cfg, 9);
        let wl = AppModel::Volrend.workload(16, None);
        let mut sim = Simulation::new(cfg, scheme, Box::new(wl));
        let stats = sim.run_windows(4_000, 12_000);
        stats.latency.percentile(99.0).unwrap_or(0)
    };
    let drain = p99(SchemeId::Drain);
    let fp = p99(SchemeId::FastPass);
    assert!(
        drain > fp,
        "DRAIN p99 ({drain}) should exceed FastPass p99 ({fp})"
    );
}

/// Fig. 11's headline claims, through the public power API.
#[test]
fn power_area_claims() {
    // Each router at the buffers the simulator runs it with.
    let params = |id: SchemeId| RouterParams::from(&id.sim_config(8, 2, 0));
    let area = |id| router_area(id, &params(id)).total();
    let power = |id| router_power(id, &params(id)).total();
    let escape_a = area(SchemeId::EscapeVc);
    let fp_a = area(SchemeId::FastPass);
    let reduction = 1.0 - fp_a / escape_a;
    assert!(
        reduction >= 0.35,
        "area reduction {reduction:.2} below the paper's ~0.40 claim"
    );
    let escape_p = power(SchemeId::EscapeVc);
    let fp_p = power(SchemeId::FastPass);
    assert!(1.0 - fp_p / escape_p >= 0.35);
    // Pitstop ≈ FastPass.
    let pit_a = area(SchemeId::Pitstop);
    assert!((fp_a - pit_a).abs() / fp_a < 0.10);
}

/// Low load is regular-dominated; load raises the FastPass-Packet share
/// (Fig. 13a's trend, §Qn1).
#[test]
fn fastflow_kicks_in_with_load() {
    let frac = |rate: f64| {
        let mut sim = make_sim(SchemeId::FastPass, SyntheticPattern::Uniform, rate, 4, 1, 5);
        sim.run_windows(2_000, 6_000).fastpass_fraction()
    };
    let low = frac(0.02);
    let high = frac(0.30);
    assert!(
        high > low,
        "FastPass share must grow with load: {low:.3} -> {high:.3}"
    );
    assert!(low < 0.5, "low load must stay regular-dominated ({low:.3})");
}
