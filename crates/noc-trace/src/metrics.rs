//! Per-router and per-class counters (the `RouterMetrics` section of
//! traced stats output).
//!
//! Counters are plain pre-allocated integer arrays bumped by the tracer
//! in counters/full mode — the per-cycle cost is a branch plus an add,
//! and in off mode just the branch. One record serves every view: a
//! router's counters, the network total ([`Tracer::totals`](crate::Tracer::totals)
//! sums the routers with [`RouterMetrics::add`]) and a sampling window
//! (the [`RouterMetrics::delta_since`] of two totals). Its JSON shape is
//! the derived one: fields in declaration order, `stalls` an array in
//! [`StallCause::ALL`] order.

use crate::event::StallCause;
use noc_core::packet::NUM_CLASSES;
use serde::Serialize;

/// Counters for one router/NI pair, or their sum over routers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RouterMetrics {
    /// Sum over sampled cycles of the router's occupied-VC count; divide
    /// by [`RouterMetrics::cycles_sampled`] for mean buffer occupancy.
    pub occupancy_integral: u64,
    /// Cycles the occupancy integral covers (router-cycles in a sum).
    pub cycles_sampled: u64,
    /// Packets injected into the router's local port, per class.
    pub injected: [u64; NUM_CLASSES],
    /// Packets whose tail ejected into the NI, per class.
    pub ejected: [u64; NUM_CLASSES],
    /// Stall cycles by cause, indexed by [`StallCause::index`].
    pub stalls: [u64; StallCause::COUNT],
    /// Flits sent over this router's outgoing links by the regular
    /// pipeline.
    pub link_flits_regular: u64,
    /// Flit-cycles of FastPass lanes on this router's outgoing links.
    pub link_flits_bypass: u64,
    /// FastPass upgrades launched at this router (prime routers only).
    pub bypass_launches: u64,
}

/// The network-wide counter sum, which is a [`RouterMetrics`] too. The
/// name stays for callers that still spell it.
pub type NetworkTotals = RouterMetrics;

impl RouterMetrics {
    /// Total stall cycles across all causes.
    pub fn total_stalls(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Adds `other`'s counters into `self`, field by field.
    pub fn add(&mut self, other: &RouterMetrics) {
        // Destructured without `..`: a new counter is a compile error
        // here until it is summed.
        let RouterMetrics {
            occupancy_integral,
            cycles_sampled,
            injected,
            ejected,
            stalls,
            link_flits_regular,
            link_flits_bypass,
            bypass_launches,
        } = other;
        self.occupancy_integral += occupancy_integral;
        self.cycles_sampled += cycles_sampled;
        add_each(&mut self.injected, injected);
        add_each(&mut self.ejected, ejected);
        add_each(&mut self.stalls, stalls);
        self.link_flits_regular += link_flits_regular;
        self.link_flits_bypass += link_flits_bypass;
        self.bypass_launches += bypass_launches;
    }

    /// Field-wise `self - earlier` (saturating: a tracer re-arm between
    /// totals degrades to zeros instead of wrapping).
    pub fn delta_since(&self, earlier: &RouterMetrics) -> RouterMetrics {
        RouterMetrics {
            occupancy_integral: self
                .occupancy_integral
                .saturating_sub(earlier.occupancy_integral),
            cycles_sampled: self.cycles_sampled.saturating_sub(earlier.cycles_sampled),
            injected: sub_each(&self.injected, &earlier.injected),
            ejected: sub_each(&self.ejected, &earlier.ejected),
            stalls: sub_each(&self.stalls, &earlier.stalls),
            link_flits_regular: self
                .link_flits_regular
                .saturating_sub(earlier.link_flits_regular),
            link_flits_bypass: self
                .link_flits_bypass
                .saturating_sub(earlier.link_flits_bypass),
            bypass_launches: self.bypass_launches.saturating_sub(earlier.bypass_launches),
        }
    }
}

fn add_each<const N: usize>(acc: &mut [u64; N], xs: &[u64; N]) {
    for (a, x) in acc.iter_mut().zip(xs) {
        *a += x;
    }
}

fn sub_each<const N: usize>(xs: &[u64; N], earlier: &[u64; N]) -> [u64; N] {
    std::array::from_fn(|i| xs[i].saturating_sub(earlier[i]))
}

/// The full metrics section: every router plus network-wide histograms.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsReport {
    /// What each index of a `stalls` array counts ([`StallCause::LABELS`]),
    /// so the document describes itself.
    pub stall_causes: [&'static str; StallCause::COUNT],
    /// Per-router counters, indexed by node index.
    pub routers: Vec<RouterMetrics>,
    /// Histogram of concurrently active FastPass flights: bucket `i`
    /// counts sampled cycles with exactly `i` flights in the air (the
    /// last bucket aggregates `≥ len-1`).
    pub lane_occupancy: Vec<u64>,
    /// Full-mode events lost to ring-buffer overwriting.
    pub dropped_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    #[test]
    fn add_sums_and_delta_subtracts() {
        let mut a = RouterMetrics::default();
        a.stalls[StallCause::SaLost.index()] = 3;
        a.injected[0] = 5;
        a.link_flits_regular = 7;
        a.cycles_sampled = 2;
        let mut b = RouterMetrics::default();
        b.stalls[StallCause::SaLost.index()] = 2;
        b.ejected[1] = 4;
        b.bypass_launches = 1;
        b.cycles_sampled = 2;
        let mut t = RouterMetrics::default();
        for r in [a, b] {
            t.add(&r);
        }
        assert_eq!(t.stalls[StallCause::SaLost.index()], 5);
        assert_eq!(t.total_stalls(), 5);
        assert_eq!(t.injected[0], 5);
        assert_eq!(t.ejected[1], 4);
        assert_eq!(t.link_flits_regular, 7);
        assert_eq!(t.bypass_launches, 1);
        assert_eq!(t.cycles_sampled, 4, "router-cycles add up");

        let mut later = t;
        later.stalls[StallCause::SaLost.index()] += 10;
        later.link_flits_bypass += 6;
        let d = later.delta_since(&t);
        assert_eq!(d.stalls[StallCause::SaLost.index()], 10);
        assert_eq!(d.link_flits_bypass, 6);
        assert_eq!(d.injected, [0; NUM_CLASSES]);
        // Saturating across a re-arm: earlier bigger than later clamps.
        assert_eq!(t.delta_since(&later).total_stalls(), 0);
        // Adding the disabled tracer's zeros leaves a total unchanged.
        let before = t;
        t.add(&RouterMetrics::default());
        assert_eq!(t, before);
    }

    #[test]
    fn report_serializes_to_well_formed_json() {
        let mut r = RouterMetrics::default();
        r.stalls[StallCause::SaLost.index()] = 3;
        r.injected[0] = 5;
        let report = MetricsReport {
            stall_causes: StallCause::LABELS,
            routers: vec![r],
            lane_occupancy: vec![10, 2, 0],
            dropped_events: 1,
        };
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        let parsed: Content = serde_json::from_str(&json).expect("valid JSON");
        let doc = parsed.as_map().expect("an object");
        let causes: Vec<&str> = serde::field(doc, "stall_causes")
            .expect("a stall_causes header")
            .as_seq()
            .expect("an array")
            .iter()
            .filter_map(Content::as_str)
            .collect();
        assert_eq!(causes, StallCause::LABELS);
        let routers = serde::field(doc, "routers").expect("routers");
        let router = routers.as_seq().expect("an array")[0]
            .as_map()
            .expect("an object");
        let stalls: Vec<u64> = serde::field(router, "stalls")
            .expect("stalls")
            .as_seq()
            .expect("stalls is an array")
            .iter()
            .filter_map(Content::as_u64)
            .collect();
        assert_eq!(stalls.len(), StallCause::COUNT);
        assert_eq!(stalls[StallCause::SaLost.index()], 3);
        assert!(json.contains("\"lane_occupancy\""), "{json}");
    }
}
