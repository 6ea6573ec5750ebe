//! Statistics collection: latency distributions, throughput, breakdowns.
//!
//! These feed every figure in the evaluation: average packet latency and
//! saturation throughput (Figs. 7 & 8), the regular/bufferless latency
//! split (Fig. 9), application latency and execution time (Fig. 10),
//! 99th-percentile tails (Fig. 12) and the packet-type breakdown
//! (Fig. 13).

use crate::packet::{DeliveryKind, Packet};
use serde::Serialize;
use std::collections::BTreeMap;

/// Values below this bound are counted in [`Distribution`]'s dense
/// array; larger ones in its sorted map. Latencies and hop counts stay
/// below it until a network saturates, so the map holds only the tail.
const DENSE_BOUND: u64 = 1024;

/// An exact histogram of `u64` samples: value → number of occurrences.
///
/// Memory grows with the number of *distinct* values, not with the
/// number of samples, so a run of any length keeps its statistics in a
/// few kilobytes while every percentile stays exact (no quantile-sketch
/// error in the tail-latency figure).
#[derive(Debug, Clone, Default, Serialize)]
pub struct Distribution {
    /// `dense[v]` counts the samples equal to `v`, for `v` below
    /// [`DENSE_BOUND`]; it grows to the largest such value seen.
    dense: Vec<u64>,
    /// Counts of the samples at or above [`DENSE_BOUND`].
    sparse: BTreeMap<u64, u64>,
    count: usize,
    sum: u128,
}

impl Distribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn record(&mut self, v: u64) {
        if v < DENSE_BOUND {
            let i = v as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, 0);
            }
            self.dense[i] += 1;
        } else {
            *self.sparse.entry(v).or_insert(0) += 1;
        }
        self.count += 1;
        self.sum += v as u128;
    }

    /// Every distinct sample value with its count, in ascending order.
    fn counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0u64..)
            .zip(self.dense.iter().copied())
            .filter(|&(_, n)| n > 0)
            .chain(self.sparse.iter().map(|(&v, &n)| (v, n)))
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        // `dense` ends at the largest dense value seen, so its last
        // entry is never zero.
        let dense_max = self.dense.len().checked_sub(1).map(|v| v as u64);
        self.sparse.keys().next_back().copied().or(dense_max)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.counts().next().map(|(v, _)| v)
    }

    /// Exact percentile (`p` in `[0, 100]`) with nearest-rank rounding,
    /// or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return None;
        }
        let n = self.count;
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        // 0-based index of the wanted sample in ascending order.
        let index = rank.saturating_sub(1).min(n - 1) as u64;
        let mut seen = 0;
        self.counts()
            .find(|&(_, c)| {
                seen += c;
                seen > index
            })
            .map(|(v, _)| v)
    }

    /// Sum of all samples (exact, no overflow for realistic runs).
    pub fn sum(&self) -> u128 {
        self.sum
    }
}

/// A `Copy` snapshot of [`NetStats`]' additive counters, used by the
/// windowed sampler to form per-window deltas without touching (or
/// cloning) the live distributions.
///
/// Every field is monotonically non-decreasing over a run (statistics
/// only ever accumulate between resets), so the difference of two
/// snapshots taken from the same window is exact. Distributions are
/// represented by their `(count, sum)` pair — enough for per-window
/// means; exact window percentiles would require a copy of each
/// histogram per window, which the no-allocation sampling contract rules
/// out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StatsSnapshot {
    /// Packets delivered via regular pass only.
    pub delivered_regular: u64,
    /// Packets delivered after a FastPass upgrade.
    pub delivered_fastpass: u64,
    /// Flits delivered.
    pub flits_delivered: u64,
    /// Packets generated.
    pub generated: u64,
    /// Drop events.
    pub dropped: u64,
    /// Unique delivered packets dropped at least once.
    pub dropped_packets: u64,
    /// FastPass ejection-queue rejections.
    pub rejections: u64,
    /// Deflections/misroutes.
    pub deflections: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Number of end-to-end latency samples (== packets delivered with a
    /// recorded latency).
    pub latency_count: u64,
    /// Sum of end-to-end latency samples, in cycles.
    pub latency_sum: u128,
    /// Number of hop-count samples.
    pub hops_count: u64,
    /// Sum of hop-count samples.
    pub hops_sum: u128,
}

impl StatsSnapshot {
    /// Total packets delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered_regular + self.delivered_fastpass
    }

    /// Field-wise `self - earlier` (saturating, so a stats reset between
    /// snapshots degrades to zeros instead of wrapping).
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            delivered_regular: self
                .delivered_regular
                .saturating_sub(earlier.delivered_regular),
            delivered_fastpass: self
                .delivered_fastpass
                .saturating_sub(earlier.delivered_fastpass),
            flits_delivered: self.flits_delivered.saturating_sub(earlier.flits_delivered),
            generated: self.generated.saturating_sub(earlier.generated),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            dropped_packets: self.dropped_packets.saturating_sub(earlier.dropped_packets),
            rejections: self.rejections.saturating_sub(earlier.rejections),
            deflections: self.deflections.saturating_sub(earlier.deflections),
            cycles: self.cycles.saturating_sub(earlier.cycles),
            latency_count: self.latency_count.saturating_sub(earlier.latency_count),
            latency_sum: self.latency_sum.saturating_sub(earlier.latency_sum),
            hops_count: self.hops_count.saturating_sub(earlier.hops_count),
            hops_sum: self.hops_sum.saturating_sub(earlier.hops_sum),
        }
    }

    /// Mean end-to-end latency over the snapshot (or delta), in cycles.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.latency_count == 0 {
            None
        } else {
            Some(self.latency_sum as f64 / self.latency_count as f64)
        }
    }
}

/// Aggregate network statistics for one simulation run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct NetStats {
    /// End-to-end latency (generation → tail ejected) of delivered packets.
    pub latency: Distribution,
    /// Network latency (injection → tail ejected).
    pub network_latency: Distribution,
    /// Latency of packets delivered purely by regular pass.
    pub regular_latency: Distribution,
    /// Latency of packets that were upgraded to FastPass-Packets.
    pub fastpass_latency: Distribution,
    /// Bufferless portion of FastPass-Packet latency (Fig. 9's
    /// "FastPass time").
    pub fastpass_bufferless: Distribution,
    /// Buffered portion of FastPass-Packet latency (Fig. 9's
    /// "regular time").
    pub fastpass_buffered: Distribution,
    /// Hop counts of delivered packets.
    pub hops: Distribution,
    /// Packets delivered via regular pass only.
    pub delivered_regular: u64,
    /// Packets delivered after a FastPass upgrade.
    pub delivered_fastpass: u64,
    /// Flits delivered (for throughput in flits/node/cycle).
    pub flits_delivered: u64,
    /// Packets generated (offered load accounting).
    pub generated: u64,
    /// Drop *events*: an injection-queue request was dropped to make a
    /// bubble (§III-C4); each victim is regenerated from MSHR state and
    /// may be dropped again later.
    pub dropped: u64,
    /// Unique delivered packets that were dropped at least once (the
    /// paper's Fig. 13 "dropped packets" metric).
    pub dropped_packets: u64,
    /// FastPass-Packets that bounced off a full ejection queue.
    pub rejections: u64,
    /// Misroutes/deflections taken (MinBD, SWAP, DRAIN).
    pub deflections: u64,
    /// Cycles simulated in the measurement window.
    pub cycles: u64,
    /// Number of nodes (denominator of per-node rates).
    pub nodes: u64,
    /// Cycle at which this measurement window began (0 for stats that
    /// cover a whole run). Set by the engine when statistics are reset at
    /// the warmup/measurement boundary.
    pub window_start: u64,
    /// Delivered packets that were *generated before* `window_start`:
    /// warmup-era packets drained during measurement. They count toward
    /// `delivered`/latency (they are real deliveries), but not toward the
    /// window's offered load — without this split, accepted throughput
    /// near saturation can exceed apparent offered load.
    pub delivered_carryover: u64,
}

impl NetStats {
    /// Creates empty statistics for a network of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        NetStats {
            nodes: nodes as u64,
            ..Self::default()
        }
    }

    /// Records a delivered packet. Call exactly once per packet, when its
    /// tail flit is consumed at the destination.
    pub fn record_delivered(&mut self, pkt: &Packet) {
        let lat = pkt
            .latency()
            .expect("record_delivered called before eject_cycle set");
        self.latency.record(lat);
        if pkt.gen_cycle < self.window_start {
            self.delivered_carryover += 1;
        }
        if let Some(nl) = pkt.network_latency() {
            self.network_latency.record(nl);
        }
        self.hops.record(pkt.hops as u64);
        self.flits_delivered += pkt.len_flits as u64;
        self.deflections += pkt.deflections as u64;
        if pkt.drops > 0 {
            self.dropped_packets += 1;
        }
        match pkt.delivery_kind() {
            DeliveryKind::Regular => {
                self.delivered_regular += 1;
                self.regular_latency.record(lat);
            }
            DeliveryKind::FastPass => {
                self.delivered_fastpass += 1;
                self.fastpass_latency.record(lat);
                let bufferless = pkt.bufferless_cycles.min(lat);
                self.fastpass_bufferless.record(bufferless);
                self.fastpass_buffered.record(lat - bufferless);
            }
        }
    }

    /// Total packets delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered_regular + self.delivered_fastpass
    }

    /// A `Copy` snapshot of every additive counter (allocation-free; see
    /// [`StatsSnapshot`]). Two snapshots bracketing a window subtract to
    /// the window's exact contribution.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            delivered_regular: self.delivered_regular,
            delivered_fastpass: self.delivered_fastpass,
            flits_delivered: self.flits_delivered,
            generated: self.generated,
            dropped: self.dropped,
            dropped_packets: self.dropped_packets,
            rejections: self.rejections,
            deflections: self.deflections,
            cycles: self.cycles,
            latency_count: self.latency.count() as u64,
            latency_sum: self.latency.sum(),
            hops_count: self.hops.count() as u64,
            hops_sum: self.hops.sum(),
        }
    }

    /// Delivered packets that were also *generated* inside this window
    /// (excludes warmup carryover). Always `<= generated` under open-loop
    /// traffic, which makes it the right numerator for offered-vs-accepted
    /// comparisons across the warmup boundary.
    pub fn delivered_in_window(&self) -> u64 {
        self.delivered() - self.delivered_carryover
    }

    /// Average end-to-end packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        self.latency.mean().unwrap_or(f64::NAN)
    }

    /// Accepted throughput in packets/node/cycle.
    pub fn throughput_packets(&self) -> f64 {
        if self.cycles == 0 || self.nodes == 0 {
            return 0.0;
        }
        self.delivered() as f64 / (self.cycles as f64 * self.nodes as f64)
    }

    /// Accepted throughput in flits/node/cycle.
    pub fn throughput_flits(&self) -> f64 {
        if self.cycles == 0 || self.nodes == 0 {
            return 0.0;
        }
        self.flits_delivered as f64 / (self.cycles as f64 * self.nodes as f64)
    }

    /// Fraction of delivered packets that were FastPass-Packets.
    pub fn fastpass_fraction(&self) -> f64 {
        let d = self.delivered();
        if d == 0 {
            0.0
        } else {
            self.delivered_fastpass as f64 / d as f64
        }
    }

    /// Fraction of delivered packets that were dropped (and regenerated)
    /// at least once — the paper's Fig. 13 metric.
    pub fn dropped_fraction(&self) -> f64 {
        let d = self.delivered();
        if d == 0 {
            0.0
        } else {
            self.dropped_packets as f64 / d as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MessageClass, Packet, PacketStore};
    use crate::topology::NodeId;

    #[test]
    fn distribution_mean_and_percentiles() {
        let mut d = Distribution::new();
        for v in 1..=100u64 {
            d.record(v);
        }
        assert_eq!(d.count(), 100);
        assert_eq!(d.mean(), Some(50.5));
        assert_eq!(d.percentile(50.0), Some(50));
        assert_eq!(d.percentile(99.0), Some(99));
        assert_eq!(d.percentile(100.0), Some(100));
        assert_eq!(d.percentile(0.0), Some(1));
        assert_eq!(d.min(), Some(1));
        assert_eq!(d.max(), Some(100));
    }

    #[test]
    fn distribution_empty() {
        let d = Distribution::new();
        assert_eq!(d.mean(), None);
        assert_eq!(d.percentile(99.0), None);
        assert_eq!(d.max(), None);
    }

    #[test]
    fn record_interleaved_with_percentile_queries() {
        let mut d = Distribution::new();
        d.record(10);
        d.record(5);
        assert_eq!(d.percentile(100.0), Some(10));
        d.record(1);
        assert_eq!(d.percentile(0.0), Some(1));
    }

    #[test]
    fn size_follows_distinct_values_not_samples() {
        let mut d = Distribution::new();
        for i in 0..1_000_000u64 {
            d.record(i % 100);
        }
        for v in [DENSE_BOUND, 5_000, 18_600] {
            d.record(v);
        }
        let json = serde_json::to_string(&d).expect("Distribution serializes");
        assert!(json.len() < 4096, "{} bytes", json.len());
        assert_eq!(
            (d.count(), d.min(), d.max()),
            (1_000_003, Some(0), Some(18_600))
        );
        assert_eq!(d.percentile(100.0), Some(18_600));
    }

    #[test]
    fn snapshot_delta_brackets_a_window() {
        let mut store = PacketStore::new();
        let mut s = NetStats::new(4);
        s.generated = 3;
        s.record_delivered(&delivered_packet(&mut store, false));
        let before = s.snapshot();
        assert_eq!(before.delivered(), 1);
        assert_eq!(before.latency_count, 1);
        s.generated = 7;
        s.cycles = 50;
        s.record_delivered(&delivered_packet(&mut store, true));
        s.record_delivered(&delivered_packet(&mut store, false));
        let after = s.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.delivered(), 2);
        assert_eq!(d.delivered_fastpass, 1);
        assert_eq!(d.generated, 4);
        assert_eq!(d.cycles, 50);
        assert_eq!(d.latency_count, 2);
        assert_eq!(d.flits_delivered, 10);
        // Window mean uses only the delta's samples: both packets in the
        // window have latency 40.
        assert_eq!(d.mean_latency(), Some(40.0));
    }

    #[test]
    fn snapshot_delta_saturates_across_reset() {
        let mut store = PacketStore::new();
        let mut s = NetStats::new(4);
        s.record_delivered(&delivered_packet(&mut store, false));
        let before = s.snapshot();
        let fresh = NetStats::new(4).snapshot();
        let d = fresh.delta_since(&before);
        assert_eq!(d.delivered(), 0, "reset must clamp, not wrap");
        assert_eq!(d.latency_sum, 0);
    }

    fn delivered_packet(store: &mut PacketStore, fastpass: bool) -> Packet {
        let id = store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(9),
            MessageClass::Request,
            5,
            100,
        ));
        {
            let p = store.get_mut(id);
            p.inject_cycle.set(104);
            p.eject_cycle.set(140);
            p.hops = 6;
            if fastpass {
                p.upgrade_cycle.set(120);
                p.bufferless_cycles = 12;
            }
        }
        store.remove(id)
    }

    #[test]
    fn netstats_splits_regular_and_fastpass() {
        let mut store = PacketStore::new();
        let mut s = NetStats::new(64);
        s.record_delivered(&delivered_packet(&mut store, false));
        s.record_delivered(&delivered_packet(&mut store, true));
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.delivered_regular, 1);
        assert_eq!(s.delivered_fastpass, 1);
        assert_eq!(s.fastpass_fraction(), 0.5);
        assert_eq!(s.fastpass_bufferless.mean(), Some(12.0));
        assert_eq!(s.fastpass_buffered.mean(), Some(28.0));
        assert_eq!(s.flits_delivered, 10);
    }

    #[test]
    fn throughput_rates() {
        let mut store = PacketStore::new();
        let mut s = NetStats::new(4);
        s.cycles = 100;
        for _ in 0..8 {
            s.record_delivered(&delivered_packet(&mut store, false));
        }
        assert!((s.throughput_packets() - 8.0 / 400.0).abs() < 1e-12);
        assert!((s.throughput_flits() - 40.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_carryover_split() {
        // Packets generated before the window start count as carryover;
        // packets generated inside it count toward the window.
        let mut store = PacketStore::new();
        let mut s = NetStats::new(4);
        s.window_start = 120; // delivered_packet() uses gen_cycle = 100
        s.record_delivered(&delivered_packet(&mut store, false));
        assert_eq!(s.delivered(), 1);
        assert_eq!(s.delivered_carryover, 1);
        assert_eq!(s.delivered_in_window(), 0);
        s.window_start = 50;
        s.record_delivered(&delivered_packet(&mut store, false));
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.delivered_carryover, 1);
        assert_eq!(s.delivered_in_window(), 1);
    }

    #[test]
    fn zero_cycles_yield_zero_throughput() {
        let s = NetStats::new(16);
        assert_eq!(s.throughput_packets(), 0.0);
        assert_eq!(s.dropped_fraction(), 0.0);
        assert_eq!(s.fastpass_fraction(), 0.0);
    }
}
