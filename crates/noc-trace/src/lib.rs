//! Zero-overhead flit-level tracing and per-router metrics.
//!
//! The simulator's observability subsystem, designed around one hard
//! constraint from `ROADMAP.md`: **it must cost nothing when off**. The
//! pieces:
//!
//! * [`TraceEvent`] — a compact `Copy` event vocabulary (inject, VC
//!   alloc, SA grant, link traversal, bypass enter/exit, eject,
//!   stall-with-reason);
//! * [`EventRing`] — pre-allocated per-node overwrite-oldest ring
//!   buffers the events are recorded into;
//! * [`RouterMetrics`] — per-router/per-class counters (occupancy
//!   integrals, stall-cause breakdown, lane-occupancy histogram);
//! * [`Tracer`] — the recording façade owned by the network core, with
//!   a three-position [`TraceLevel`] switch;
//! * exporters — Chrome `trace_event` JSON streamed through
//!   [`ChromeWriter`] ([`chrome::write_tracer`]) and a textual
//!   per-packet lifetime report ([`packet_lifetimes`]).
//!
//! # The no-alloc hook contract
//!
//! Instrumentation in per-cycle hot paths goes through the [`trace!`]
//! macro, which compiles to
//!
//! ```text
//! if tracer.events_on() {            // one load + branch when off
//!     let ev = (<closure>)();        // event built only when tracing
//!     tracer.push_event(node, ev);   // indexed store into a ring
//! }
//! ```
//!
//! The closure body must be allocation-free (it runs inside the hot
//! loop whenever full tracing is on), and direct `push_event` calls in
//! hot scopes are rejected by `noc-lint` so the branch gate cannot be
//! bypassed by accident. Counters use the same pattern through
//! [`Tracer::counters_on`] internally: every `count_*` method is a
//! no-op branch in off mode.
//!
//! Recording never mutates simulation state: enabling any trace level
//! leaves `NetStats` bitwise identical (gated by `tests/golden.rs`).

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod report;
pub mod ring;

pub use chrome::ChromeWriter;
pub use event::{BypassOutcome, StallCause, TraceEvent, TraceRecord};
pub use metrics::{MetricsReport, NetworkTotals, RouterMetrics};
pub use report::{packet_lifetime, packet_lifetimes};
pub use ring::EventRing;

use noc_core::topology::NodeId;

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Record nothing. Every hook is a single load-and-branch.
    #[default]
    Off,
    /// Bump per-router counters only (no event rings).
    Counters,
    /// Counters plus full event records into per-node rings.
    Full,
}

/// Tracer configuration handed to `Simulation::set_trace`.
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// Recording level.
    pub level: TraceLevel,
}

impl TraceConfig {
    /// Per-node event-ring capacity.
    pub const RING_CAPACITY: usize = 4096;

    /// Counters-only configuration.
    pub fn counters() -> Self {
        TraceConfig {
            level: TraceLevel::Counters,
        }
    }

    /// Full-event configuration.
    pub fn full() -> Self {
        TraceConfig {
            level: TraceLevel::Full,
        }
    }
}

/// The recording façade. One lives inside the simulator's network core;
/// a disabled tracer ([`Tracer::disabled`]) owns no storage at all.
#[derive(Debug, Clone)]
pub struct Tracer {
    level: TraceLevel,
    /// Mirror of the core's cycle counter, synced by the owner at each
    /// cycle boundary so hooks never need a second borrow of the core.
    now: u64,
    seq: u64,
    rings: Vec<EventRing>,
    metrics: Vec<RouterMetrics>,
    lane_hist: Vec<u64>,
}

impl Tracer {
    /// A tracer that records nothing and owns no buffers (the default
    /// state of every simulation).
    pub fn disabled() -> Self {
        Tracer {
            level: TraceLevel::Off,
            now: 0,
            seq: 0,
            rings: Vec::new(),
            metrics: Vec::new(),
            lane_hist: Vec::new(),
        }
    }

    /// Builds a tracer for a network of `num_nodes` nodes. All storage
    /// (rings, counters, histograms) is allocated here, once.
    pub fn new(cfg: &TraceConfig, num_nodes: usize) -> Self {
        let full = matches!(cfg.level, TraceLevel::Full);
        let any = !matches!(cfg.level, TraceLevel::Off);
        Tracer {
            level: cfg.level,
            now: 0,
            seq: 0,
            rings: if full {
                (0..num_nodes)
                    .map(|_| EventRing::new(TraceConfig::RING_CAPACITY))
                    .collect()
            } else {
                Vec::new()
            },
            metrics: if any {
                vec![RouterMetrics::default(); num_nodes]
            } else {
                Vec::new()
            },
            lane_hist: if any {
                vec![0; num_nodes + 1]
            } else {
                Vec::new()
            },
        }
    }

    // ---- hot-path gates ---------------------------------------------------

    /// Whether full event recording is on (the `trace!` macro's gate).
    #[inline]
    pub fn events_on(&self) -> bool {
        matches!(self.level, TraceLevel::Full)
    }

    /// Whether counters (and therefore any recording at all) are on.
    #[inline]
    pub fn counters_on(&self) -> bool {
        !matches!(self.level, TraceLevel::Off)
    }

    /// Syncs the tracer's cycle mirror (called by the core at each cycle
    /// boundary).
    #[inline]
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    // ---- recording --------------------------------------------------------

    /// Records one event at `node`. Allocation-free: an indexed store
    /// into the node's pre-allocated ring.
    ///
    /// Do not call this directly from hot code — go through [`trace!`],
    /// which wraps the call in the branch-on-disabled gate (`noc-lint`
    /// enforces this in hot scopes).
    pub fn push_event(&mut self, node: NodeId, event: TraceEvent) {
        if !self.events_on() {
            return;
        }
        let rec = TraceRecord {
            cycle: self.now,
            seq: self.seq,
            node,
            event,
        };
        self.seq += 1;
        self.rings[node.index()].push(rec);
    }

    /// Counts a packet injection at `node` (class-indexed).
    #[inline]
    pub fn count_inject(&mut self, node: NodeId, class: usize) {
        if self.counters_on() {
            self.metrics[node.index()].injected[class] += 1;
        }
    }

    /// Counts a tail ejection at `node` (class-indexed).
    #[inline]
    pub fn count_eject(&mut self, node: NodeId, class: usize) {
        if self.counters_on() {
            self.metrics[node.index()].ejected[class] += 1;
        }
    }

    /// Counts one stall cycle at `node`.
    #[inline]
    pub fn count_stall(&mut self, node: NodeId, cause: StallCause) {
        self.count_stall_n(node, cause, 1);
    }

    /// Counts `n` stall cycles at `node` in one add (a whole word of
    /// blocked heads at once, by population count).
    #[inline]
    pub fn count_stall_n(&mut self, node: NodeId, cause: StallCause, n: u64) {
        if self.counters_on() {
            self.metrics[node.index()].stalls[cause.index()] += n;
        }
    }

    /// Counts one flit leaving `node` over a link (`bypass` selects the
    /// lane counter instead of the regular-pipeline counter).
    #[inline]
    pub fn count_link(&mut self, node: NodeId, bypass: bool) {
        if self.counters_on() {
            let m = &mut self.metrics[node.index()];
            if bypass {
                m.link_flits_bypass += 1;
            } else {
                m.link_flits_regular += 1;
            }
        }
    }

    /// Counts a FastPass upgrade launched at prime router `node`.
    #[inline]
    pub fn count_bypass_launch(&mut self, node: NodeId) {
        if self.counters_on() {
            self.metrics[node.index()].bypass_launches += 1;
        }
    }

    /// Adds one cycle's occupied-VC count for router `node_idx` to its
    /// occupancy integral.
    #[inline]
    pub fn sample_occupancy(&mut self, node_idx: usize, occupied: u64) {
        if self.counters_on() {
            let m = &mut self.metrics[node_idx];
            m.occupancy_integral += occupied;
            m.cycles_sampled += 1;
        }
    }

    /// Samples the number of concurrently active FastPass flights for
    /// the lane-occupancy histogram (last bucket aggregates overflow).
    #[inline]
    pub fn sample_lanes(&mut self, active: u64) {
        if self.counters_on() {
            let last = self.lane_hist.len() - 1;
            let bucket = (active as usize).min(last);
            self.lane_hist[bucket] += 1;
        }
    }

    // ---- inspection -------------------------------------------------------

    /// Nodes this tracer was sized for (0 when disabled).
    pub fn num_nodes(&self) -> usize {
        self.metrics.len().max(self.rings.len())
    }

    /// Per-router counters (empty when level is off).
    pub fn metrics(&self) -> &[RouterMetrics] {
        &self.metrics
    }

    /// Network-wide counter sums: every router's counters added into one
    /// (all-zero when the level is off). Allocation-free: this is the
    /// windowed sampler's per-window read of the tracer's counters.
    pub fn totals(&self) -> RouterMetrics {
        let mut total = RouterMetrics::default();
        for m in &self.metrics {
            total.add(m);
        }
        total
    }

    /// The event ring of one node (full mode only).
    ///
    /// # Panics
    ///
    /// Panics if full tracing is not enabled.
    pub fn ring(&self, node: NodeId) -> &EventRing {
        &self.rings[node.index()]
    }

    /// Full-mode events lost to ring overwriting, across all nodes.
    pub fn dropped_events(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }

    /// Events ever recorded (before any ring eviction).
    pub fn total_events(&self) -> u64 {
        self.rings.iter().map(|r| r.total_recorded()).sum()
    }

    /// All held records merged across nodes, in exact recording order
    /// (sorted by the global sequence number). Cold path; allocates.
    pub fn records_in_order(&self) -> Vec<TraceRecord> {
        self.held_records_by(|r| r.seq)
            .into_iter()
            .copied()
            .collect()
    }

    /// Every held record, borrowed from the rings (not copied) and
    /// sorted by `key`, which must be unique per record (every key here
    /// ends in `seq`). The exporters' one view of the rings.
    pub(crate) fn held_records_by<K: Ord>(
        &self,
        key: impl Fn(&TraceRecord) -> K,
    ) -> Vec<&TraceRecord> {
        let mut out: Vec<&TraceRecord> = self.rings.iter().flat_map(EventRing::iter).collect();
        out.sort_unstable_by_key(|r| key(r));
        out
    }

    /// Assembles the metrics report (routers + histograms).
    pub fn metrics_report(&self) -> MetricsReport {
        MetricsReport {
            stall_causes: StallCause::LABELS,
            routers: self.metrics.clone(),
            lane_occupancy: self.lane_hist.clone(),
            dropped_events: self.dropped_events(),
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

/// Records a trace event from a hot path, compiling to a single
/// load-and-branch when full tracing is off.
///
/// The event expression must be a zero-argument closure returning a
/// [`TraceEvent`]; it is invoked only when recording is live, so any
/// field reads it performs are free in off/counters mode. Its body must
/// not allocate (`noc-lint`'s `hot-loop-alloc` rule scans it like any
/// other hot-scope code).
///
/// ```
/// # use noc_trace::{trace, Tracer, TraceConfig, TraceEvent};
/// # use noc_core::topology::NodeId;
/// # use noc_core::packet::{Packet, PacketStore, MessageClass};
/// # let mut store = PacketStore::new();
/// # let pkt = store.insert(Packet::new(NodeId::new(0), NodeId::new(1), MessageClass::Request, 1, 0));
/// let mut tracer = Tracer::new(&TraceConfig::full(), 4);
/// let node = NodeId::new(0);
/// trace!(tracer, node, || TraceEvent::Eject { pkt });
/// assert_eq!(tracer.records_in_order().len(), 1);
/// ```
#[macro_export]
macro_rules! trace {
    ($tracer:expr, $node:expr, $ev:expr) => {
        if $tracer.events_on() {
            let __noc_trace_event = ($ev)();
            $tracer.push_event($node, __noc_trace_event);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::packet::{MessageClass, Packet, PacketId, PacketStore};

    fn pkt(store: &mut PacketStore) -> PacketId {
        store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::Request,
            1,
            0,
        ))
    }

    #[test]
    fn disabled_tracer_records_nothing_and_owns_nothing() {
        let mut store = PacketStore::new();
        let p = pkt(&mut store);
        let mut t = Tracer::disabled();
        assert!(!t.events_on() && !t.counters_on());
        // The macro's gate means push_event is never reached; even a
        // direct call is a filtered no-op.
        t.push_event(NodeId::new(0), TraceEvent::Eject { pkt: p });
        t.count_stall(NodeId::new(0), StallCause::SaLost);
        t.sample_occupancy(0, 3);
        assert_eq!(t.num_nodes(), 0);
        assert!(t.metrics().is_empty());
        assert_eq!(t.records_in_order().len(), 0);
    }

    #[test]
    fn counters_mode_counts_but_keeps_no_events() {
        let mut store = PacketStore::new();
        let p = pkt(&mut store);
        let mut t = Tracer::new(&TraceConfig::counters(), 4);
        assert!(t.counters_on() && !t.events_on());
        t.count_inject(NodeId::new(2), 0);
        t.count_stall(NodeId::new(2), StallCause::NoFreeVc);
        trace!(t, NodeId::new(2), || TraceEvent::Eject { pkt: p });
        assert_eq!(t.metrics()[2].injected[0], 1);
        assert_eq!(t.metrics()[2].stalls[StallCause::NoFreeVc.index()], 1);
        assert_eq!(t.total_events(), 0, "no rings in counters mode");
    }

    #[test]
    fn event_ordering_is_global_across_nodes() {
        let mut store = PacketStore::new();
        let p = pkt(&mut store);
        let q = pkt(&mut store);
        let mut t = Tracer::new(&TraceConfig::full(), 4);
        t.set_now(10);
        // Interleave nodes; the merged order must match recording order,
        // not node order.
        t.push_event(NodeId::new(3), TraceEvent::Inject { pkt: p, vc: 0 });
        t.push_event(NodeId::new(0), TraceEvent::Inject { pkt: q, vc: 1 });
        t.set_now(11);
        t.push_event(NodeId::new(3), TraceEvent::Eject { pkt: p });
        let recs = t.records_in_order();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| r.node.index()).collect::<Vec<_>>(),
            vec![3, 0, 3]
        );
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(recs[0].cycle, 10);
        assert_eq!(recs[2].cycle, 11);
    }

    #[test]
    fn lane_histogram_clamps_to_last_bucket() {
        let mut t = Tracer::new(&TraceConfig::counters(), 2);
        t.sample_lanes(0);
        t.sample_lanes(1);
        t.sample_lanes(50); // way past the 3-bucket histogram
        let report = t.metrics_report();
        assert_eq!(report.lane_occupancy, vec![1, 1, 1]);
    }
}
