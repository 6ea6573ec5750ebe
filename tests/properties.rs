//! Property-based tests (proptest) of the reproduction's core
//! invariants: lane geometry, TDM schedule structure, collision freedom
//! under random traffic, conservation, distribution math, and the one
//! admission rule every front end applies to a sweep spec.

use fastpass_noc::core::config::SimConfig;
use fastpass_noc::core::rng::DetRng;
use fastpass_noc::core::stats::Distribution;
use fastpass_noc::core::topology::{Mesh, NodeId};
use fastpass_noc::fastpass::lane::{
    lane_footprint, outbound_path, path_links, return_path, verify_slot_disjoint,
};
use fastpass_noc::fastpass::{FastPass, FastPassConfig, TdmSchedule};
use fastpass_noc::schemes::{SchemeId, ALL_SCHEMES};
use fastpass_noc::serve::proto::WireSpec;
use fastpass_noc::serve::runner::{make_sim, SweepSpec};
use fastpass_noc::sim::Simulation;
use fastpass_noc::traffic::{SyntheticPattern, SyntheticWorkload};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Outbound and returning paths never share a directed link, for any
    /// prime/destination pair on any supported mesh.
    #[test]
    fn outbound_return_disjoint(
        w in 2usize..9,
        extra_h in 0usize..4,
        px in 0usize..8,
        py in 0usize..11,
        dx in 0usize..8,
        dy in 0usize..11,
    ) {
        let h = w + extra_h; // width <= height (FastPass requirement)
        let mesh = Mesh::new(w, h);
        let prime = mesh.node(px % w, py % h);
        let dst = mesh.node(dx % w, dy % h);
        prop_assume!(prime != dst);
        let out: std::collections::HashSet<_> =
            path_links(mesh, &outbound_path(mesh, prime, dst)).into_iter().collect();
        for l in path_links(mesh, &return_path(mesh, dst, prime)) {
            prop_assert!(!out.contains(&l), "shared link {l}");
        }
    }

    /// Every slot of every phase keeps all primes' full lane footprints
    /// pairwise disjoint — Fig. 4's property, for arbitrary mesh shapes.
    #[test]
    fn lanes_disjoint_any_mesh(w in 2usize..7, extra_h in 0usize..3, slot in 0u64..64) {
        let h = w + extra_h;
        let mesh = Mesh::new(w, h);
        let sched = TdmSchedule::new(mesh, 2);
        let cycle = slot * sched.slot_cycles();
        prop_assert!(verify_slot_disjoint(mesh, sched, cycle).is_ok());
    }

    /// A lane footprint touches only the prime's row and the covered
    /// column (the geometric invariant behind disjointness).
    #[test]
    fn footprint_geometry(w in 2usize..7, extra_h in 0usize..3, p in 0usize..7, q in 0usize..7, row in 0usize..9) {
        let h = w + extra_h;
        let mesh = Mesh::new(w, h);
        let prime = mesh.node(p % w, row % h);
        let covered = q % w;
        for link in lane_footprint(mesh, prime, covered) {
            let (from, dir) = mesh.link_endpoints(link);
            if dir.is_horizontal() {
                prop_assert_eq!(mesh.y(from), mesh.y(prime));
            } else {
                prop_assert_eq!(mesh.x(from), covered);
            }
        }
    }

    /// The schedule gives every router the prime role and every prime
    /// every partition, with concurrent primes never sharing rows or
    /// columns — Lemma 2's structural prerequisites.
    #[test]
    fn schedule_structure(w in 2usize..7, extra_h in 0usize..3) {
        let h = w + extra_h;
        let mesh = Mesh::new(w, h);
        let sched = TdmSchedule::new(mesh, 1);
        let mut primes_seen = std::collections::HashSet::new();
        for phase in 0..h as u64 {
            let mut rows = std::collections::HashSet::new();
            for p in 0..w {
                let prime = sched.prime(p, phase);
                prop_assert!(rows.insert(mesh.y(prime)));
                primes_seen.insert(prime);
            }
        }
        prop_assert_eq!(primes_seen.len(), mesh.num_nodes());
    }

    /// Random traffic at random load on random mesh sizes: the FastPass
    /// per-cycle collision assertion (inside the scheme) must never fire,
    /// packets are conserved, and nothing is lost.
    #[test]
    fn fastpass_random_traffic_invariants(
        w in 2usize..5,
        extra_h in 0usize..3,
        rate_pct in 1u32..60,
        seed in 0u64..1_000,
        vcs in 1usize..4,
    ) {
        let h = w + extra_h;
        let cfg = SimConfig::builder()
            .mesh(w, h)
            .vns(0)
            .vcs_per_vn(vcs)
            .seed(seed)
            .build();
        let scheme = FastPass::new(&cfg, FastPassConfig::default());
        let mut sim = Simulation::new(
            cfg,
            Box::new(scheme),
            Box::new(SyntheticWorkload::new(
                SyntheticPattern::Uniform,
                rate_pct as f64 / 100.0,
                seed ^ 0xABCD,
            )),
        );
        sim.run(3_000); // collision assert inside step() is the oracle
        let generated = sim.core.stats.generated;
        prop_assert_eq!(generated, sim.total_consumed() + sim.in_flight() as u64);
        // Deep structural audit: counters ordered, reservations chained,
        // queues reference live packets.
        let violations = fastpass_noc::sim::audit::audit(&sim.core);
        prop_assert!(violations.is_empty(), "audit failed: {:?}", violations);
    }

    /// The counting histogram answers every statistic exactly as the
    /// sort-every-sample algorithm it replaced ([`nearest_rank`], the
    /// oracle). Samples straddle the dense bound, so both the dense
    /// array and the sparse map are exercised.
    #[test]
    fn distribution_percentiles(mut samples in proptest::collection::vec(0u64..5_000, 1..200)) {
        let mut d = Distribution::new();
        for &s in &samples {
            d.record(s);
        }
        samples.sort_unstable();
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        prop_assert_eq!(d.count(), samples.len());
        prop_assert_eq!(d.sum(), sum);
        prop_assert_eq!(d.min(), Some(samples[0]));
        prop_assert_eq!(d.max(), samples.last().copied());
        prop_assert_eq!(d.mean(), Some(sum as f64 / samples.len() as f64));
        for p in (0..=100).map(f64::from).chain([99.9]) {
            prop_assert_eq!(d.percentile(p), Some(nearest_rank(&samples, p)), "p{}", p);
        }
    }

    /// Recording after a percentile query is seen by every later query
    /// exactly as if all samples had been recorded up front.
    #[test]
    fn distribution_record_after_percentile_resorts(
        samples in proptest::collection::vec(0u64..10_000, 1..120),
        late in 0u64..10_000,
        p in 0u64..=100,
    ) {
        let mut d = Distribution::new();
        for &s in &samples {
            d.record(s);
        }
        let _ = d.percentile(50.0);
        d.record(late);
        let mut fresh = Distribution::new();
        for &s in samples.iter().chain(std::iter::once(&late)) {
            fresh.record(s);
        }
        prop_assert_eq!(d.percentile(p as f64), fresh.percentile(p as f64));
        prop_assert_eq!(d.min(), fresh.min());
        prop_assert_eq!(d.max(), fresh.max());
        prop_assert_eq!(d.mean(), fresh.mean());
    }

    /// Synthetic patterns are self-inverse or permutations where claimed,
    /// and never map a node to itself when they return a destination.
    #[test]
    fn patterns_never_self(src_idx in 0usize..64, pattern_idx in 0usize..8, seed in 0u64..100) {
        let mesh = Mesh::new(8, 8);
        let pattern = SyntheticPattern::ALL[pattern_idx];
        let mut rng = fastpass_noc::core::rng::DetRng::new(seed);
        if let Some(d) = pattern.dest(mesh, NodeId::new(src_idx), &mut rng) {
            prop_assert_ne!(d, NodeId::new(src_idx));
            prop_assert!(d.index() < 64);
        }
    }
}

/// Every scheme × every mesh edge 2..=12, exhaustively, each pair with
/// a drawn pattern, VC count in 1..=12, rate in (0, 1] and seed. Where
/// [`SweepSpec::admit`] accepts the spec, a 50 + 200-cycle run
/// completes and conserves every packet; where it refuses, the daemon's
/// wire decode refuses with the identical message. A scheme that
/// cannot be built on a spec its rule admits fails here, naming the
/// spec.
#[test]
fn every_admitted_spec_runs_and_every_refusal_is_shared() {
    let mut rng = DetRng::new(0xAD41_7000);
    let (mut ran, mut refused) = (0, 0);
    for id in ALL_SCHEMES.into_iter().chain([SchemeId::Vct]) {
        for size in 2..=12 {
            let rate = 1.0 - rng.f64();
            let spec = SweepSpec {
                id,
                pattern: *rng.pick(&SyntheticPattern::ALL),
                rates: vec![rate],
                size,
                fp_vcs: rng.range(1, 13),
                warmup: 50,
                measure: 200,
                seed: rng.range(0, 1 << 30) as u64,
            };
            let what = format!(
                "{} {size}x{size} {} rate {rate} fp_vcs {} seed {}",
                id.name(),
                spec.pattern.name(),
                spec.fp_vcs,
                spec.seed
            );
            match spec.admit() {
                Ok(()) => {
                    let run = std::panic::catch_unwind(|| {
                        let mut sim =
                            make_sim(id, spec.pattern, rate, size, spec.fp_vcs, spec.seed);
                        sim.run_windows(spec.warmup, spec.measure);
                        sim.assert_conserved();
                    });
                    if let Err(payload) = run {
                        let msg = payload
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| payload.downcast_ref::<&str>().copied())
                            .unwrap_or("non-string panic");
                        panic!("{what}: admitted, but the run panicked: {msg}");
                    }
                    ran += 1;
                }
                Err(message) => {
                    let wire = WireSpec::from_spec(&spec).to_spec();
                    assert_eq!(wire.err(), Some(message), "{what}");
                    refused += 1;
                }
            }
        }
    }
    // DRAIN's five odd edges at least are refused, and most pairs run.
    assert!(refused >= 5 && ran >= 60, "{ran} ran, {refused} refused");
}

// ---------------------------------------------------------------------
// Graph properties: the one cycle search (`Digraph::find_cycle`) that
// SPIN, the model checker and the certifier all trust, cross-checked
// against a reachability oracle on random graphs, and SPIN's rotation
// checked against the conservation auditor.
// ---------------------------------------------------------------------

/// Brute-force transitive closure with path length ≥ 1
/// (Floyd–Warshall); the oracle the DFS cycle detector is tested
/// against.
fn reach_plus(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<bool>> {
    let mut r = vec![vec![false; n]; n];
    for (i, row) in edges.iter().enumerate() {
        for &j in row {
            r[i][j] = true;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if r[i][k] && r[k][j] {
                    r[i][j] = true;
                }
            }
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `find_cycle` agrees with the reachability oracle on random
    /// digraphs, duplicate edges and all, before and after `dedup`: it
    /// finds a cycle iff some vertex reaches itself, and any cycle it
    /// returns is simple, on the oracle's cycles, and made of real
    /// edges, including the wrap. (The proptest shim has no tuple
    /// strategies, so each edge is one integer `raw` decomposed as
    /// `(raw / n, raw % n)`.)
    #[test]
    fn wait_graph_cycles_match_reachability_oracle(
        n in 1usize..24,
        raw_edges in proptest::collection::vec(0usize..(24 * 24), 0..80),
        dedup in 0u8..2,
    ) {
        use fastpass_noc::core::graph::Digraph;

        let mut edges = vec![Vec::new(); n];
        let mut g = Digraph::new(n);
        for raw in raw_edges {
            let (a, b) = ((raw / n) % n, raw % n);
            edges[a].push(b);
            g.add_edge(a as u32, b as u32);
        }
        if dedup == 1 {
            g.dedup();
        }
        let r = reach_plus(n, &edges);
        match g.find_cycle() {
            Some(cyc) => {
                let mut distinct = cyc.clone();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert!(!cyc.is_empty() && distinct.len() == cyc.len(), "{cyc:?}");
                for k in 0..cyc.len() {
                    let (a, b) = (cyc[k], cyc[(k + 1) % cyc.len()]);
                    prop_assert!(g.successors(a).contains(&b), "{cyc:?}");
                    prop_assert!(r[a as usize][a as usize], "{cyc:?}");
                }
            }
            None => prop_assert!((0..n).all(|v| !r[v][v]), "missed a cycle"),
        }
    }

    /// Random DAGs (edges only from lower to higher ids) are always
    /// reported acyclic.
    #[test]
    fn dags_are_acyclic(
        n in 2usize..24,
        raw_edges in proptest::collection::vec(0u32..(24 * 24), 0..80),
    ) {
        use fastpass_noc::core::graph::Digraph;

        let n32 = n as u32;
        let mut g = Digraph::new(n);
        for raw in raw_edges {
            let a = (raw / n32) % (n32 - 1);
            let b = (a + 1 + raw % (n32 - 1 - a).max(1)).min(n32 - 1);
            if a < b {
                g.add_edge(a, b);
            }
        }
        g.dedup();
        prop_assert!(g.find_cycle().is_none());
    }

    /// A back edge that closes a directed chain is detected, and the
    /// reported path walks the chain.
    #[test]
    fn chain_with_back_edge_found(len in 2usize..40, back_to in 0usize..40) {
        use fastpass_noc::core::graph::Digraph;

        let back_to = back_to % (len - 1);
        let mut g = Digraph::new(len);
        for i in 0..len as u32 - 1 {
            g.add_edge(i, i + 1);
        }
        g.add_edge(len as u32 - 1, back_to as u32);
        let chain: Vec<u32> = (back_to as u32..len as u32).collect();
        prop_assert_eq!(g.find_cycle(), Some(chain));
    }

    /// SPIN's synchronized rotation never breaks packet conservation or
    /// the buffer-chaining invariants: starting from the canonical
    /// 4-packet ring deadlock on a 2×2 mesh, every rotation the wait
    /// graph justifies leaves both auditors clean and moves exactly the
    /// cycle's packets.
    #[test]
    fn rotate_cycle_preserves_conservation(seed in 0u64..64, rounds in 1usize..5) {
        use fastpass_noc::core::packet::{MessageClass, Packet};
        use fastpass_noc::core::topology::{Direction, Port};
        use fastpass_noc::sim::audit::{audit, audit_conservation};
        use fastpass_noc::sim::routing::FullyAdaptive;
        use fastpass_noc::sim::vc::VcOccupant;
        use fastpass_noc::sim::waitgraph::{rotate_cycle, WaitGraph};
        use fastpass_noc::sim::NetworkCore;

        let mut core = NetworkCore::new(
            SimConfig::builder().mesh(2, 2).vns(0).vcs_per_vn(1).build(),
        );
        // The canonical clockwise ring: each packet buffered on the input
        // the previous one wants. Install directly (no NI queues) so the
        // conservation audit sees exactly one residence per packet.
        let ring = [
            (0usize, Port::Dir(Direction::South), 2usize, 3usize),
            (1, Port::Dir(Direction::West), 0, 2),
            (3, Port::Dir(Direction::North), 1, 2),
            (2, Port::Dir(Direction::East), 3, 0),
        ];
        for &(node, port, src, dst) in &ring {
            let id = core.store.insert(Packet::new(
                NodeId::new(src),
                NodeId::new(dst),
                MessageClass::Request,
                1,
                0,
            ));
            let mut occ = VcOccupant::reserved(id, 1, 0);
            occ.arrived = 1;
            core.input_mut(NodeId::new(node), port.index()).install(0, occ);
        }
        let policy = FullyAdaptive::new(seed);
        prop_assert!(audit(&core).is_empty());
        prop_assert!(audit_conservation(&core, 0, 0).is_empty());
        for _ in 0..rounds {
            let g = WaitGraph::build(&core, &policy, 0);
            let Some(cyc) = g.deps().find_cycle() else {
                break; // rotation resolved the ring — nothing left to spin
            };
            let moved = rotate_cycle(&mut core, &g, &cyc);
            prop_assert_eq!(moved.len(), cyc.len());
            prop_assert!(audit(&core).is_empty());
            prop_assert!(audit_conservation(&core, 0, 0).is_empty());
            prop_assert_eq!(core.store.live(), 4);
        }
    }
}

/// Nearest-rank percentile `p` of ascending `sorted` samples: the
/// algorithm `Distribution` used when it stored every sample.
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(n - 1)]
}
