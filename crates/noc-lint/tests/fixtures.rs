//! Fixture tests: one positive (rule fires) and one negative (rule stays
//! quiet) fixture per shipped rule, plus the escape-hatch semantics.
//!
//! Fixtures are inline sources linted under synthetic workspace paths,
//! because a rule's scope is a function of the path: the same source can
//! be a violation in `crates/noc-sim/…` and perfectly fine in
//! `crates/bench/…`.

use noc_lint::lint_source;

fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(path, src).into_iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

// ---- determinism -----------------------------------------------------------

#[test]
fn determinism_flags_hashmap_in_sim_crate() {
    let src =
        "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> { HashMap::new() }\n";
    let diags = lint_source("crates/noc-sim/src/foo.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "determinism" && d.line == 1),
        "{diags:?}"
    );
}

#[test]
fn determinism_flags_wall_clock_and_os_rng() {
    let src = "pub fn f() { let t = std::time::Instant::now(); let r = rand::thread_rng(); }\n";
    let diags = lint_source("crates/fastpass/src/foo.rs", src);
    let n = diags.iter().filter(|d| d.rule == "determinism").count();
    assert!(n >= 2, "Instant and thread_rng must both fire: {diags:?}");
}

#[test]
fn determinism_silent_on_btreemap() {
    let src =
        "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n";
    assert!(rules_fired("crates/noc-sim/src/foo.rs", src).is_empty());
}

#[test]
fn determinism_out_of_scope_in_bench() {
    let src = "use std::collections::HashMap;\npub fn f() { let _: HashMap<u32, u32> = HashMap::new(); }\n";
    assert!(
        !rules_fired("crates/bench/src/foo.rs", src).contains(&"determinism"),
        "bench harness may use HashMap"
    );
}

#[test]
fn determinism_ignores_test_modules() {
    let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _ = HashMap::<u8, u8>::new(); }\n}\n";
    assert!(rules_fired("crates/noc-sim/src/foo.rs", src).is_empty());
}

#[test]
fn determinism_ignores_idents_in_strings_and_comments() {
    let src = "// HashMap would be wrong here\npub fn f() -> &'static str { \"HashMap\" }\n";
    assert!(rules_fired("crates/noc-sim/src/foo.rs", src).is_empty());
}

#[test]
fn determinism_exempts_the_service_crate_but_not_the_simulator() {
    // The daemon's uptime clock, accept-loop threads and hash-keyed
    // point registry are intentional — the same source under a sim
    // crate's path is a violation. One fixture, two paths.
    let src = "use std::collections::HashMap;\npub fn f() { let t = std::time::Instant::now(); \
               let h = std::thread::spawn(|| 1); let m: HashMap<u64, u64> = HashMap::new(); \
               drop((t, h, m)); }\n";
    assert!(
        !rules_fired("crates/noc-serve/src/core.rs", src).contains(&"determinism"),
        "noc-serve is not a simulator crate"
    );
    let diags = lint_source("crates/noc-sim/src/core.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "determinism"),
        "the identical source must stay banned in noc-sim: {diags:?}"
    );
}

#[test]
fn observability_modules_inherit_the_service_crate_scoping() {
    // Crate-level scoping must cover modules added after the rules were
    // written: the flight recorder's writer thread and the metrics
    // registry's wall-clock sampling are fine under noc-serve.
    let clocky = "pub fn tick() { let t = std::time::Instant::now(); \
                  let h = std::thread::spawn(|| 1); drop((t, h)); }\n";
    for file in [
        "crates/noc-serve/src/flight.rs",
        "crates/noc-serve/src/metrics.rs",
    ] {
        assert!(
            !rules_fired(file, clocky).contains(&"determinism"),
            "{file} is inside the service crate"
        );
    }
}

// ---- hot-loop-alloc --------------------------------------------------------

#[test]
fn hot_loop_flags_vec_macro_in_regular_rs() {
    let src = "pub fn helper() { let v = vec![1, 2, 3]; drop(v); }\n";
    let diags = lint_source("crates/noc-sim/src/regular.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "hot-loop-alloc"),
        "regular.rs is hot in its entirety: {diags:?}"
    );
}

#[test]
fn hot_loop_flags_collect_inside_advance() {
    let src =
        "pub fn advance(xs: &[u32]) { let v: Vec<u32> = xs.iter().copied().collect(); drop(v); }\n";
    let diags = lint_source("crates/fastpass/src/scheme.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "hot-loop-alloc"),
        "{diags:?}"
    );
}

#[test]
fn hot_loop_flags_clone_inside_step() {
    let src = "impl S { fn step(&mut self, p: &Packet) { self.last = p.clone(); } }\n";
    let diags = lint_source("crates/baselines/src/foo.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "hot-loop-alloc"),
        "{diags:?}"
    );
}

#[test]
fn hot_loop_silent_outside_hot_fns() {
    // Allocation in a constructor is fine — only advance/step/apply_staged
    // bodies (and regular.rs wholesale) are hot.
    let src = "pub fn new() -> Vec<u32> { let mut v = Vec::new(); v.push(1); v }\n";
    assert!(rules_fired("crates/fastpass/src/foo.rs", src).is_empty());
}

#[test]
fn hot_loop_flags_every_allocating_constructor() {
    // Not just `Vec::new`: sized buffers, the other std collections and
    // shared pointers allocate as surely, and all seven fire.
    let src = "impl S { fn step(&mut self) { let a = Vec::<u8>::with_capacity(8); \
               let b = String::with_capacity(8); let c = VecDeque::new(); \
               let d = BTreeMap::new(); let e = Rc::new(1); let f = Arc::new(2); \
               let g = BinaryHeap::new(); drop((a, b, c, d, e, f, g)); } }\n";
    let diags = lint_source("crates/noc-sim/src/foo.rs", src);
    let n = diags.iter().filter(|d| d.rule == "hot-loop-alloc").count();
    assert_eq!(n, 7, "{diags:?}");
}

#[test]
fn hot_loop_silent_on_non_allocating_constructors() {
    // `::new` on a type that owns no heap, a `with_capacity` method that
    // is not a path call, and the same allocating body in a cold
    // function all stay clean.
    let hot = "impl S { fn step(&mut self) { let c = Cell::new(0); let w = Wrapping::new(1); \
               let n = self.with_capacity; drop((c, w, n)); } }\n";
    assert!(rules_fired("crates/noc-sim/src/foo.rs", hot).is_empty());
    let cold =
        "pub fn build() -> VecDeque<u8> { let _ = Rc::new(1); VecDeque::with_capacity(8) }\n";
    assert!(rules_fired("crates/noc-sim/src/foo.rs", cold).is_empty());
}

#[test]
fn hot_loop_flags_direct_push_event_in_hot_fn() {
    // Events must flow through the `trace!` macro's branch gate; a raw
    // `.push_event(…)` in a hot scope pays the call even when disabled.
    let src =
        "impl S { fn step(&mut self, core: &mut Core) { core.trace.push_event(node, ev); } }\n";
    let diags = lint_source("crates/fastpass/src/foo.rs", src);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "hot-loop-alloc" && d.message.contains("trace!")),
        "{diags:?}"
    );
}

#[test]
fn hot_loop_flags_alloc_inside_trace_closure() {
    // The macro form is allowed, but its closure body sits in the hot
    // scope like any other tokens — a `format!` inside it still fires.
    let src = "pub fn helper(core: &mut Core) { trace!(core.trace, node, || Ev::Note { msg: format!(\"p{}\", i) }); }\n";
    let diags = lint_source("crates/noc-sim/src/regular.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "hot-loop-alloc"),
        "{diags:?}"
    );
}

#[test]
fn hot_loop_silent_on_trace_macro_with_copy_closure() {
    let src = "pub fn helper(core: &mut Core) { trace!(core.trace, node, || Ev::Inject { pkt, vc: 0 }); }\n";
    assert!(
        !rules_fired("crates/noc-sim/src/regular.rs", src).contains(&"hot-loop-alloc"),
        "a plain struct-literal closure allocates nothing"
    );
}

#[test]
fn hot_loop_permits_push_event_outside_hot_scopes() {
    // The tracer's own plumbing (and any cold-path caller) may call the
    // sink directly; only hot scopes are gated.
    let src = "pub fn record(t: &mut Tracer) { t.push_event(node, ev); }\n";
    assert!(rules_fired("crates/noc-trace/src/foo.rs", src).is_empty());
}

#[test]
fn hot_loop_flags_alloc_inside_record_window() {
    // The windowed sampler records inside the per-cycle loop; its
    // recording path obeys the same no-allocation contract as the
    // pipeline itself.
    let src = "impl Sampler { fn record_window(&mut self, core: &Core) { self.tmp = format!(\"w{}\", core.cycle()); } }\n";
    let diags = lint_source("crates/noc-sim/src/sampler.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "hot-loop-alloc"),
        "{diags:?}"
    );
}

#[test]
fn hot_loop_flags_collect_inside_sample_tick() {
    let src = "impl Sim { fn sample_tick(&mut self) { let v: Vec<u64> = self.core.iter().collect(); drop(v); } }\n";
    let diags = lint_source("crates/noc-sim/src/engine.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "hot-loop-alloc"),
        "{diags:?}"
    );
}

#[test]
fn hot_loop_permits_preallocated_push_in_record_window() {
    // The real sampler pushes into a pre-allocated, fixed-capacity
    // series: `.push` onto an existing Vec is not an allocation site the
    // rule recognises, so the honest implementation stays clean.
    let src = "impl Sampler { fn record_window(&mut self, s: WindowSample) { if self.windows.len() < self.cap { self.windows.push(s); } } }\n";
    assert!(
        !rules_fired("crates/noc-sim/src/sampler.rs", src).contains(&"hot-loop-alloc"),
        "bounded push into a pre-allocated series is the sanctioned pattern"
    );
}

#[test]
fn hot_loop_covers_route_computation() {
    // `route` runs inside `advance` for every unparked head; an
    // allocating route set must not hide in the callee.
    let alloc = "impl RoutingPolicy for P { fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> { let dirs: Vec<Direction> = set(req).iter().collect(); pick(core, dirs, range.clone()) } }\n";
    let diags = lint_source("crates/baselines/src/tfc.rs", alloc);
    let n = diags.iter().filter(|d| d.rule == "hot-loop-alloc").count();
    assert_eq!(n, 2, "collect and clone must both fire: {diags:?}");
    let clean = "impl RoutingPolicy for P { fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> { let dirs = self.desired_ports(core, req); pick(core, dirs, range.start..range.end) } }\n";
    assert!(rules_fired("crates/baselines/src/tfc.rs", clean).is_empty());
}

#[test]
fn hot_loop_out_of_scope_in_noc_core() {
    let src = "pub fn advance() { let v = vec![1]; drop(v); }\n";
    assert!(
        !rules_fired("crates/noc-core/src/foo.rs", src).contains(&"hot-loop-alloc"),
        "noc-core has no per-cycle loop"
    );
}

// ---- routing-locality ------------------------------------------------------

#[test]
fn routing_locality_flags_policy_impl_outside_whitelist() {
    let src =
        "impl RoutingPolicy for SneakyRoute { fn kind(&self) -> PolicyKind { PolicyKind::Yx } }\n";
    let diags = lint_source("crates/baselines/src/foo.rs", src);
    let n = diags
        .iter()
        .filter(|d| d.rule == "routing-locality")
        .count();
    assert_eq!(
        n, 1,
        "the impl fires; a desired_ports override is rustc's E0119: {diags:?}"
    );
}

#[test]
fn routing_locality_flags_productive_dirs_use() {
    let src = "pub fn pick(core: &Core, at: NodeId, dst: NodeId) -> Direction { core.productive_dirs(at, dst).iter().next().expect(\"minimal route exists\") }\n";
    let diags = lint_source("crates/fastpass/src/foo.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "routing-locality"),
        "{diags:?}"
    );
}

#[test]
fn routing_locality_permits_consuming_a_policy() {
    // Executing an existing policy is not making a routing decision:
    // trait objects, imports and `.desired_ports(…)` calls stay clean.
    let src = "use noc_sim::routing::RoutingPolicy;\npub fn drive(p: &dyn RoutingPolicy, core: &NetworkCore, req: &RouteReq) -> Vec<Port> { p.desired_ports(core, req) }\n";
    assert!(
        !rules_fired("crates/baselines/src/foo.rs", src).contains(&"routing-locality"),
        "consumption must stay clean"
    );
}

#[test]
fn routing_locality_silent_in_whitelisted_modules() {
    let src = "impl RoutingPolicy for TokenWestFirst { fn kind(&self) -> PolicyKind { PolicyKind::WestFirst } }\n";
    assert!(
        !rules_fired("crates/baselines/src/tfc.rs", src).contains(&"routing-locality"),
        "tfc.rs is a whitelisted routing module"
    );
    let geom =
        "pub fn productive_dirs(self, from: NodeId, to: NodeId) -> ProductiveDirs { todo() }\n";
    assert!(
        !rules_fired("crates/noc-core/src/topology.rs", geom).contains(&"routing-locality"),
        "topology.rs defines the primitive"
    );
}

#[test]
fn routing_locality_out_of_scope_in_analysis_crates() {
    // noc-prove/noc-check reconstruct and explore routes; they are
    // analysis consumers, not the network, and sit outside the rule.
    let src = "pub fn model(m: Mesh, a: NodeId, b: NodeId) { let _ = m.productive_dirs(a, b); }\n";
    assert!(
        !rules_fired("crates/noc-prove/src/model.rs", src).contains(&"routing-locality"),
        "{src:?}"
    );
}

#[test]
fn routing_locality_escape_hatch_works() {
    let src = "// noc-lint: allow(routing-locality)\npub fn pick(core: &Core) { let _ = core.productive_dirs(a, b); }\n";
    assert!(!rules_fired("crates/baselines/src/foo.rs", src).contains(&"routing-locality"));
}

// ---- escape hatch ----------------------------------------------------------

#[test]
fn allow_suppresses_exactly_one_rule_on_one_line() {
    // Two violations; the directive covers its own line (and the one
    // directly below — line 2 here is blank), so only line 3 fires.
    let src = "use std::collections::HashMap; // noc-lint: allow(determinism)\n\nuse std::collections::HashSet;\n";
    let diags = lint_source("crates/noc-sim/src/foo.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].line, 3);
    assert_eq!(diags[0].rule, "determinism");
}

#[test]
fn allow_covers_the_line_below() {
    let src = "// noc-lint: allow(determinism)\nuse std::collections::HashMap;\n";
    assert!(rules_fired("crates/noc-sim/src/foo.rs", src).is_empty());
}

#[test]
fn allow_does_not_suppress_other_rules() {
    // The directive names determinism, but the line also holds a raw
    // productive-direction choice — which must still fire.
    let src = "pub fn f(c: &Core, o: Option<std::time::Instant>) { c.productive_dirs(a, b); } // noc-lint: allow(determinism)\n";
    let diags = lint_source("crates/noc-sim/src/foo.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "routing-locality");
}

#[test]
fn allow_all_suppresses_everything_on_its_line() {
    let src = "pub fn f(c: &Core, o: Option<std::time::Instant>) { c.productive_dirs(a, b); } // noc-lint: allow(all)\n";
    assert!(rules_fired("crates/noc-sim/src/foo.rs", src).is_empty());
}

// ---- scoping sanity --------------------------------------------------------

#[test]
fn test_files_are_never_linted() {
    let src = "use std::collections::HashMap;\npub fn f() { Some(1).unwrap(); unsafe {} }\n";
    assert!(rules_fired("crates/noc-sim/tests/foo.rs", src).is_empty());
    assert!(rules_fired("crates/noc-lint/fixtures/foo.rs", src).is_empty());
}

#[test]
fn diagnostics_are_span_accurate() {
    let src =
        "pub fn f() {\n    let m = std::collections::HashMap::<u8, u8>::new();\n    drop(m);\n}\n";
    let diags = lint_source("crates/noc-sim/src/foo.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 2);
    let col = src.lines().nth(1).unwrap().find("HashMap").unwrap() as u32 + 1;
    assert_eq!(diags[0].col, col);
}
