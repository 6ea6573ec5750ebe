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
        "noc-serve is a whitelisted service crate"
    );
    let diags = lint_source("crates/noc-sim/src/core.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "determinism"),
        "the identical source must stay banned in noc-sim: {diags:?}"
    );
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

// ---- occupancy -------------------------------------------------------------

#[test]
fn occupancy_flags_indexed_install() {
    let src =
        "pub fn relocate(r: &mut Router) { let occ = make(); r.inputs[0].install(1, occ); }\n";
    let diags = lint_source("crates/baselines/src/foo.rs", src);
    assert!(diags.iter().any(|d| d.rule == "occupancy"), "{diags:?}");
}

#[test]
fn occupancy_flags_occ_mask_and_occupant_mut() {
    let src = "pub fn peek(r: &Router) -> u64 { r.inputs[0].occ_mask() }\npub fn poke(v: &mut Vc) { v.occupant_mut(); }\n";
    let diags = lint_source("crates/fastpass/src/foo.rs", src);
    let n = diags.iter().filter(|d| d.rule == "occupancy").count();
    assert_eq!(n, 2, "{diags:?}");
}

#[test]
fn occupancy_holds_the_relocating_schemes_to_the_core_helpers() {
    // DRAIN, SWAP and SPIN's rotation relocate through
    // `take_vc_packet` / `put_vc_packet`; a hand-rolled install in any of
    // them fires, the helper pair does not.
    let by_hand = "pub fn circulate(core: &mut NetworkCore) { let occ = make(); core.input_mut(n, p).install(1, occ); }\n";
    let helpers = "pub fn circulate(core: &mut NetworkCore) { let pkt = core.take_vc_packet(a, p, 0); core.put_vc_packet(b, p, 0, pkt); }\n";
    for file in [
        "crates/baselines/src/drain.rs",
        "crates/baselines/src/swap.rs",
        "crates/noc-sim/src/waitgraph.rs",
    ] {
        assert!(rules_fired(file, by_hand).contains(&"occupancy"), "{file}");
        assert!(rules_fired(file, helpers).is_empty(), "{file}");
    }
    assert!(
        !rules_fired("crates/noc-sim/src/network.rs", by_hand).contains(&"occupancy"),
        "the core owns the helper pair"
    );
}

#[test]
fn occupancy_flags_arena_word_indexing_outside_arena() {
    // Stray arena mutation: indexing the packed word arrays directly
    // from a scheme. Reads are flagged too — cold code goes through
    // `VcArena::get` / `InputRef`.
    let src = "pub fn poke(core: &mut Core, s: usize) { core.arena.meta[s] |= 1; let r = core.arena.routed[0]; drop(r); }\n";
    let diags = lint_source("crates/fastpass/src/foo.rs", src);
    let n = diags.iter().filter(|d| d.rule == "occupancy").count();
    assert_eq!(n, 2, "meta and routed indexing must both fire: {diags:?}");
}

#[test]
fn occupancy_flags_arena_mutator_call_outside_whitelist() {
    let src = "pub fn hack(core: &mut Core) { core.arena.set_route_vc(0, 0, 0, out, 1); }\n";
    let diags = lint_source("crates/baselines/src/foo.rs", src);
    assert!(diags.iter().any(|d| d.rule == "occupancy"), "{diags:?}");
}

#[test]
fn occupancy_flags_port_record_and_parking_words_outside_arena() {
    // The event-driven allocation words: the co-located per-port record
    // (whichever field is touched), the waiter words and the per-slot
    // refused masks, read or written from a scheme.
    let src = "pub fn poke(core: &mut Core, w: usize, s: usize) { core.arena.ports[w].parked = 0; let r = core.arena.ports[w].ready; core.arena.waiters[w] |= r; core.arena.refused[s] = [0; 2]; }\n";
    let diags = lint_source("crates/baselines/src/foo.rs", src);
    let n = diags.iter().filter(|d| d.rule == "occupancy").count();
    assert_eq!(
        n, 4,
        "both ports reads, waiters and refused must fire: {diags:?}"
    );
}

#[test]
fn occupancy_flags_parking_entry_points_outside_whitelist() {
    let src = "pub fn hack(core: &mut Core, d: Dirs) { core.arena.park(0, 0, 0, d, 0); core.arena.flit_sent(0, 0, 0); let w = PortWords::default(); drop(w); }\n";
    let diags = lint_source("crates/fastpass/src/foo.rs", src);
    let n = diags.iter().filter(|d| d.rule == "occupancy").count();
    assert_eq!(n, 3, "park, flit_sent and PortWords must fire: {diags:?}");
}

#[test]
fn occupancy_silent_on_parking_words_in_pipeline_and_elsewhere_named_fields() {
    // The regular pipeline reads the record and parks heads.
    let src = "fn scan(core: &mut Core, w: usize, d: Dirs) { let pw = core.arena.ports[w]; if pw.ready & !pw.parked != 0 { core.arena.park(0, 0, 0, d, 0); } }\n";
    assert!(
        !rules_fired("crates/noc-sim/src/regular.rs", src).contains(&"occupancy"),
        "regular.rs is whitelisted"
    );
    // A `ready`/`ports` field that is not indexed arena state is fine
    // anywhere (NI ejection entries carry a `ready` cycle).
    let src = "pub fn f(e: &Entry, r: &Router) -> bool { e.ready <= r.ports.len() as u64 }\n";
    assert!(!rules_fired("crates/noc-sim/src/ni.rs", src).contains(&"occupancy"));
}

#[test]
fn occupancy_silent_in_arena_module_itself() {
    // The arena owns the packed state: its own accessors name occ_mask,
    // index meta/occ/routed and define the mutators without complaint.
    let src = "impl VcArena { pub(crate) fn occ_mask(&self) -> u64 { self.occ[0] }\n    pub(crate) fn set_route_vc(&mut self, s: usize) { self.meta[s] |= 1; } }\n";
    assert!(
        !rules_fired("crates/noc-sim/src/arena.rs", src).contains(&"occupancy"),
        "arena.rs is the canonical home of occupancy words"
    );
}

#[test]
fn occupancy_permits_plain_meta_field_without_indexing() {
    // `meta` as an ordinary struct field (no `.meta[…]` indexing) is not
    // arena state — e.g. a report carrying a `meta` section.
    let src = "pub fn f(r: &Report) -> u32 { r.meta.version }\n";
    assert!(
        !rules_fired("crates/fastpass/src/foo.rs", src).contains(&"occupancy"),
        "only indexed word-array access is arena mutation"
    );
}

#[test]
fn occupancy_silent_on_option_take_and_iterator_take() {
    // `.take()` with no argument is Option::take; `.take(n)` on a
    // non-indexed receiver is Iterator::take. Neither touches a VC.
    let src = "pub fn f(o: &mut Option<u32>, xs: &[u32]) -> usize { let _ = o.take(); xs.iter().take(3).count() }\n";
    assert!(rules_fired("crates/noc-sim/src/foo.rs", src).is_empty());
}

#[test]
fn occupancy_flags_work_set_words_outside_their_three_files() {
    // A scheme clearing a live-NI bit hides that node from the cycle
    // loop and the consumer; reading the words treats a superset as
    // state. Both fire — also in files the wider occupancy whitelist
    // admits (the pipeline asks `active_nodes`, the auditor the
    // accessors).
    let src = "pub fn hack(core: &mut Core, w: usize) -> u64 { core.ni_live[w] &= !1; core.arena.occ_nodes[w] }\n";
    for path in [
        "crates/baselines/src/pitstop.rs",
        "crates/fastpass/src/scheme.rs",
        "crates/noc-sim/src/regular.rs",
        "crates/noc-sim/src/audit.rs",
    ] {
        let diags = lint_source(path, src);
        let n = diags.iter().filter(|d| d.rule == "occupancy").count();
        assert_eq!(
            n, 2,
            "{path}: ni_live and occ_nodes must both fire: {diags:?}"
        );
    }
}

#[test]
fn occupancy_silent_on_work_set_words_where_they_live() {
    let src = "fn mark(&mut self, n: usize) { self.ni_live[n / 64] |= 1 << (n % 64); let _ = self.arena.occ_nodes[n / 64]; }\n";
    for path in [
        "crates/noc-sim/src/arena.rs",
        "crates/noc-sim/src/network.rs",
        "crates/noc-sim/src/engine.rs",
    ] {
        assert!(
            !rules_fired(path, src).contains(&"occupancy"),
            "{path} maintains or walks the work-set words"
        );
    }
    // Passing the words along or naming a like-named field without
    // indexing it is not an access; neither is test code.
    let src = "pub fn f(c: &Core) -> usize { c.ni_live.len() + c.stats.occ_nodes }\n#[cfg(test)]\nmod tests { fn t(c: &mut Core) { c.arena.occ_nodes[0] = 1; } }\n";
    assert!(!rules_fired("crates/noc-sim/src/audit.rs", src).contains(&"occupancy"));
}

#[test]
fn occupancy_flags_switch_request_words_outside_the_arena() {
    // Switch allocation grants straight from these words: a stray write
    // is a granted empty buffer or a flit that never moves. Indexing
    // fires everywhere but `arena.rs` — also in the pipeline and the
    // auditor, which the wider occupancy whitelist admits.
    let src = "pub fn hack(core: &mut Core, w: usize) -> u64 { core.arena.sa_req[w] |= 1; core.arena.sa_req[w + 1] }\n";
    for path in [
        "crates/baselines/src/swap.rs",
        "crates/fastpass/src/scheme.rs",
        "crates/noc-sim/src/regular.rs",
        "crates/noc-sim/src/network.rs",
        "crates/noc-sim/src/audit.rs",
    ] {
        let diags = lint_source(path, src);
        let n = diags.iter().filter(|d| d.rule == "occupancy").count();
        assert_eq!(n, 2, "{path}: write and read must both fire: {diags:?}");
        assert!(
            diags[0].message.contains("switch_requests"),
            "the diagnostic names the accessor: {}",
            diags[0].message
        );
    }
}

#[test]
fn occupancy_silent_on_switch_request_words_in_the_arena_and_through_the_accessor() {
    let src = "fn raise(&mut self, r: usize, bit: u64) { self.sa_req[r] |= bit; }\n";
    assert!(!rules_fired("crates/noc-sim/src/arena.rs", src).contains(&"occupancy"));
    // The accessors are how everyone else reads them; a like-named field
    // that is not indexed is not an access; neither is test code.
    let src = "pub fn f(core: &Core, n: NodeId) -> u64 { core.arena.switch_requests(n.index())[0] | core.switch_requests(n)[1] | core.stats.sa_req }\n#[cfg(test)]\nmod tests { fn t(c: &mut Core) { c.arena.sa_req[0] = 1; } }\n";
    for path in [
        "crates/noc-sim/src/regular.rs",
        "crates/noc-sim/src/audit.rs",
        "crates/baselines/src/spin.rs",
    ] {
        assert!(
            !rules_fired(path, src).contains(&"occupancy"),
            "{path} reads through the accessor"
        );
    }
}

// ---- panic-hygiene ---------------------------------------------------------

#[test]
fn panic_hygiene_flags_unsafe_everywhere() {
    let src = "pub fn f(p: *const u32) -> u32 { unsafe { *p } }\n";
    let diags = lint_source("crates/bench/src/foo.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "panic-hygiene"),
        "unsafe is banned even outside the simulator crates: {diags:?}"
    );
}

#[test]
fn panic_hygiene_flags_bare_unwrap_in_sim_crate() {
    let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let diags = lint_source("crates/noc-core/src/foo.rs", src);
    assert!(diags.iter().any(|d| d.rule == "panic-hygiene"), "{diags:?}");
}

#[test]
fn panic_hygiene_accepts_expect_with_message() {
    let src = "pub fn f(o: Option<u32>) -> u32 { o.expect(\"caller checked is_some\") }\n";
    assert!(rules_fired("crates/noc-core/src/foo.rs", src).is_empty());
}

#[test]
fn panic_hygiene_permits_unwrap_in_bench_and_tests() {
    let bench = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    assert!(rules_fired("crates/bench/src/foo.rs", bench).is_empty());
    let test_fn = "#[test]\nfn t() { Some(1).unwrap(); }\n";
    assert!(rules_fired("crates/noc-core/src/foo.rs", test_fn).is_empty());
}

#[test]
fn panic_hygiene_holds_the_daemon_crate_to_no_bare_unwrap() {
    // The determinism exemption for noc-serve does NOT relax panic
    // hygiene: a worker thread dying on a bare unwrap takes queued jobs
    // with it, so the daemon uses expect/`?` like the simulator does.
    let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let diags = lint_source("crates/noc-serve/src/server.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == "panic-hygiene"),
        "bare unwrap must fire in noc-serve: {diags:?}"
    );
}

#[test]
fn observability_modules_inherit_the_service_crate_scoping() {
    // Crate-level scoping must cover modules added after the rules were
    // written: the flight recorder's writer thread and the metrics
    // registry's wall-clock sampling are fine under noc-serve, but the
    // panic bar still applies to both files — a flight-writer thread
    // dying on a bare unwrap would silently stop the lifecycle log.
    let clocky = "pub fn tick() { let t = std::time::Instant::now(); \
                  let h = std::thread::spawn(|| 1); drop((t, h)); }\n";
    for file in [
        "crates/noc-serve/src/flight.rs",
        "crates/noc-serve/src/metrics.rs",
    ] {
        assert!(
            !rules_fired(file, clocky).contains(&"determinism"),
            "{file} is inside the whitelisted service crate"
        );
        let unwrap = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let diags = lint_source(file, unwrap);
        assert!(
            diags.iter().any(|d| d.rule == "panic-hygiene"),
            "bare unwrap must fire in {file}: {diags:?}"
        );
    }
}

// ---- routing-locality ------------------------------------------------------

#[test]
fn routing_locality_flags_policy_impl_outside_whitelist() {
    let src = "impl RoutingPolicy for SneakyRoute { fn desired_ports(&self, c: &NetworkCore, r: &RouteReq) -> Vec<Port> { todo() } }\n";
    let diags = lint_source("crates/baselines/src/foo.rs", src);
    let n = diags
        .iter()
        .filter(|d| d.rule == "routing-locality")
        .count();
    assert_eq!(
        n, 2,
        "both the impl and the desired_ports definition must fire: {diags:?}"
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
fn routing_locality_flags_desired_ports_override_even_in_whitelisted_modules() {
    // The route set is `introspect::route_set(kind(), …)` for every
    // policy; a whitelisted module may implement the trait, not redefine
    // the set.
    let src = "impl RoutingPolicy for TokenWestFirst { fn desired_ports(&self, c: &NetworkCore, r: &RouteReq) -> ProductiveDirs { todo() } }\n";
    for file in [
        "crates/baselines/src/tfc.rs",
        "crates/noc-sim/src/routing.rs",
    ] {
        let diags = lint_source(file, src);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "routing-locality" && d.message.contains("kind()")),
            "{file}: {diags:?}"
        );
    }
}

#[test]
fn routing_locality_permits_the_traits_own_desired_ports() {
    let src = "pub trait RoutingPolicy: Send { fn kind(&self) -> PolicyKind; fn desired_ports(&self, c: &NetworkCore, r: &RouteReq) -> ProductiveDirs { route_set(self.kind(), c.xy(r.at), c.xy(r.dst), r.in_port) } }\n";
    assert!(rules_fired("crates/noc-sim/src/routing.rs", src).is_empty());
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
    // The directive names determinism, but the line also holds a bare
    // unwrap — which must still fire.
    let src =
        "pub fn f(o: Option<std::time::Instant>) { o.unwrap(); } // noc-lint: allow(determinism)\n";
    let diags = lint_source("crates/noc-sim/src/foo.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "panic-hygiene");
}

#[test]
fn allow_all_suppresses_everything_on_its_line() {
    let src = "pub fn f(o: Option<std::time::Instant>) { o.unwrap(); } // noc-lint: allow(all)\n";
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
