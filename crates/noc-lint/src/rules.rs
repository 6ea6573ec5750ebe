//! The lint rules and their scoping.
//!
//! Each rule is a pure function over the lexed token stream of one file,
//! gated by a path-based scope. Adding a rule means adding an entry to
//! [`RULES`] and a `check_*` function — the engine handles test-region
//! masking, `allow(...)` suppression and diagnostics plumbing.
//!
//! See `DESIGN.md` ("Machine-checked contracts: noc-lint") for the
//! rationale behind every rule and how to allowlist a deliberate
//! exception.

use crate::diag::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};
use crate::structure::{item_body_ranges, test_token_mask};

/// Rule id: deterministic simulation contract.
pub const DETERMINISM: &str = "determinism";
/// Rule id: allocation-free hot loop contract.
pub const HOT_LOOP_ALLOC: &str = "hot-loop-alloc";
/// Rule id: occupancy mutation discipline.
pub const OCCUPANCY: &str = "occupancy";
/// Rule id: unsafe/panic hygiene.
pub const PANIC_HYGIENE: &str = "panic-hygiene";
/// Rule id: routing-decision locality.
pub const ROUTING_LOCALITY: &str = "routing-locality";

/// `(id, one-line description)` of every shipped rule.
pub const RULES: &[(&str, &str)] = &[
    (
        DETERMINISM,
        "no wall-clock time, OS randomness, or unordered-map iteration in simulator crates",
    ),
    (
        HOT_LOOP_ALLOC,
        "no heap allocation, collect(), String construction or clones in per-cycle hot paths; \
         trace events only through the branch-gated trace! macro",
    ),
    (
        OCCUPANCY,
        "VC occupant state (arena meta words, per-port occ/routed/ready/parked records, waiter \
         and refused words, occ_mask, install/take/park) changes only inside the arena module \
         and whitelisted pipeline/relocation paths; the node work-set words (occ_nodes, ni_live) \
         and the switch-request words (sa_req) are indexed only where they are maintained and \
         walked",
    ),
    (
        PANIC_HYGIENE,
        "no unsafe blocks anywhere; no bare unwrap() in non-test simulator code (use expect with an invariant message)",
    ),
    (
        ROUTING_LOCALITY,
        "routing decisions (RoutingPolicy impls, productive_dirs choice) live only in the \
         modules noc-prove introspects; desired_ports is defined by the trait alone",
    ),
];

/// Crates whose non-test code feeds statistics or arbitration and must
/// therefore be bit-reproducible.
const SIM_CRATES: &[&str] = &[
    "noc-core",
    "noc-sim",
    "fastpass",
    "baselines",
    "noc-schemes",
    "traffic",
    "noc-trace",
];

/// Service crates that *intentionally* use wall-clock time, OS threads
/// and hash maps: the `nocserve` daemon measures uptime, sleeps its
/// accept loop and keys its point registry by content hash — none of
/// which feeds simulation results (points are computed through
/// `noc_serve::runner::simulate_point`'s pure pipeline, which lives in
/// the same crate since the sweep library moved under the daemon). The exemption is
/// scoped here as a crate list rather than sprayed through the code as
/// inline `allow` comments, so it stays a single reviewable decision;
/// a unit test pins it disjoint from [`SIM_CRATES`] so no crate can
/// ever be both a service and a simulator.
const SERVICE_CRATES: &[&str] = &["noc-serve"];

/// Crates held to the no-bare-`unwrap()` standard (the simulator crates
/// plus the power model, `noc-serve` — daemon and sweep library — and
/// the root facade; the bench harness's CLI binaries are exempt).
const PANIC_CRATES: &[&str] = &[
    "noc-core",
    "noc-sim",
    "fastpass",
    "baselines",
    "noc-schemes",
    "traffic",
    "noc-power",
    "noc-trace",
    "noc-serve",
    "",
];

/// Files that are hot per-cycle paths in their entirety.
const HOT_FILES: &[&str] = &["crates/noc-sim/src/regular.rs"];

/// Function names whose bodies are per-cycle hot paths wherever they
/// appear in scheme/substrate crates: the regular pass (`advance`),
/// scheme steps (`step`), route computation (`route`, called from
/// `advance` for every unparked head — a callee the lexical rule would
/// otherwise not see), the staged-move applier (`apply_staged`), the
/// tracer's event sink (`push_event`, reached every traced event) and
/// the windowed sampler's recording paths (`sample_tick`,
/// `record_window`, reached every cycle / every window boundary when
/// sampling is on).
const HOT_FNS: &[&str] = &[
    "advance",
    "step",
    "route",
    "apply_staged",
    "push_event",
    "sample_tick",
    "record_window",
];

/// Crates whose `advance`/`step` implementations are hot.
const HOT_CRATES: &[&str] = &["noc-sim", "fastpass", "baselines", "noc-trace"];

/// Crates subject to the occupancy-discipline rule.
const OCC_CRATES: &[&str] = &["noc-sim", "fastpass", "baselines"];

/// The only files allowed to touch occupant slots directly: the SoA
/// arena that owns the packed state (`arena.rs` — every occupancy word
/// and meta byte lives there), the legacy input unit, the regular
/// pipeline, the core (the staged-move applier and the
/// `take_vc_packet` / `put_vc_packet` pair every relocating scheme —
/// SPIN's rotation, SWAP's exchange, DRAIN's circulation — goes
/// through) and the read-only structural auditor.
const OCC_WHITELIST: &[&str] = &[
    "crates/noc-sim/src/arena.rs",
    "crates/noc-sim/src/vc.rs",
    "crates/noc-sim/src/regular.rs",
    "crates/noc-sim/src/network.rs",
    "crates/noc-sim/src/audit.rs",
];

/// Arena word arrays: `.meta[…]` / `.ports[…]` (the co-located
/// occ/routed/ready/parked record per input port) / `.waiters[…]` /
/// `.waiter_ports[…]` / `.refused[…]` field indexing outside the
/// whitelist is stray arena mutation (the lexical rule cannot tell reads
/// from writes, and neither belongs outside the pipeline — cold code
/// reads through `VcArena::get` / `InputRef`). `.occ[…]` / `.routed[…]`
/// are the pre-record spellings, kept banned so they cannot come back.
const ARENA_WORD_FIELDS: &[&str] = &[
    "meta",
    "occ",
    "routed",
    "ports",
    "waiters",
    "waiter_ports",
    "refused",
];

/// Node work-set words: the arena's exact `occ_nodes` bitset and the
/// core's lazily-cleared `ni_live` superset. They decide which nodes the
/// cycle loop and the NI consumer look at at all, so a stray write hides
/// a node from both and a stray read builds on a superset as if it were
/// state. Everyone else asks `NetworkCore::active_nodes` /
/// `node_active`.
const WORK_SET_FIELDS: &[&str] = &["occ_nodes", "ni_live"];

/// The only files allowed to index the work-set words — narrower than
/// [`OCC_WHITELIST`]: the arena (`install`/`take` own `occ_nodes`), the
/// core (`ni_mut`/`generate` mark `ni_live`, `active_nodes` walks both)
/// and the engine (the consumer walks `ni_live` and is the one place
/// that clears it).
const WORK_SET_WHITELIST: &[&str] = &[
    "crates/noc-sim/src/arena.rs",
    "crates/noc-sim/src/network.rs",
    "crates/noc-sim/src/engine.rs",
];

/// The switch-request words, `VcArena::sa_req`: one word per `(node,
/// output port)` that the arena's six slot mutators keep equal to the
/// `ready ∧ routed ∧ route == out` gather. Switch allocation grants
/// straight from them, so a stray write is a granted empty buffer or a
/// flit that never moves. Indexed in `arena.rs` alone — narrower than
/// both whitelists above: the pipeline, the auditor and tests of other
/// modules read `VcArena::switch_requests` / `NetworkCore::switch_requests`.
const REQUEST_WORD_FIELDS: &[&str] = &["sa_req"];

/// The only file allowed to index the switch-request words.
const REQUEST_WORD_WHITELIST: &[&str] = &["crates/noc-sim/src/arena.rs"];

/// Arena entry points and types that only whitelisted files may name:
/// the slot mutators, the flit-counter steps that own the ready word,
/// the parking protocol's writers, and the per-port record itself.
const ARENA_MUTATORS: &[&str] = &[
    "pack_meta",
    "set_route",
    "set_route_vc",
    "input_mut",
    "flit_arrived",
    "flit_sent",
    "park",
    "note_refusal",
    "PortWords",
];

/// Crates whose routing behaviour the static certifier (`noc-prove`)
/// must be able to reconstruct from `noc_sim::routing::introspect`.
const ROUTING_CRATES: &[&str] = &["noc-core", "noc-sim", "fastpass", "baselines"];

/// The only modules allowed to *make* routing decisions: the mesh
/// geometry that defines productive directions, the routing policies and
/// the route sets they select from, TFC's token-scored west-first,
/// MinBD's deflection preference, and FastPass's lane/TDM/irregular
/// substrates. `noc-prove` models exactly these; a route choice made
/// anywhere else is invisible to the deadlock-freedom proof.
const ROUTING_WHITELIST: &[&str] = &[
    "crates/noc-core/src/topology.rs",
    "crates/noc-sim/src/routing.rs",
    "crates/baselines/src/tfc.rs",
    "crates/baselines/src/minbd.rs",
    "crates/fastpass/src/lane.rs",
    "crates/fastpass/src/irregular.rs",
    "crates/fastpass/src/schedule.rs",
];

/// Workspace-relative path classification used by rule scoping.
struct PathInfo<'a> {
    rel: &'a str,
    krate: Option<&'a str>,
}

impl<'a> PathInfo<'a> {
    fn new(rel: &'a str) -> Self {
        // "crates/<name>/…" → name; "src/…" → "" (the root facade crate).
        let krate = if let Some(rest) = rel.strip_prefix("crates/") {
            rest.split('/').next()
        } else if rel.starts_with("src/") {
            Some("")
        } else {
            None
        };
        PathInfo { rel, krate }
    }

    /// Whole-file test/bench/example/fixture code: no rule applies.
    fn is_test_file(&self) -> bool {
        let r = self.rel;
        r.starts_with("tests/")
            || r.contains("/tests/")
            || r.contains("/benches/")
            || r.starts_with("examples/")
            || r.contains("/examples/")
            || r.contains("/fixtures/")
    }

    fn in_crates(&self, set: &[&str]) -> bool {
        self.krate.is_some_and(|k| set.contains(&k))
    }
}

/// Lints one file's source, returning every diagnostic.
///
/// `rel_path` must be workspace-relative with `/` separators (it drives
/// rule scoping); `src` is the file's contents.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let info = PathInfo::new(rel_path);
    if info.is_test_file() {
        return Vec::new();
    }
    let lexed = lex(src);
    let mask = test_token_mask(&lexed.tokens);
    let mut diags = Vec::new();

    if info.in_crates(SIM_CRATES) && !info.in_crates(SERVICE_CRATES) {
        check_determinism(&lexed.tokens, &mask, rel_path, &mut diags);
    }
    check_hot_loop(&info, &lexed.tokens, &mask, &mut diags);
    if info.in_crates(OCC_CRATES) && !OCC_WHITELIST.contains(&info.rel) {
        check_occupancy(&lexed.tokens, &mask, rel_path, &mut diags);
    }
    if info.in_crates(OCC_CRATES) && !WORK_SET_WHITELIST.contains(&info.rel) {
        check_owned_words(
            WORK_SET_FIELDS,
            "node work-set word",
            "arena.rs/network.rs/engine.rs: `occ_nodes` is owned by VcArena::install/take and \
             `ni_live` is a lazily cleared superset marked by NetworkCore::ni_mut/generate — ask \
             NetworkCore::active_nodes/node_active instead",
            &lexed.tokens,
            &mask,
            rel_path,
            &mut diags,
        );
    }
    if info.in_crates(OCC_CRATES) && !REQUEST_WORD_WHITELIST.contains(&info.rel) {
        check_owned_words(
            REQUEST_WORD_FIELDS,
            "switch-request word",
            "arena.rs: the words are kept equal to the ready & routed gather by \
             VcArena::install/take/set_route/set_route_vc/flit_arrived/flit_sent — read \
             VcArena::switch_requests / NetworkCore::switch_requests instead",
            &lexed.tokens,
            &mask,
            rel_path,
            &mut diags,
        );
    }
    check_panic_hygiene(&info, &lexed.tokens, &mask, &mut diags);
    if info.in_crates(ROUTING_CRATES) {
        let whitelisted = ROUTING_WHITELIST.contains(&info.rel);
        check_routing_locality(&lexed.tokens, &mask, rel_path, whitelisted, &mut diags);
    }

    // Apply inline `// noc-lint: allow(rule)` suppression: a directive
    // covers its own line and the line directly below it.
    diags.retain(|d| {
        !lexed.allows.iter().any(|a| {
            (a.line == d.line || a.line + 1 == d.line)
                && a.rules.iter().any(|r| r == d.rule || r == "all")
        })
    });
    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

fn push(diags: &mut Vec<Diagnostic>, rule: &'static str, path: &str, t: &Token, msg: String) {
    diags.push(Diagnostic {
        path: path.to_string(),
        line: t.line,
        col: t.col,
        rule,
        message: msg,
    });
}

/// determinism: no `HashMap`/`HashSet` (iteration order is address-seeded
/// and varies run to run), no wall-clock (`std::time`, `Instant`,
/// `SystemTime`), no OS randomness (`thread_rng`, `rand::random`).
fn check_determinism(tokens: &[Token], mask: &[bool], path: &str, diags: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let hint = match t.text.as_str() {
            "HashMap" => "use BTreeMap (or a sorted Vec) so traversal order is deterministic",
            "HashSet" => "use BTreeSet (or a sorted Vec) so traversal order is deterministic",
            "Instant" | "SystemTime" => {
                "simulator code must be a pure function of (config, seed); wall-clock time is not"
            }
            "thread_rng" | "ThreadRng" => "use noc_core::rng::DetRng, seeded from SimConfig",
            "time" if is_path_seq(tokens, i, &["std", "time"]) => {
                "simulator code must be a pure function of (config, seed); wall-clock time is not"
            }
            _ => continue,
        };
        push(
            diags,
            DETERMINISM,
            path,
            t,
            format!("`{}` in simulator code: {hint}", t.text),
        );
    }
}

/// hot-loop-alloc: inside per-cycle hot scopes, ban heap allocation and
/// per-packet copying: `vec![…]`, `Vec::new`, `.collect(…)`, `format!`,
/// `String::new/from`, `.to_string()`, `.to_owned()`, `.to_vec()`,
/// `Box::new`, `.clone()`.
///
/// Tracing gets one extra constraint: direct `.push_event(…)` calls are
/// banned in hot scopes — events must go through the `trace!` macro,
/// whose expansion branches on `events_on()` before even building the
/// event (the macro call itself is allowed anywhere; a closure body that
/// allocates still trips the bans above, since the closure's tokens sit
/// inside the hot scope like any other code).
fn check_hot_loop(
    info: &PathInfo<'_>,
    tokens: &[Token],
    mask: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    let whole_file_hot = HOT_FILES.contains(&info.rel);
    let ranges = if whole_file_hot {
        vec![(0usize, tokens.len().saturating_sub(1))]
    } else if info.in_crates(HOT_CRATES) {
        item_body_ranges(tokens, mask, "fn", HOT_FNS)
    } else {
        return;
    };
    for (start, end) in ranges {
        for i in start..=end.min(tokens.len().saturating_sub(1)) {
            if mask[i] {
                continue;
            }
            let t = &tokens[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            if t.text == "push_event" && is_method_call(tokens, i) {
                push(
                    diags,
                    HOT_LOOP_ALLOC,
                    info.rel,
                    t,
                    "direct `.push_event(…)` in a hot path: record through \
                     `trace!(tracer, node, || …)` so the event is only built when \
                     event tracing is enabled (keep the closure body alloc-free)"
                        .to_string(),
                );
                continue;
            }
            let complaint = match t.text.as_str() {
                "vec" if next_is(tokens, i, '!') => Some("`vec![…]` allocates"),
                "Vec" if is_assoc_call(tokens, i, "new") => {
                    Some("`Vec::new()` allocates on first push")
                }
                "Box" if is_assoc_call(tokens, i, "new") => Some("`Box::new` allocates"),
                "String" if is_assoc_call(tokens, i, "new") || is_assoc_call(tokens, i, "from") => {
                    Some("String construction allocates")
                }
                "format" if next_is(tokens, i, '!') => Some("`format!` allocates a String"),
                "collect" if is_method_call(tokens, i) => {
                    Some("`.collect()` allocates a container")
                }
                "to_string" if is_method_call(tokens, i) => Some("`.to_string()` allocates"),
                "to_owned" if is_method_call(tokens, i) => Some("`.to_owned()` allocates"),
                "to_vec" if is_method_call(tokens, i) => Some("`.to_vec()` allocates"),
                "clone" if is_method_call(tokens, i) => {
                    Some("`.clone()` in the hot loop (Packet clones were the old RouteReq bug)")
                }
                _ => None,
            };
            if let Some(c) = complaint {
                push(
                    diags,
                    HOT_LOOP_ALLOC,
                    info.rel,
                    t,
                    format!(
                        "{c}; hot per-cycle paths must reuse core-owned scratch buffers \
                         (move the work to setup, or annotate a provably cold path with \
                         `// noc-lint: allow(hot-loop-alloc)`)"
                    ),
                );
            }
        }
    }
}

/// occupancy: outside the whitelisted files, no `occ_mask` access, no
/// `occupant_mut()` calls, no `install(…)`/`take(…)` on an indexed
/// input unit (`inputs[p].install(…)`), no arena word-array indexing
/// ([`ARENA_WORD_FIELDS`]) and no arena mutator entry points
/// ([`ARENA_MUTATORS`]). Everything else must go through
/// `NetworkCore::take_vc_packet` / `put_vc_packet` / staged moves, or
/// read through `VcArena::get` / `InputRef`.
fn check_occupancy(tokens: &[Token], mask: &[bool], path: &str, diags: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let complaint = match t.text.as_str() {
            "occ_mask" => Some("occupancy mask read/written outside the input unit"),
            "occupant_mut" => Some("direct occupant mutation"),
            f if ARENA_WORD_FIELDS.contains(&f)
                && i >= 1
                && tokens[i - 1].is_punct('.')
                && next_is(tokens, i, '[') =>
            {
                Some("arena occupancy/meta word indexed outside the arena module")
            }
            m if ARENA_MUTATORS.contains(&m) => {
                Some("arena mutator or word record named outside the whitelisted pipeline files")
            }
            "install" | "take"
                if is_method_call(tokens, i)
                    && i >= 2
                    && tokens[i - 1].is_punct('.')
                    && tokens[i - 2].is_punct(']')
                    // `.take()` with no argument is Option::take, not
                    // InputUnit::take(vc).
                    && !(t.text == "take" && next2_is(tokens, i, ')')) =>
            {
                Some("direct occupant install/removal on an input unit")
            }
            _ => None,
        };
        if let Some(c) = complaint {
            push(
                diags,
                OCCUPANCY,
                path,
                t,
                format!(
                    "{c}: only InputUnit::install/take (via the regular pipeline or \
                     NetworkCore::take_vc_packet/put_vc_packet) may change VC occupancy, or \
                     the active-set mask drifts from the buffers it summarizes"
                ),
            );
        }
    }
}

/// occupancy (words owned by a narrower file set than [`OCC_WHITELIST`]):
/// no `.field[…]` indexing of any of `fields`, read or write. Serves the
/// work-set words (`.occ_nodes[…]` / `.ni_live[…]` outside
/// [`WORK_SET_WHITELIST`]) and the switch-request words (`.sa_req[…]`
/// outside [`REQUEST_WORD_WHITELIST`]); `what` names the kind of word and
/// `owners` finishes the sentence "indexed outside …".
fn check_owned_words(
    fields: &[&str],
    what: &str,
    owners: &str,
    tokens: &[Token],
    mask: &[bool],
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if mask[i]
            || t.kind != TokenKind::Ident
            || !fields.contains(&t.text.as_str())
            || i == 0
            || !tokens[i - 1].is_punct('.')
            || !next_is(tokens, i, '[')
        {
            continue;
        }
        push(
            diags,
            OCCUPANCY,
            path,
            t,
            format!("{what} `{}` indexed outside {owners}", t.text),
        );
    }
}

/// panic-hygiene: `unsafe` nowhere, bare `.unwrap()` nowhere in simulator
/// crates (tests excepted). `expect("why the invariant holds")` is the
/// sanctioned alternative — a panic message is a proof obligation.
fn check_panic_hygiene(
    info: &PathInfo<'_>,
    tokens: &[Token],
    mask: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    let unwrap_scoped = info.in_crates(PANIC_CRATES);
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "unsafe" {
            push(
                diags,
                PANIC_HYGIENE,
                info.rel,
                t,
                "`unsafe` is forbidden across the workspace (#![forbid(unsafe_code)]); \
                 the simulator has no business with raw memory"
                    .to_string(),
            );
        } else if unwrap_scoped
            && t.text == "unwrap"
            && is_method_call(tokens, i)
            && next2_is(tokens, i, ')')
        {
            push(
                diags,
                PANIC_HYGIENE,
                info.rel,
                t,
                "bare `.unwrap()` in simulator code: use `.expect(\"<why this cannot fail>\")` \
                 so a violated invariant names itself in the panic"
                    .to_string(),
            );
        }
    }
}

/// routing-locality: outside the whitelisted routing modules, no new
/// routing decisions — no `impl RoutingPolicy for …` and no
/// `productive_dirs` use (the raw direction-choice primitive). And in
/// every file, whitelisted or not, no `fn desired_ports` outside the
/// body of `trait RoutingPolicy`: the trait derives it from `kind()`
/// and `introspect::route_set`, and an override would be a second
/// definition of a direction set.
///
/// Consuming a policy is fine everywhere (`policy.desired_ports(…)`,
/// `Box<dyn RoutingPolicy>`): the rule fires on *making* route choices,
/// not on executing ones the certifier already models. `noc-prove`
/// reconstructs every route set from `noc_sim::routing::introspect`,
/// which the whitelisted policies select from — a decision elsewhere
/// would ship deadlock certificates that don't cover the real network.
fn check_routing_locality(
    tokens: &[Token],
    mask: &[bool],
    path: &str,
    whitelisted: bool,
    diags: &mut Vec<Diagnostic>,
) {
    let trait_bodies = item_body_ranges(tokens, mask, "trait", &["RoutingPolicy"]);
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let complaint = match t.text.as_str() {
            "desired_ports"
                if i >= 1
                    && tokens[i - 1].is_ident("fn")
                    && !trait_bodies.iter().any(|&(s, e)| (s..=e).contains(&i)) =>
            {
                "`desired_ports` defined outside `trait RoutingPolicy`: the route set is \
                 `introspect::route_set(kind(), …)` for every policy, so name the discipline in \
                 `kind()` (and teach `route_set` about a new one) instead of overriding it"
            }
            "RoutingPolicy"
                if !whitelisted && matches!(tokens.get(i + 1), Some(n) if n.is_ident("for")) =>
            {
                "new `RoutingPolicy` implementation outside the whitelisted routing modules"
            }
            "productive_dirs" if !whitelisted => {
                "raw productive-direction choice outside the whitelisted routing modules"
            }
            _ => continue,
        };
        push(
            diags,
            ROUTING_LOCALITY,
            path,
            t,
            format!(
                "{complaint}: noc-prove's deadlock certificates only cover routes \
                 reconstructible from noc_sim::routing::introspect; move the decision into a \
                 whitelisted module or annotate a deliberate exception with \
                 `// noc-lint: allow(routing-locality)`"
            ),
        );
    }
}

// ---- token-pattern helpers -------------------------------------------------

/// `tokens[i]` is followed immediately by punct `c`.
fn next_is(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i + 1), Some(t) if t.is_punct(c))
}

/// `tokens[i]` then `(` then punct `c` (e.g. `unwrap` `(` `)`).
fn next2_is(tokens: &[Token], i: usize, c: char) -> bool {
    next_is(tokens, i, '(') && matches!(tokens.get(i + 2), Some(t) if t.is_punct(c))
}

/// `tokens[i]` is `Type` in `Type::name(` (associated call).
fn is_assoc_call(tokens: &[Token], i: usize, name: &str) -> bool {
    matches!(
        (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3)),
        (Some(a), Some(b), Some(c)) if a.is_punct(':') && b.is_punct(':') && c.is_ident(name)
    )
}

/// `tokens[i]` is a method name in `.name(` or `.name::<…>(` position.
fn is_method_call(tokens: &[Token], i: usize) -> bool {
    if i == 0 || !tokens[i - 1].is_punct('.') {
        return false;
    }
    match tokens.get(i + 1) {
        Some(t) if t.is_punct('(') => true,
        // Turbofish: `.collect::<Vec<_>>()`.
        Some(t) if t.is_punct(':') => matches!(tokens.get(i + 2), Some(u) if u.is_punct(':')),
        _ => false,
    }
}

/// `tokens[i]` ends the exact path `segments` joined by `::`
/// (e.g. `std::time`).
fn is_path_seq(tokens: &[Token], i: usize, segments: &[&str]) -> bool {
    let mut idx = i as isize;
    for (k, seg) in segments.iter().enumerate().rev() {
        if idx < 0 || !tokens[idx as usize].is_ident(seg) {
            return false;
        }
        if k > 0 {
            if idx < 3
                || !tokens[idx as usize - 1].is_punct(':')
                || !tokens[idx as usize - 2].is_punct(':')
            {
                return false;
            }
            idx -= 3;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The service exemption must never quietly swallow a simulator
    /// crate: a crate in both lists would ship nondeterminism with the
    /// lint green. Same for the narrower hot/occupancy/routing scopes.
    #[test]
    fn service_crates_are_disjoint_from_every_sim_scope() {
        for service in SERVICE_CRATES {
            for (name, scope) in [
                ("SIM_CRATES", SIM_CRATES),
                ("HOT_CRATES", HOT_CRATES),
                ("OCC_CRATES", OCC_CRATES),
                ("ROUTING_CRATES", ROUTING_CRATES),
            ] {
                assert!(
                    !scope.contains(service),
                    "`{service}` is listed as a service crate AND in {name}"
                );
            }
        }
    }

    /// The daemon is exempt from determinism, not from panic hygiene:
    /// a service thread that dies on a bare unwrap takes jobs with it.
    #[test]
    fn service_crates_still_face_panic_hygiene() {
        for service in SERVICE_CRATES {
            assert!(
                PANIC_CRATES.contains(service),
                "`{service}` must be held to the no-bare-unwrap standard"
            );
        }
    }
}
