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
use crate::structure::{fn_body_ranges, test_token_mask};

/// Rule id: deterministic simulation contract.
pub const DETERMINISM: &str = "determinism";
/// Rule id: allocation-free hot loop contract.
pub const HOT_LOOP_ALLOC: &str = "hot-loop-alloc";
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
        "no heap allocation (vec!, Vec/VecDeque/BTreeMap/BTreeSet/BinaryHeap::new, any \
         with_capacity, Box/Rc/Arc::new, String construction, collect(), clones) in per-cycle \
         hot paths; trace events only through the branch-gated trace! macro",
    ),
    (
        ROUTING_LOCALITY,
        "routing decisions (RoutingPolicy impls, productive_dirs choice) live only in the \
         modules noc-prove introspects",
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
        // "crates/<name>/…" → name.
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next());
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

    if info.in_crates(SIM_CRATES) {
        check_determinism(&lexed.tokens, &mask, rel_path, &mut diags);
    }
    check_hot_loop(&info, &lexed.tokens, &mask, &mut diags);
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
/// per-packet copying: `vec![…]`, `Vec`/`VecDeque`/`BTreeMap`/`BTreeSet`/
/// `BinaryHeap::new`, `::with_capacity` on any type, `Box`/`Rc`/`Arc::new`,
/// `String::new/from`, `format!`, `.collect(…)`, `.to_string()`,
/// `.to_owned()`, `.to_vec()`, `.clone()`.
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
        fn_body_ranges(tokens, mask, HOT_FNS)
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
                "VecDeque" | "BTreeMap" | "BTreeSet" | "BinaryHeap"
                    if is_assoc_call(tokens, i, "new") =>
                {
                    Some("collection construction allocates on first insert")
                }
                "with_capacity"
                    if i >= 2
                        && tokens[i - 1].is_punct(':')
                        && tokens[i - 2].is_punct(':')
                        && next_is(tokens, i, '(') =>
                {
                    Some("`with_capacity` allocates up front")
                }
                "Box" | "Rc" | "Arc" if is_assoc_call(tokens, i, "new") => {
                    Some("`Box`/`Rc`/`Arc::new` allocates")
                }
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

/// routing-locality: outside the whitelisted routing modules, no new
/// routing decisions — no `impl RoutingPolicy for …` and no
/// `productive_dirs` use (the raw direction-choice primitive). A second
/// definition of `desired_ports` needs no rule: it is a blanket impl, so
/// an override is a conflicting-implementations error (E0119).
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
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let complaint = match t.text.as_str() {
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
