//! The content-addressed sweep-result store.
//!
//! One simulation point — a `(scheme, pattern, config, rate, seed,
//! windows)` tuple — is addressed by its FNV-64 cache key
//! ([`crate::runner::point_cache_key`]) and stored as one JSON blob at
//! `<dir>/<key:016x>.json`. The store is the single durable artifact
//! shared by every consumer: the batch executor
//! ([`crate::runner::run_sweep_parallel`]) reads and writes it directly,
//! and the `nocserve` daemon owns it as its L2 result cache. Because the
//! key is content-derived and the stored value is a pure function of the
//! key's inputs, concurrent writers can only ever race to write the
//! *same bytes* — last-rename-wins is correct by construction.
//!
//! ## Blob format
//!
//! Entries are written as a schema-versioned envelope, optionally
//! stamped with compute provenance (who computed the point, when, how
//! long it took):
//!
//! ```json
//! { "schema_version": 3, "key": "00d57c9a6a2e4f11", "point": { … },
//!   "provenance": { "unix_ms": …, "wall_ms": 118, "worker": 2,
//!                   "git_sha": "…", "cycles": 5000 } }
//! ```
//!
//! Provenance is *metadata*: it never participates in cache keys or
//! point comparison, so two writers racing on one key still only ever
//! disagree about bookkeeping, never about results. The field is
//! optional on read — envelopes written without it decode to
//! `provenance: None`.
//!
//! Loading accepts the envelope only, and only when `schema_version`
//! matches [`CACHE_SCHEMA_VERSION`] and `key` matches the filename.
//! Anything else — truncated JSON, a stale `schema_version`, a key
//! field that disagrees with the filename, a blob that is not an
//! envelope at all — is a cache *miss*, never a wrong answer: the point
//! is recomputed and the entry overwritten. [`Store::gc`] deletes such
//! entries eagerly. The generic JSON decode defines that classification;
//! blobs in the writer's own layout are read by a layout-exact reader
//! held to the same answers (`read_canonical`).
//!
//! Writes are atomic (temp file + rename) so a crashed or interrupted
//! writer can leave at worst an orphaned `*.tmp.*` file, which `gc`
//! sweeps up; a write or rename that fails removes its own temp file.
//! Every write gets its own temp name,
//! `<key>.tmp.<pid>.<seq>` with a process-wide sequence number: were two
//! threads of one process to share a temp path, the second `create`
//! would truncate the inode the first is about to rename into place.

use crate::runner::LatencyPoint;
use serde::{Deserialize, Serialize};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bump when the cache entry format or simulation semantics change in a
/// way that invalidates previously cached points. The version is folded
/// into every [`crate::runner::point_cache_key`], so a bump forces
/// recomputation of all previously cached points rather than silently
/// serving stale results; it is also stamped into every stored
/// envelope, so [`Store::gc`] can identify and drop entries written by
/// a different schema generation.
///
/// v2: the regular-pass rewrite (active-set worklist, occupancy
/// bitmasks) plus the warmup-carryover accounting fix changed
/// `NetStats` contents; v1 entries predate
/// `delivered_carryover`/`window_start`.
///
/// v3: envelopes gained the optional `provenance` stamp. The stored
/// points themselves are unchanged, but the bump keeps every generation
/// of on-disk bytes attributable to exactly one schema version.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// Who computed a stored point, when, and at what cost. Pure metadata:
/// never folded into cache keys, never compared for cache hits — it
/// exists so `nocctl fetch` (and any forensic reader of the store) can
/// answer "when and how was this point computed".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Wall-clock milliseconds since the Unix epoch at store time.
    pub unix_ms: u64,
    /// Wall-clock milliseconds this point's computation took.
    pub wall_ms: u64,
    /// Daemon worker id that simulated the point; `None` means the
    /// batch executor computed it in-process.
    pub worker: Option<u64>,
    /// Git revision of the producing build ([`git_sha`]).
    pub git_sha: String,
    /// Simulated cycles per point (warmup + measurement window).
    pub cycles: u64,
}

impl Provenance {
    /// A stamp dated now.
    pub fn now(wall_ms: u64, worker: Option<u64>, git_sha: String, cycles: u64) -> Provenance {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        Provenance {
            unix_ms,
            wall_ms,
            worker,
            git_sha,
            cycles,
        }
    }
}

/// The current commit hash for provenance stamping, resolved once per
/// process.
///
/// Resolution order: `GIT_SHA`, then `GITHUB_SHA` (set by CI), then
/// `git rev-parse HEAD`, then the literal `"unknown"` — a stamp from a
/// tarball checkout is still valid, just uncorrelated.
pub fn git_sha() -> String {
    static SHA: OnceLock<String> = OnceLock::new();
    SHA.get_or_init(resolve_git_sha).clone()
}

fn resolve_git_sha() -> String {
    for var in ["GIT_SHA", "GITHUB_SHA"] {
        if let Ok(v) = std::env::var(var) {
            let v = v.trim().to_string();
            if !v.is_empty() {
                return v;
            }
        }
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output();
    if let Ok(out) = out {
        if out.status.success() {
            if let Ok(s) = String::from_utf8(out.stdout) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    return s;
                }
            }
        }
    }
    "unknown".to_string()
}

/// The on-disk envelope around one stored point: what the store writes
/// and, through the generic decode, the definition of what it reads.
/// [`read_canonical`] spells the same record out by layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Envelope {
    /// Schema generation that produced this entry.
    schema_version: u32,
    /// The key the writer stored it under ([`format_key`]).
    key: String,
    /// The stored result.
    point: LatencyPoint,
    /// Compute provenance, when the writer stamped it; omitted, not
    /// `null`, when it did not, and absent in pre-v3 envelopes, which
    /// therefore still parse and [`Store::gc`] classifies as
    /// stale-schema rather than corrupt.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    provenance: Option<Provenance>,
}

impl Envelope {
    /// Whether this entry may be served for `key`: written by the
    /// current schema generation, under that key — byte for byte its
    /// lowercase rendering, so a foreign (say, uppercase) key is a miss.
    fn is_current_for(&self, key: u64) -> bool {
        self.schema_version == CACHE_SCHEMA_VERSION && self.key.as_bytes() == hex_key(key)
    }
}

/// What one [`Store::gc`] pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcReport {
    /// Entries examined (every `*.json` with a 16-hex-digit name).
    pub scanned: u64,
    /// Valid current-schema envelopes left in place.
    pub kept: u64,
    /// Envelopes deleted because their `schema_version` is not
    /// [`CACHE_SCHEMA_VERSION`] or their `key` contradicts the filename.
    pub dropped_stale: u64,
    /// Blobs deleted because they do not parse as an envelope (truncated
    /// writes, corruption, hand-placed files).
    pub dropped_corrupt: u64,
    /// Orphaned `*.tmp.*` files from interrupted atomic writes deleted.
    pub dropped_temp: u64,
}

impl GcReport {
    /// Total entries removed by the pass.
    pub fn dropped(&self) -> u64 {
        self.dropped_stale + self.dropped_corrupt + self.dropped_temp
    }
}

/// A snapshot of the store's size on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of `*.json` entries present (valid or not).
    pub entries: u64,
    /// Total bytes across those entries.
    pub bytes: u64,
}

/// The content-addressed point store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// A store rooted at `dir`. The directory is created lazily on
    /// first write, so constructing a store never touches the disk.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Store { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The blob path of `key`.
    pub fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Parses a hex key as printed by [`format_key`] (16 hex digits,
    /// leading zeros required). Returns `None` on anything else.
    pub fn parse_key(s: &str) -> Option<u64> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok()
    }

    /// Loads the point stored under `key`, or `None` if the entry is
    /// absent, truncated, corrupt, written under a different schema
    /// version, or self-inconsistent. A miss is always safe: the caller
    /// recomputes and overwrites.
    pub fn load(&self, key: u64) -> Option<LatencyPoint> {
        self.load_entry(key).map(|(point, _)| point)
    }

    /// Like [`Store::load`], but also surfaces the envelope's compute
    /// provenance (absent on provenance-less writes).
    pub fn load_entry(&self, key: u64) -> Option<(LatencyPoint, Option<Provenance>)> {
        let env = read_envelope(&self.path_of(key))?;
        env.is_current_for(key)
            .then_some((env.point, env.provenance))
    }

    /// Stores `point` under `key` atomically (unique temp file +
    /// rename). Best-effort: a full disk or unwritable directory
    /// degrades to recomputation on the next load, never to a wrong
    /// result. Returns whether the entry landed.
    pub fn store(&self, key: u64, point: &LatencyPoint) -> bool {
        self.store_with_provenance(key, point, None)
    }

    /// [`Store::store`] with a compute-provenance stamp in the envelope.
    pub fn store_with_provenance(
        &self,
        key: u64,
        point: &LatencyPoint,
        provenance: Option<&Provenance>,
    ) -> bool {
        /// Makes temp names unique across this process's threads; the
        /// pid makes them unique across processes.
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let envelope = Envelope {
            schema_version: CACHE_SCHEMA_VERSION,
            key: format_key(key),
            point: point.clone(),
            provenance: provenance.cloned(),
        };
        let Ok(json) = serde_json::to_string_pretty(&envelope) else {
            return false;
        };
        let tmp = self.dir.join(format!(
            "{key:016x}.tmp.{}.{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let landed =
            std::fs::write(&tmp, json).is_ok() && std::fs::rename(&tmp, self.path_of(key)).is_ok();
        if !landed {
            let _ = std::fs::remove_file(&tmp);
        }
        landed
    }

    /// Removes the entry stored under `key`. Returns whether an entry
    /// was actually deleted.
    pub fn evict(&self, key: u64) -> bool {
        std::fs::remove_file(self.path_of(key)).is_ok()
    }

    /// Walks the store once: keeps valid current-schema envelopes,
    /// deletes stale-schema entries, corrupt blobs and orphaned temp
    /// files.
    ///
    /// A missing or empty directory is a clean no-op report.
    pub fn gc(&self) -> GcReport {
        let mut report = GcReport::default();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return report;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.contains(".tmp.") {
                if std::fs::remove_file(&path).is_ok() {
                    report.dropped_temp += 1;
                }
                continue;
            }
            let Some(stem) = name.strip_suffix(".json") else {
                continue;
            };
            let Some(key) = Self::parse_key(stem) else {
                continue;
            };
            report.scanned += 1;
            match read_envelope(&path) {
                Some(env) if env.is_current_for(key) => report.kept += 1,
                // Stale-schema and corrupt entries are both deleted; the
                // report tells them apart.
                other => {
                    if std::fs::remove_file(&path).is_ok() {
                        if other.is_some() {
                            report.dropped_stale += 1;
                        } else {
                            report.dropped_corrupt += 1;
                        }
                    }
                }
            }
        }
        report
    }

    /// Counts entries and bytes currently on disk.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return stats;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".json")
                && name
                    .strip_suffix(".json")
                    .is_some_and(|s| Store::parse_key(s).is_some())
            {
                stats.entries += 1;
                stats.bytes += entry.metadata().map_or(0, |m| m.len());
            }
        }
        stats
    }
}

/// Renders a key in the store's canonical 16-hex-digit form.
pub fn format_key(key: u64) -> String {
    format!("{key:016x}")
}

/// [`format_key`]'s bytes, rendered on the stack.
fn hex_key(key: u64) -> [u8; 16] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = [0u8; 16];
    for (i, digit) in out.iter_mut().enumerate() {
        *digit = DIGITS[(key >> (60 - 4 * i)) as usize & 0xf];
    }
    out
}

/// Blobs up to this size are read with a single `read` into a stack
/// buffer; a stored envelope is about 430 bytes.
const STACK_READ: usize = 1024;

/// Reads the blob at `path` as an envelope of any schema generation;
/// `None` if it is absent, unreadable or not an envelope.
///
/// One `open` and, for any blob that fits [`STACK_READ`], one `read`: a
/// read that does not fill the buffer is taken as the whole file. Blobs
/// are never written in place ([`Store::store_with_provenance`] renames
/// a finished temp file over them), and a short read of a regular file
/// is its end. Were a read ever cut short anyway, the prefix would lack
/// the envelope's closing brace and decode as a miss, never as a wrong
/// point. Such a blob goes to [`read_canonical`] first and to the
/// generic [`decode_envelope`] only if that declines it. Larger blobs
/// read the rest onto the heap and take the generic decode.
fn read_envelope(path: &Path) -> Option<Envelope> {
    let mut file = std::fs::File::open(path).ok()?;
    let mut buf = [0u8; STACK_READ];
    let n = loop {
        match file.read(&mut buf) {
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    };
    if n < buf.len() {
        let blob = &buf[..n];
        return read_canonical(blob).or_else(|| decode_envelope(blob));
    }
    let mut blob = buf.to_vec();
    file.read_to_end(&mut blob).ok()?;
    decode_envelope(&blob)
}

/// The definition of what a blob holds: JSON text parsed into a
/// [`serde::Content`] tree and decoded by [`Envelope`]'s `Deserialize`.
fn decode_envelope(blob: &[u8]) -> Option<Envelope> {
    serde_json::from_str(std::str::from_utf8(blob).ok()?).ok()
}

/// Reads an envelope laid out exactly as [`Store::store_with_provenance`]
/// writes it, straight from the bytes: no [`serde::Content`] tree, and
/// no allocation but `key` and `git_sha`. `None` means "not in that
/// layout", never "corrupt" — the caller then asks [`decode_envelope`],
/// which stays the definition; whenever this returns `Some`, the
/// envelope equals the one `decode_envelope` returns for the same bytes
/// (tested on the writer's edge values and on every small mutation of
/// them).
///
/// It accepts the pretty layout in field order with an optional
/// `provenance` and nothing after the closing brace. A float is `null`
/// (NaN, as the generic decode maps it) or a number token holding `.`,
/// `e` or `E`, parsed by the same `str::parse::<f64>`; an integer is at
/// most 19 digits; a string holds no `\` and no control byte. Anything
/// else — integer-spelled floats, `-0`, escapes, other whitespace or
/// field orders, compact JSON — is declined.
fn read_canonical(blob: &[u8]) -> Option<Envelope> {
    let mut r = Canonical {
        text: std::str::from_utf8(blob).ok()?,
        pos: 0,
    };
    r.expect("{\n  \"schema_version\": ")?;
    let schema_version = u32::try_from(r.integer()?).ok()?;
    r.expect(",\n  \"key\": ")?;
    let key = r.string()?.to_string();
    r.expect(",\n  \"point\": {\n    \"rate\": ")?;
    let rate = r.float()?;
    r.expect(",\n    \"avg_latency\": ")?;
    let avg_latency = r.float()?;
    r.expect(",\n    \"throughput\": ")?;
    let throughput = r.float()?;
    r.expect(",\n    \"delivered\": ")?;
    let delivered = r.integer()?;
    r.expect(",\n    \"fastpass_fraction\": ")?;
    let fastpass_fraction = r.float()?;
    r.expect(",\n    \"dropped_fraction\": ")?;
    let dropped_fraction = r.float()?;
    r.expect("\n  }")?;
    let provenance = if r.expect("\n}").is_some() {
        None
    } else {
        r.expect(",\n  \"provenance\": {\n    \"unix_ms\": ")?;
        let unix_ms = r.integer()?;
        r.expect(",\n    \"wall_ms\": ")?;
        let wall_ms = r.integer()?;
        r.expect(",\n    \"worker\": ")?;
        let worker = match r.expect("null") {
            Some(()) => None,
            None => Some(r.integer()?),
        };
        r.expect(",\n    \"git_sha\": ")?;
        let git_sha = r.string()?.to_string();
        r.expect(",\n    \"cycles\": ")?;
        let cycles = r.integer()?;
        r.expect("\n  }\n}")?;
        Some(Provenance {
            unix_ms,
            wall_ms,
            worker,
            git_sha,
            cycles,
        })
    };
    (r.pos == blob.len()).then_some(Envelope {
        schema_version,
        key,
        point: LatencyPoint {
            rate,
            avg_latency,
            throughput,
            delivered,
            fastpass_fraction,
            dropped_fraction,
        },
        provenance,
    })
}

/// [`read_canonical`]'s cursor. Every method consumes what it accepts
/// and returns `None` for anything outside the writer's layout.
struct Canonical<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Canonical<'a> {
    fn expect(&mut self, literal: &str) -> Option<()> {
        let found = self.text[self.pos..].starts_with(literal);
        if found {
            self.pos += literal.len();
        }
        found.then_some(())
    }

    /// The number token at the cursor, cut where the generic parser cuts
    /// it: a digit or `-`, then every following byte of `0-9 . e E + -`.
    fn number(&mut self) -> Option<&'a str> {
        let rest = &self.text[self.pos..];
        if !rest.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
            return None;
        }
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '.' | 'e' | 'E' | '+' | '-'))
            .unwrap_or(rest.len());
        self.pos += len;
        Some(&rest[..len])
    }

    fn integer(&mut self) -> Option<u64> {
        let token = self.number()?;
        if token.len() > 19 || !token.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        Some(token.bytes().fold(0, |v, d| v * 10 + u64::from(d - b'0')))
    }

    fn float(&mut self) -> Option<f64> {
        if self.expect("null").is_some() {
            return Some(f64::NAN);
        }
        let token = self.number()?;
        if !token.contains(['.', 'e', 'E']) {
            return None;
        }
        token.parse().ok()
    }

    fn string(&mut self) -> Option<&'a str> {
        self.expect("\"")?;
        let rest = &self.text[self.pos..];
        let len = rest.find(|c: char| c == '"' || c == '\\' || c < ' ')?;
        if !rest[len..].starts_with('"') {
            return None;
        }
        self.pos += len + 1;
        Some(&rest[..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(rate: f64, lat: f64) -> LatencyPoint {
        LatencyPoint {
            rate,
            avg_latency: lat,
            throughput: rate,
            delivered: 10,
            fastpass_fraction: 0.0,
            dropped_fraction: 0.0,
        }
    }

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("nocstore_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::new(dir)
    }

    #[test]
    fn git_sha_fallback_chain_is_never_empty() {
        // Avoid mutating this process's env (other tests run in
        // parallel): just assert the fallback chain produces something.
        assert!(!git_sha().is_empty());
    }

    #[test]
    fn round_trips_an_envelope() {
        let store = temp_store("roundtrip");
        assert!(store.load(7).is_none());
        assert!(store.store(7, &point(0.1, 12.0)));
        let got = store.load(7).expect("stored entry loads");
        assert_eq!(got.avg_latency, 12.0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The pre-envelope layout (a bare `LatencyPoint`) carries no key or
    /// schema to check, so it is never served.
    #[test]
    fn bare_point_blob_is_a_miss_and_gc_drops_it_as_corrupt() {
        let store = temp_store("bare");
        std::fs::create_dir_all(store.dir()).unwrap();
        let bare = serde_json::to_string_pretty(&point(0.05, 9.0)).unwrap();
        std::fs::write(store.path_of(3), bare).unwrap();
        assert!(store.load(3).is_none(), "an unverifiable blob was served");

        let report = store.gc();
        assert_eq!(
            (report.scanned, report.kept, report.dropped_corrupt),
            (1, 0, 1),
            "{report:?}"
        );
        assert!(!store.path_of(3).exists());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stale_schema_and_corrupt_blobs_are_misses_and_gc_drops_them() {
        let store = temp_store("stale");
        std::fs::create_dir_all(store.dir()).unwrap();
        // Stale: a well-formed envelope from a previous schema version.
        let stale = Envelope {
            schema_version: CACHE_SCHEMA_VERSION - 1,
            key: format_key(1),
            point: point(0.1, 99_999.0),
            provenance: None,
        };
        std::fs::write(store.path_of(1), serde_json::to_string(&stale).unwrap()).unwrap();
        // Corrupt: a truncated write.
        std::fs::write(store.path_of(2), "{\"schema_version\": 2, \"ke").unwrap();
        // Orphaned temp file from an interrupted writer.
        std::fs::write(store.dir().join("0000000000000003.tmp.1234"), "x").unwrap();

        assert!(store.load(1).is_none(), "stale entry must not be served");
        assert!(store.load(2).is_none(), "corrupt entry must not be served");

        let report = store.gc();
        assert_eq!(report.dropped_stale, 1, "{report:?}");
        assert_eq!(report.dropped_corrupt, 1, "{report:?}");
        assert_eq!(report.dropped_temp, 1, "{report:?}");
        assert_eq!(store.stats().entries, 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn key_mismatch_inside_envelope_is_a_miss() {
        let store = temp_store("mismatch");
        std::fs::create_dir_all(store.dir()).unwrap();
        let write = |k: u64, key: &str| {
            let envelope = Envelope {
                schema_version: CACHE_SCHEMA_VERSION,
                key: key.to_string(),
                point: point(0.1, 1.0),
                provenance: None,
            };
            std::fs::write(store.path_of(k), serde_json::to_string(&envelope).unwrap()).unwrap();
        };
        write(5, &format_key(99));
        // The key check is byte-exact: the same key in uppercase, or
        // without its leading zeros, names a different blob.
        write(0xab, &format_key(0xab).to_uppercase());
        write(6, "6");
        write(7, &format_key(7));
        for k in [5, 0xab, 6] {
            assert!(store.load(k).is_none(), "{k:x} served");
        }
        assert!(store.load(7).is_some(), "the canonical key loads");
        let report = store.gc();
        assert_eq!((report.dropped_stale, report.kept), (3, 1), "{report:?}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn hex_key_is_format_key_on_the_stack() {
        for k in [0, 1, 0xab, 0x0123_4567_89ab_cdef, u64::MAX] {
            assert_eq!(hex_key(k), format_key(k).as_bytes(), "{k:x}");
        }
    }

    /// A blob that overflows the stack buffer is read to its end, not
    /// cut at the buffer's size.
    #[test]
    fn blobs_larger_than_the_stack_buffer_load() {
        let store = temp_store("large");
        let prov = Provenance {
            unix_ms: 1,
            wall_ms: 2,
            worker: None,
            git_sha: "x".repeat(2 * STACK_READ),
            cycles: 3,
        };
        assert!(store.store_with_provenance(9, &point(0.1, 4.0), Some(&prov)));
        assert!(std::fs::metadata(store.path_of(9)).unwrap().len() > 2 * STACK_READ as u64);
        let (got, stamped) = store.load_entry(9).expect("large entry loads");
        assert_eq!(got.avg_latency, 4.0);
        assert_eq!(stamped, Some(prov));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Threads of one process storing the same key each write their own
    /// temp file: no store fails, and a concurrent reader never sees the
    /// primed entry missing or torn.
    #[test]
    fn same_process_writers_never_share_a_temp_path() {
        let store = temp_store("temprace");
        assert!(store.store(7, &point(0.1, 12.0)));
        let start = std::sync::Barrier::new(3);
        let (stored, misses) = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..2_000)
                            .filter(|_| store.store(7, &point(0.1, 12.0)))
                            .count()
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                (0..4_000).filter(|_| store.load(7).is_none()).count()
            });
            let stored: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
            (stored, reader.join().unwrap())
        });
        assert_eq!(stored, 4_000, "every store must land");
        assert_eq!(misses, 0, "a load of the primed key missed");
        assert_eq!(store.gc().dropped_temp, 0, "no temp file left behind");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn provenance_round_trips_and_never_perturbs_the_point() {
        let store = temp_store("provenance");
        let prov = Provenance {
            unix_ms: 1_700_000_000_000,
            wall_ms: 118,
            worker: Some(2),
            git_sha: "deadbeef".to_string(),
            cycles: 5_000,
        };
        assert!(store.store_with_provenance(11, &point(0.1, 12.0), Some(&prov)));
        let (got, stamped) = store.load_entry(11).expect("stamped entry loads");
        assert_eq!(stamped.as_ref(), Some(&prov));
        // The plain load path sees exactly the bytes-equal point.
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&store.load(11).unwrap()).unwrap()
        );
        // A provenance-less write under the same schema loads with None
        // — and without a "provenance": null key on disk.
        assert!(store.store(12, &point(0.2, 9.0)));
        let (_, none) = store.load_entry(12).expect("plain entry loads");
        assert!(none.is_none());
        let text = std::fs::read_to_string(store.path_of(12)).unwrap();
        assert!(!text.contains("provenance"), "omitted, not null: {text}");
        // gc keeps both shapes.
        let report = store.gc();
        assert_eq!((report.kept, report.dropped()), (2, 0), "{report:?}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn pre_provenance_envelope_is_stale_schema_not_corrupt() {
        // A v2-era envelope has no `provenance` key at all. It must
        // still *parse* as an envelope so gc classifies it stale (and a
        // load treats it as a miss) rather than lumping it in with
        // truncated-write corruption.
        let store = temp_store("prev3");
        std::fs::create_dir_all(store.dir()).unwrap();
        let v2 = format!(
            "{{\"schema_version\": {}, \"key\": \"{}\", \"point\": {}}}",
            CACHE_SCHEMA_VERSION - 1,
            format_key(4),
            serde_json::to_string(&point(0.05, 7.0)).unwrap()
        );
        std::fs::write(store.path_of(4), v2).unwrap();
        assert!(store.load(4).is_none(), "stale generation is a miss");
        let report = store.gc();
        assert_eq!(report.dropped_stale, 1, "{report:?}");
        assert_eq!(report.dropped_corrupt, 0, "{report:?}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn evict_removes_exactly_one_entry() {
        let store = temp_store("evict");
        assert!(store.store(1, &point(0.1, 1.0)));
        assert!(store.store(2, &point(0.2, 2.0)));
        assert!(store.evict(1));
        assert!(!store.evict(1), "double evict reports nothing removed");
        assert!(store.load(1).is_none());
        assert!(store.load(2).is_some());
        assert_eq!(store.stats().entries, 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn parse_key_requires_canonical_form() {
        assert_eq!(Store::parse_key("00000000000000ff"), Some(255));
        assert_eq!(Store::parse_key(&format_key(u64::MAX)), Some(u64::MAX));
        assert!(Store::parse_key("ff").is_none(), "short form rejected");
        assert!(Store::parse_key("00000000000000zz").is_none());
        assert!(Store::parse_key("00000000000000ff0").is_none());
    }

    #[test]
    fn gc_on_missing_directory_is_a_clean_noop() {
        let store = temp_store("missing");
        assert_eq!(store.gc(), GcReport::default());
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn a_failed_rename_leaves_no_temp_file() {
        let store = temp_store("rename");
        // A directory where the blob goes: the write lands, the rename
        // over it fails.
        std::fs::create_dir_all(store.path_of(5)).unwrap();
        assert!(!store.store(5, &point(0.1, 1.0)));
        let temps: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(temps.is_empty(), "orphaned temp files: {temps:?}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Envelopes equal as their `Debug` text, which spells every field,
    /// floats by shortest round trip (so NaN equals NaN and `-0.0`
    /// differs from `0.0`): a field added to the record is compared
    /// without a line here.
    fn same_envelope(a: &Envelope, b: &Envelope) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// [`read_canonical`] on `blob`, asserting what it is held to:
    /// whenever it accepts, the generic decode accepts the same envelope.
    fn canonical_checked(blob: &[u8]) -> Option<Envelope> {
        let fast = read_canonical(blob)?;
        let text = String::from_utf8_lossy(blob);
        let generic = decode_envelope(blob)
            .unwrap_or_else(|| panic!("only the canonical reader accepts {text:?}"));
        assert!(
            same_envelope(&fast, &generic),
            "{text:?}: canonical {fast:?} != generic {generic:?}"
        );
        Some(fast)
    }

    fn stamp(worker: Option<u64>, git_sha: &str) -> Option<Provenance> {
        Some(Provenance {
            unix_ms: 1_792_057_930_565,
            wall_ms: 3,
            worker,
            git_sha: git_sha.to_string(),
            cycles: 4_000,
        })
    }

    /// Blobs the real writer produces over edge values, under keys from
    /// 0x100, with whether the canonical reader must take each.
    fn edge_blobs(store: &Store) -> Vec<(u64, Vec<u8>, bool)> {
        let odd = LatencyPoint {
            rate: 0.02,
            avg_latency: f64::NAN,
            throughput: f64::INFINITY,
            delivered: 7_100_002,
            fastpass_fraction: f64::NEG_INFINITY,
            dropped_fraction: -0.0,
        };
        let tiny = LatencyPoint {
            rate: 5e-324,
            avg_latency: 1.0 / 3.0,
            throughput: f64::MAX,
            delivered: 0,
            fastpass_fraction: 0.0,
            dropped_fraction: 1e300,
        };
        let huge = LatencyPoint {
            delivered: u64::MAX,
            ..tiny.clone()
        };
        let sha = "904c324d8ac77c893d3b8dfd40d8ae14837ec377";
        let cases = [
            (&odd, stamp(None, sha), true),
            (&odd, None, true),
            (&tiny, stamp(Some(2), "é-sha"), true),
            (&tiny, stamp(Some(u64::MAX), sha), false),
            (&huge, None, false),
            (&odd, stamp(None, "quote\"d"), false),
            (&odd, stamp(None, "back\\slash"), false),
            (&tiny, stamp(Some(1), "ctl\u{1}"), false),
        ];
        cases
            .into_iter()
            .enumerate()
            .map(|(i, (point, prov, canonical))| {
                let key = 0x100 + i as u64;
                assert!(store.store_with_provenance(key, point, prov.as_ref()));
                (key, std::fs::read(store.path_of(key)).unwrap(), canonical)
            })
            .collect()
    }

    /// The committed smoke-grid store (`tests/golden/store/`), by key.
    fn golden_blobs() -> Vec<(u64, Vec<u8>)> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/store");
        let mut blobs: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
                (
                    Store::parse_key(&stem).unwrap(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect();
        blobs.sort();
        assert_eq!(blobs.len(), 6, "the fixture holds six blobs");
        blobs
    }

    #[test]
    fn canonical_reader_agrees_with_the_generic_decode() {
        let store = temp_store("canonical");
        for (key, blob, canonical) in edge_blobs(&store) {
            let text = String::from_utf8_lossy(&blob);
            assert_eq!(
                canonical_checked(&blob).is_some(),
                canonical,
                "canonical path for {text}"
            );
            let generic = decode_envelope(&blob).expect("the writer's bytes decode");
            let (point, provenance) = store.load_entry(key).expect("the writer's bytes load");
            let loaded = Envelope {
                point,
                provenance,
                ..generic.clone()
            };
            assert!(same_envelope(&loaded, &generic), "{text}");
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The golden blobs read canonically, and the writer, given what it
    /// read, writes them back byte for byte.
    #[test]
    fn golden_blobs_take_the_canonical_path() {
        let store = temp_store("golden");
        for (key, blob) in golden_blobs() {
            let env = canonical_checked(&blob).expect("a golden blob reads canonically");
            assert!(env.is_current_for(key), "{key:016x}");
            assert!(env.provenance.is_some(), "{key:016x}");
            assert!(store.store_with_provenance(key, &env.point, env.provenance.as_ref()));
            assert!(
                std::fs::read(store.path_of(key)).unwrap() == blob,
                "{key:016x} rewritten differently"
            );
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Every truncation, every single-byte replacement from the JSON
    /// alphabet and every inserted space of some writer-made blobs and
    /// the golden ones: where the canonical reader accepts a mutant it
    /// agrees with the generic decode, and `Store::load` answers what the
    /// generic decode alone answers.
    #[test]
    fn mutated_blobs_load_as_the_generic_decode_says() {
        let store = temp_store("mutants");
        let mut blobs: Vec<(u64, Vec<u8>)> = edge_blobs(&store)
            .into_iter()
            .filter(|&(_, _, canonical)| canonical)
            .map(|(key, blob, _)| (key, blob))
            .collect();
        assert_eq!(blobs.len(), 3);
        blobs.extend(golden_blobs());
        let (mut mutants, mut canonical) = (0, 0);
        for (key, blob) in blobs {
            let mut variants: Vec<Vec<u8>> = (0..blob.len()).map(|n| blob[..n].to_vec()).collect();
            for at in 0..blob.len() {
                for &b in b"{}\":,.-e09n\\ \n" {
                    if blob[at] != b {
                        let mut m = blob.clone();
                        m[at] = b;
                        variants.push(m);
                    }
                }
            }
            for at in 0..=blob.len() {
                let mut m = blob.clone();
                m.insert(at, b' ');
                variants.push(m);
            }
            for m in variants {
                mutants += 1;
                canonical += usize::from(canonical_checked(&m).is_some());
                std::fs::write(store.path_of(key), &m).unwrap();
                let want = decode_envelope(&m).filter(|e| e.is_current_for(key));
                let got = store.load_entry(key);
                let text = String::from_utf8_lossy(&m);
                match (got, want) {
                    (None, None) => {}
                    (Some((point, provenance)), Some(want)) => {
                        let got = Envelope {
                            point,
                            provenance,
                            ..want.clone()
                        };
                        assert!(same_envelope(&got, &want), "{text}");
                    }
                    (got, want) => panic!("{text}: loaded {got:?}, generic {want:?}"),
                }
            }
        }
        // Digit swaps and the like keep the layout: a real share of the
        // mutants must have exercised the canonical path.
        assert!(canonical * 20 > mutants, "{canonical} of {mutants}");
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
