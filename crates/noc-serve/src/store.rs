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
//! entries eagerly.
//!
//! Writes are atomic (temp file + rename) so a crashed or interrupted
//! writer can leave at worst an orphaned `*.tmp.*` file, which `gc`
//! sweeps up. Every write gets its own temp name,
//! `<key>.tmp.<pid>.<seq>` with a process-wide sequence number: were two
//! threads of one process to share a temp path, the second `create`
//! would truncate the inode the first is about to rename into place.

use crate::runner::LatencyPoint;
use serde::{field, Content, DeError, Deserialize, Serialize};
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

/// The on-disk envelope around one stored point, as read back.
///
/// The decode is hand-written (not derived): the derive's deserializer
/// treats every field as required, and a hand-rolled decode is what lets
/// pre-v3 envelopes (no `provenance` key) still parse as envelopes, so
/// [`Store::gc`] classifies them as stale-schema rather than corrupt.
/// The write side is [`EnvelopeOut`].
#[derive(Debug, Clone)]
struct Envelope {
    /// Schema generation that produced this entry.
    schema_version: u32,
    /// The `key` field's bytes when it is 16 bytes long, the length of
    /// every rendered key; any other string matches no filename.
    key: Option<[u8; 16]>,
    /// The stored result.
    point: LatencyPoint,
    /// Compute provenance, when the writer stamped it.
    provenance: Option<Provenance>,
}

impl Envelope {
    /// Whether this entry may be served for `key`: written by the
    /// current schema generation, under that key — byte for byte its
    /// lowercase rendering, so a foreign (say, uppercase) key is a miss.
    fn is_current_for(&self, key: u64) -> bool {
        self.schema_version == CACHE_SCHEMA_VERSION && self.key == Some(hex_key(key))
    }
}

impl Deserialize for Envelope {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError("envelope must be a JSON object".to_string()))?;
        let key = field(map, "key")?
            .as_str()
            .ok_or_else(|| DeError("envelope key must be a string".to_string()))?;
        Ok(Envelope {
            schema_version: u32::from_content(field(map, "schema_version")?)?,
            key: key.as_bytes().try_into().ok(),
            point: LatencyPoint::from_content(field(map, "point")?)?,
            provenance: match field(map, "provenance") {
                Ok(content) => Option::<Provenance>::from_content(content)?,
                Err(_) => None,
            },
        })
    }
}

/// An envelope as the store writes it. Serialization is hand-written
/// (not derived) so that `None` provenance is *omitted* rather than
/// written as `null`.
struct EnvelopeOut<'a> {
    schema_version: u32,
    key: &'a str,
    point: &'a LatencyPoint,
    provenance: Option<&'a Provenance>,
}

impl Serialize for EnvelopeOut<'_> {
    fn to_content(&self) -> Content {
        let mut map = vec![
            (
                "schema_version".to_string(),
                self.schema_version.to_content(),
            ),
            ("key".to_string(), self.key.to_content()),
            ("point".to_string(), self.point.to_content()),
        ];
        if let Some(p) = self.provenance {
            map.push(("provenance".to_string(), p.to_content()));
        }
        Content::Map(map)
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

/// A snapshot of the store's size, for status reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
        let envelope = EnvelopeOut {
            schema_version: CACHE_SCHEMA_VERSION,
            key: &format_key(key),
            point,
            provenance,
        };
        let Ok(json) = serde_json::to_string_pretty(&envelope) else {
            return false;
        };
        let tmp = self.dir.join(format!(
            "{key:016x}.tmp.{}.{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, json).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        std::fs::rename(&tmp, self.path_of(key)).is_ok()
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
/// point. Larger blobs read the rest onto the heap.
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
        return decode_envelope(&buf[..n]);
    }
    let mut blob = buf.to_vec();
    file.read_to_end(&mut blob).ok()?;
    decode_envelope(&blob)
}

fn decode_envelope(blob: &[u8]) -> Option<Envelope> {
    serde_json::from_str(std::str::from_utf8(blob).ok()?).ok()
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
        let stale = EnvelopeOut {
            schema_version: CACHE_SCHEMA_VERSION - 1,
            key: &format_key(1),
            point: &point(0.1, 99_999.0),
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
            let envelope = EnvelopeOut {
                schema_version: CACHE_SCHEMA_VERSION,
                key,
                point: &point(0.1, 1.0),
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
}
