//! A fingerprint-keyed result cache with optional JSON spill.
//!
//! One lock guards the map: every lookup, insert and removal happens on
//! the thread that drives a run (before the pool starts, or in the
//! delivery callback on the calling thread), so there is nothing to
//! shard. Spilling is delegated to caller-supplied closures — an encoder
//! to an entry's JSON payload text, a decoder from `serde_json::Value` —
//! so the cache stays generic and callers decide which results are durable
//! (the verifier spills both passes and failures; failures are
//! re-validated against the live configuration before reuse — see
//! `lightyear::engine`).
//!
//! Long-lived processes (daemon-style re-verification loops) can bound
//! the cache with [`ResultCache::bounded`]: it then evicts its
//! least-recently-used entry once over budget, so memory stays constant
//! no matter how many distinct check structures flow through.

use crate::fingerprint::{Fingerprint, FpHasher};
use serde::{Serialize, Sink};
use serde_json::Value;
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// Spill-format version; bump when the entry encoding changes.
/// Version 3 wraps each entry as `{"sum", "payload"}` where `sum` is the
/// fingerprint of the entry's key and payload bytes: a spill that was
/// truncated, bit-flipped, or hand-forged fails its checksum on reload
/// and the affected checks are simply re-proved instead of replayed.
const SPILL_VERSION: i64 = 3;

/// Checksum of a spill entry: covers the fingerprint key *and* the
/// serialized payload bytes, so corruption in either (including a
/// flipped hex digit that would re-key a valid payload onto the wrong
/// check) fails verification.
///
/// Public because external tools (and tests) that rewrite spill files
/// must recompute it. It is an *integrity* sum against corruption, not a
/// cryptographic seal: well-formed entries still pass semantic
/// re-validation against the live encoding before being replayed.
pub fn spill_entry_sum(key_hex: &str, payload: &str) -> String {
    let mut h = FpHasher::new();
    h.write_tag("spill-entry");
    h.write_str(key_hex);
    h.write_str(payload);
    h.finish().to_hex()
}

/// The spill document (see [`ResultCache::save_to_dir`]) over entries
/// sorted by key: `(key hex, payload text)`.
struct SpillDoc<'e> {
    key_version: u32,
    entries: &'e [(String, String)],
}

impl Serialize for SpillDoc<'_> {
    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        out.field("version", &SPILL_VERSION);
        out.field("key_version", &i64::from(self.key_version));
        out.key("entries");
        out.begin_object();
        for (hex, payload) in self.entries {
            out.key(hex);
            out.begin_object();
            out.field("sum", &spill_entry_sum(hex, payload));
            out.field("payload", payload);
            out.end_object();
        }
        out.end_object();
        out.end_object();
    }
}

/// One cached value plus its last-touch stamp for LRU ordering.
struct Entry<V> {
    value: V,
    touched: u64,
}

/// The map and the logical clock that stamps LRU recency, under one lock.
struct Inner<V> {
    map: HashMap<u128, Entry<V>>,
    clock: u64,
}

impl<V> Inner<V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A map from [`Fingerprint`] to a result value, optionally bounded
/// with least-recently-used eviction.
pub struct ResultCache<V> {
    inner: Mutex<Inner<V>>,
    /// Entry budget; `usize::MAX` means unbounded.
    cap: usize,
}

impl<V> Default for ResultCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ResultCache<V> {
    /// An unbounded cache.
    pub fn new() -> Self {
        Self::bounded(usize::MAX)
    }

    /// A size-bounded cache: at most `capacity` entries (at least one),
    /// evicting the least-recently-used entry when over budget.
    pub fn bounded(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            cap: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap()
    }

    /// Insert (last write wins). A bounded cache evicts its
    /// least-recently-used entry when over budget.
    pub fn insert(&self, fp: Fingerprint, v: V) {
        let mut inner = self.lock();
        let touched = inner.tick();
        inner.map.insert(fp.0, Entry { value: v, touched });
        while inner.map.len() > self.cap {
            // Linear scan is fine: eviction fires once per overflowing
            // insert, and only under a `--cache-cap` budget.
            let Some((&oldest, _)) = inner.map.iter().min_by_key(|(_, e)| e.touched) else {
                break;
            };
            inner.map.remove(&oldest);
            obs::add("cache.evictions", 1);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop an entry (used when a loaded result fails re-validation).
    pub fn remove(&self, fp: Fingerprint) {
        self.lock().map.remove(&fp.0);
    }

    /// Drop a batch of entries, returning how many were present. This is
    /// the delta-aware invalidation entry point: a re-verify round that
    /// knows which checks a configuration change dirtied removes exactly
    /// those checks' superseded fingerprints instead of scanning or
    /// flushing the whole cache.
    pub fn remove_many(&self, fps: &[Fingerprint]) -> usize {
        let mut inner = self.lock();
        fps.iter()
            .filter(|fp| inner.map.remove(&fp.0).is_some())
            .count()
    }
}

impl<V: Clone> ResultCache<V> {
    /// Look up a fingerprint, counting a hit or miss and refreshing the
    /// entry's LRU recency.
    pub fn get(&self, fp: Fingerprint) -> Option<V> {
        let mut inner = self.lock();
        let touched = inner.tick();
        let found = inner.map.get_mut(&fp.0).map(|e| {
            e.touched = touched;
            e.value.clone()
        });
        drop(inner);
        obs::add(
            if found.is_some() {
                "cache.hits"
            } else {
                "cache.misses"
            },
            1,
        );
        found
    }

    /// Look up without touching the counters or recency.
    pub fn peek(&self, fp: Fingerprint) -> Option<V> {
        self.lock().map.get(&fp.0).map(|e| e.value.clone())
    }

    /// Spill to `dir/cache.json`. `encode` renders an entry's payload as
    /// compact JSON text (stream it with `serde_json::to_string`) and
    /// chooses which entries are durable: returning `None` skips an
    /// entry. Each entry is stored as `{"sum", "payload"}` — the payload
    /// text plus its checksum — so reload can detect corruption per
    /// entry. The document records `key_version`, the version of the
    /// format the caller derives its fingerprint keys with, and is
    /// streamed to text, never built as a tree. Returns the number of
    /// entries written.
    pub fn save_to_dir(
        &self,
        dir: &Path,
        key_version: u32,
        encode: impl Fn(&V) -> Option<String>,
    ) -> io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let mut entries: Vec<(String, String)> = (self.lock().map.iter())
            .filter_map(|(k, e)| Some((Fingerprint(*k).to_hex(), encode(&e.value)?)))
            .collect();
        // Sort for reproducible files (map iteration order is not
        // deterministic).
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let written = entries.len();
        let doc = SpillDoc {
            key_version,
            entries: &entries,
        };
        let text = serde_json::to_string_pretty(&doc)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let path = dir.join("cache.json");
        let tmp = dir.join("cache.json.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
        }
        std::fs::rename(&tmp, &path)?;
        obs::add("cache.spill_bytes", text.len() as u64);
        obs::add("cache.spill_entries", written as u64);
        Ok(written)
    }

    /// Load `dir/cache.json` written by [`ResultCache::save_to_dir`].
    /// Missing file is an empty load; so is a file of another spill
    /// version or written under another `key_version` — keys of a dead
    /// format can never be asked for again, so loading them would only
    /// carry them into every later save. Every entry must pass its
    /// payload checksum before being parsed: a corrupted or forged entry
    /// is skipped (counted on `cache.spill_rejected`) and its check is
    /// re-proved by the caller, never replayed. `decode` may reject
    /// individual entries by returning `None`. Returns entries loaded.
    pub fn load_from_dir(
        &self,
        dir: &Path,
        key_version: u32,
        decode: impl Fn(&Value) -> Option<V>,
    ) -> io::Result<usize> {
        let path = dir.join("cache.json");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let doc: Value = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if doc["version"].as_i64() != Some(SPILL_VERSION)
            || doc["key_version"].as_i64() != Some(key_version.into())
        {
            return Ok(0);
        }
        let Some(entries) = doc["entries"].as_object() else {
            return Ok(0);
        };
        let mut loaded = 0;
        let mut rejected = 0u64;
        for (hex, wrapped) in entries {
            let Some(fp) = Fingerprint::from_hex(hex) else {
                rejected += 1;
                continue;
            };
            // Checksum-before-parse: only payload bytes whose sum
            // matches (over key and payload) are ever handed to the
            // JSON parser or `decode`.
            let verified = match (wrapped["sum"].as_str(), wrapped["payload"].as_str()) {
                (Some(sum), Some(payload)) if sum == spill_entry_sum(hex, payload) => {
                    serde_json::from_str::<Value>(payload).ok()
                }
                _ => None,
            };
            let Some(v) = verified.as_ref().and_then(&decode) else {
                rejected += 1;
                continue;
            };
            self.insert(fp, v);
            loaded += 1;
        }
        if rejected > 0 {
            obs::add("cache.spill_rejected", rejected);
        }
        obs::add("cache.reload_bytes", text.len() as u64);
        obs::add("cache.reload_entries", loaded as u64);
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FpHasher;

    fn fp(n: u32) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_u32(n);
        h.finish()
    }

    #[test]
    fn get_insert_stats() {
        let c: ResultCache<String> = ResultCache::new();
        assert_eq!(c.get(fp(1)), None);
        c.insert(fp(1), "one".into());
        assert_eq!(c.get(fp(1)).as_deref(), Some("one"));
        c.insert(fp(1), "uno".into());
        assert_eq!(c.peek(fp(1)).as_deref(), Some("uno"), "last write wins");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn spill_roundtrip_with_selective_encode() {
        let dir = std::env::temp_dir().join(format!("orch-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c: ResultCache<(bool, u32)> = ResultCache::new();
        c.insert(fp(1), (true, 10));
        c.insert(fp(2), (false, 20)); // not durable: encode returns None
        let written = c
            .save_to_dir(&dir, 1, |(pass, n)| {
                if *pass {
                    Some(format!("{{\"n\":{n}}}"))
                } else {
                    None
                }
            })
            .unwrap();
        assert_eq!(written, 1);

        let c2: ResultCache<(bool, u32)> = ResultCache::new();
        let loaded = c2
            .load_from_dir(&dir, 1, |v| v["n"].as_u64().map(|n| (true, n as u32)))
            .unwrap();
        assert_eq!(loaded, 1);
        assert_eq!(c2.peek(fp(1)), Some((true, 10)));
        assert_eq!(c2.peek(fp(2)), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Spill a two-entry cache, apply `corrupt` to the file text, and
    /// return how many entries a fresh cache loads from the result.
    fn poisoned_load(tag: &str, corrupt: impl Fn(String) -> String) -> (ResultCache<u32>, usize) {
        let dir = std::env::temp_dir().join(format!("orch-poison-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c: ResultCache<u32> = ResultCache::new();
        c.insert(fp(1), 10);
        c.insert(fp(2), 20);
        c.save_to_dir(&dir, 1, |n| Some(format!("{{\"n\":{n}}}")))
            .unwrap();
        let path = dir.join("cache.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, corrupt(text)).unwrap();
        let c2: ResultCache<u32> = ResultCache::new();
        let loaded = c2
            .load_from_dir(&dir, 1, |v| v["n"].as_u64().map(|n| n as u32))
            .unwrap_or(0);
        let _ = std::fs::remove_dir_all(&dir);
        (c2, loaded)
    }

    #[test]
    fn bit_flipped_payload_is_rejected_not_replayed() {
        // Flip one digit inside one payload's value: the entry's
        // checksum no longer matches, so only the intact entry loads.
        // (`:10}` cannot occur in a hex key or checksum, so the flip
        // lands inside the escaped payload string.)
        let (c, loaded) = poisoned_load("flip", |t| t.replacen(":10}", ":99}", 1));
        assert_eq!(loaded, 1);
        assert_eq!(c.peek(fp(1)), None, "poisoned entry must not replay");
        assert_eq!(c.peek(fp(2)), Some(20), "intact entry still loads");
    }

    #[test]
    fn forged_checksum_is_rejected() {
        // Garbling an entry's checksum (first entry in file order)
        // rejects the entry even though the payload itself is intact.
        let (c, loaded) = poisoned_load("forge", |t| t.replacen("\"sum\": \"", "\"sum\": \"0", 1));
        assert_eq!(loaded, 1, "only the untouched entry loads");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn flipped_key_digit_is_rejected() {
        // A flipped hex digit in the key re-keys a valid payload onto
        // the wrong fingerprint; the checksum covers the key, so the
        // transposed entry is rejected rather than replayed.
        let (c, loaded) = poisoned_load("key", |t| {
            let h = fp(1).to_hex();
            let mut flipped = h.clone();
            let repl = if h.starts_with('0') { "1" } else { "0" };
            flipped.replace_range(0..1, repl);
            t.replacen(&h, &flipped, 1)
        });
        assert_eq!(loaded, 1, "only the untouched entry loads");
        assert_eq!(c.peek(fp(1)), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn truncated_file_loads_nothing_and_does_not_panic() {
        let (c, loaded) = poisoned_load("trunc", |t| t[..t.len() / 2].to_string());
        assert_eq!(loaded, 0, "truncated spill is a cold start");
        assert!(c.is_empty());
    }

    #[test]
    fn version_2_spill_is_ignored() {
        let (_, loaded) =
            poisoned_load("ver", |t| t.replacen("\"version\": 3", "\"version\": 2", 1));
        assert_eq!(loaded, 0, "pre-checksum spills are not trusted");
    }

    #[test]
    fn spill_under_another_key_version_is_ignored() {
        // Written under key version 1 (what `poisoned_load` saves and
        // loads with): a file that names another version, or none, holds
        // keys nothing will ever ask for.
        let other = |t: String| t.replacen("\"key_version\": 1", "\"key_version\": 2", 1);
        assert_eq!(poisoned_load("keyver", other).1, 0);
        let absent = |t: String| t.replacen("\"key_version\": 1,", "", 1);
        assert_eq!(poisoned_load("nokeyver", absent).1, 0);
        assert_eq!(poisoned_load("samekeyver", |t| t).1, 2);
    }

    #[test]
    fn missing_dir_loads_empty() {
        let c: ResultCache<u32> = ResultCache::new();
        let loaded = c
            .load_from_dir(Path::new("/nonexistent/definitely/not/here"), 1, |_| {
                Some(0)
            })
            .unwrap();
        assert_eq!(loaded, 0);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let c: ResultCache<u32> = ResultCache::bounded(2);
        c.insert(fp(0), 0);
        c.insert(fp(1), 1);
        // Touch entry 0 so entry 1 is the LRU victim.
        assert_eq!(c.get(fp(0)), Some(0));
        c.insert(fp(2), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(fp(0)), Some(0), "recently-used survives");
        assert_eq!(c.peek(fp(1)), None, "LRU entry evicted");
        assert_eq!(c.peek(fp(2)), Some(2), "newest entry survives");
    }

    #[test]
    fn bounded_cache_total_size_is_bounded() {
        let c: ResultCache<u32> = ResultCache::bounded(32);
        for i in 0..1000 {
            c.insert(fp(i), i);
        }
        assert_eq!(c.len(), 32);
        assert!((968..1000).all(|i| c.peek(fp(i)) == Some(i)), "newest kept");
    }

    #[test]
    fn bounded_cache_keeps_exactly_its_capacity() {
        let c: ResultCache<u32> = ResultCache::bounded(2);
        for i in 0..40 {
            c.insert(fp(i), i);
        }
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_drops_entries() {
        let c: ResultCache<u32> = ResultCache::new();
        c.insert(fp(7), 7);
        c.remove(fp(7));
        assert_eq!(c.peek(fp(7)), None);
    }

    #[test]
    fn remove_many_reports_present_entries() {
        let c: ResultCache<u32> = ResultCache::new();
        c.insert(fp(1), 1);
        c.insert(fp(2), 2);
        let removed = c.remove_many(&[fp(1), fp(2), fp(3)]);
        assert_eq!(removed, 2, "fp(3) was never present");
        assert!(c.is_empty());
    }
}
