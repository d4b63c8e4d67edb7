//! `clapton-cache`: a persistent content-addressed result store.
//!
//! The in-process [`clapton_eval::CachedEvaluator`] memo dies with its job;
//! this crate keeps the same pure genome → loss facts (and whole terminal
//! reports) on disk, so repeated traffic — a resubmitted spec, a second
//! suite run against the same registry, another shard worker — answers from
//! storage instead of recomputing.
//!
//! # Storage format
//!
//! The store lives in one directory (conventionally `<registry>/.cache`,
//! which [`clapton_runtime::RunRegistry`] skips when listing runs) holding
//! `shards` subdirectories. Each shard is a set of append-once *segment*
//! files: a segment is a concatenation of records, each record a
//! [`clapton_runtime::seal_envelope`]-wrapped compact JSON document
//! `{"ns":"<16-hex>","key":"<hex>","value":"..."}` followed by a newline.
//! Segments are written whole via the registry's tmp+rename discipline
//! (per-writer unique tmp names), so a reader never observes a partial
//! segment and racing writer processes each land their own complete file.
//!
//! On [`CacheStore::open`] every segment is scanned — newest last, so the
//! lexicographically latest write of a key wins — into an in-memory index.
//! A segment that fails envelope verification anywhere is quarantined
//! exactly like a corrupt artifact (renamed to `<name>.corrupt-<unix-ms>`,
//! counted in `clapton_cache_corrupt_segments_total`) and contributes no
//! entries; lookups keep working off the healthy segments.
//!
//! # Identity and safety
//!
//! Keys are content fingerprints supplied by the caller (loss namespaces
//! from `clapton_core::loss_namespace`, spec identities from the service),
//! and values are pure functions of their key. Racing inserts of the same
//! key are therefore benign: whichever segment sorts last wins, and it wins
//! bit-identically.
//!
//! # Eviction
//!
//! [`CacheConfig::max_bytes`] bounds the store (divided evenly across
//! shards). When a flush pushes a shard past its budget, its oldest
//! segments are deleted — never the one just written — and their index
//! entries dropped, counted in `clapton_cache_evictions_total`.

use clapton_eval::LossStore;
use clapton_runtime::{open_envelope_record, seal_envelope};
use clapton_telemetry::Fnv1a;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Directory name of the store under a run registry root. Dot-prefixed so
/// `RunRegistry::run_names` never lists it as a run.
pub const CACHE_DIR_NAME: &str = ".cache";

/// Pending records buffered in a shard before an automatic segment flush.
const AUTO_FLUSH_BYTES: usize = 512 * 1024;

/// Sizing knobs for a [`CacheStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total on-disk budget in bytes, divided evenly across shards. A shard
    /// over its slice evicts oldest segments first (the newest segment is
    /// always kept, so a single oversized record still caches).
    pub max_bytes: u64,
    /// Number of shard subdirectories (keys are hash-partitioned). More
    /// shards mean finer-grained eviction and less write contention.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_bytes: 256 * 1024 * 1024,
            shards: 8,
        }
    }
}

/// A point-in-time census of a [`CacheStore`] — the payload of the server's
/// `GET /v1/cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStoreStats {
    /// Distinct keys currently answerable.
    pub entries: u64,
    /// Bytes across live segment files (excluding unflushed buffers).
    pub bytes: u64,
    /// Live segment files.
    pub segments: u64,
    /// Lookups answered from the index since open.
    pub hits: u64,
    /// Lookups that found nothing since open.
    pub misses: u64,
    /// Fresh keys inserted since open.
    pub inserts: u64,
    /// Entries dropped by size-budget eviction since open.
    pub evictions: u64,
    /// Segments quarantined for failing envelope verification since open.
    pub corrupt_segments: u64,
}

/// One record as serialized into a segment.
#[derive(Debug, Serialize, Deserialize)]
struct CacheRecord {
    ns: String,
    key: String,
    value: String,
}

/// Where an indexed value currently lives.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Home {
    /// Buffered in memory, not yet flushed to a segment.
    Pending,
    /// In the named segment file.
    Segment(String),
}

#[derive(Debug, Default)]
struct Shard {
    /// `(ns, key)` → (value, home).
    index: HashMap<(u64, Vec<u8>), (String, Home)>,
    /// Serialized records awaiting the next segment flush.
    pending: Vec<u8>,
    pending_keys: Vec<(u64, Vec<u8>)>,
    /// Live segments as `(file name, bytes)`, sorted oldest first.
    segments: Vec<(String, u64)>,
}

impl Shard {
    fn segment_bytes(&self) -> u64 {
        self.segments.iter().map(|&(_, b)| b).sum()
    }
}

/// Process-wide telemetry mirrors of the store counters.
struct CacheMetrics {
    hits: std::sync::Arc<clapton_telemetry::Counter>,
    misses: std::sync::Arc<clapton_telemetry::Counter>,
    inserts: std::sync::Arc<clapton_telemetry::Counter>,
    evictions: std::sync::Arc<clapton_telemetry::Counter>,
    corrupt_segments: std::sync::Arc<clapton_telemetry::Counter>,
    size_bytes: std::sync::Arc<clapton_telemetry::Gauge>,
    entries: std::sync::Arc<clapton_telemetry::Gauge>,
}

fn cache_metrics() -> &'static CacheMetrics {
    use std::sync::OnceLock;
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = clapton_telemetry::registry();
        CacheMetrics {
            hits: r.counter(
                "clapton_cache_hits_total",
                "Persistent-store lookups answered from the index",
            ),
            misses: r.counter(
                "clapton_cache_misses_total",
                "Persistent-store lookups that found nothing",
            ),
            inserts: r.counter(
                "clapton_cache_inserts_total",
                "Fresh keys inserted into the persistent store",
            ),
            evictions: r.counter(
                "clapton_cache_evictions_total",
                "Entries dropped by size-budget eviction",
            ),
            corrupt_segments: r.counter(
                "clapton_cache_corrupt_segments_total",
                "Segments quarantined for failing envelope verification",
            ),
            size_bytes: r.gauge(
                "clapton_cache_size_bytes",
                "Bytes across live persistent-store segments",
            ),
            entries: r.gauge(
                "clapton_cache_entries",
                "Distinct keys in the persistent store",
            ),
        }
    })
}

/// The persistent content-addressed store. Cheap to share (`Arc` it);
/// all methods take `&self`.
#[derive(Debug)]
pub struct CacheStore {
    root: PathBuf,
    config: CacheConfig,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    corrupt_segments: AtomicU64,
}

/// FNV-1a 64 over `ns` then `key` — shard selector.
fn shard_hash(ns: u64, key: &[u8]) -> u64 {
    Fnv1a::new().write(&ns.to_le_bytes()).write(key).finish()
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    (0..text.len() / 2)
        .map(|i| u8::from_str_radix(&text[2 * i..2 * i + 2], 16).ok())
        .collect()
}

fn unix_millis() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

/// A fresh segment file name: lexicographic order is creation order, and
/// the `(pid, seq)` suffix keeps racing writer processes from colliding.
fn segment_name() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        "seg-{:015}-{:010}-{:06}.seg",
        unix_millis(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

impl CacheStore {
    /// Opens (creating if needed) the store rooted at `root`, scanning every
    /// live segment into the in-memory index. Corrupt segments are
    /// quarantined aside and contribute nothing.
    ///
    /// # Errors
    ///
    /// Real I/O failures only; corruption is handled, not an error.
    pub fn open(root: impl AsRef<Path>, config: CacheConfig) -> io::Result<CacheStore> {
        assert!(config.shards > 0, "a cache needs at least one shard");
        let root = root.as_ref().to_path_buf();
        let store = CacheStore {
            shards: (0..config.shards).map(|_| Mutex::default()).collect(),
            root,
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_segments: AtomicU64::new(0),
        };
        for i in 0..config.shards {
            let dir = store.shard_dir(i);
            fs::create_dir_all(&dir)?;
            let mut names: Vec<String> = fs::read_dir(&dir)?
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name.starts_with("seg-") && name.ends_with(".seg")).then_some(name)
                })
                .collect();
            names.sort();
            let mut shard = store.shards[i].lock().expect("shard lock");
            for name in names {
                store.scan_segment(&dir, &name, &mut shard)?;
            }
        }
        Ok(store)
    }

    /// Opens the conventional store location under a run registry root:
    /// `<registry>/.cache`.
    pub fn open_under_registry(
        registry_root: impl AsRef<Path>,
        config: CacheConfig,
    ) -> io::Result<CacheStore> {
        CacheStore::open(registry_root.as_ref().join(CACHE_DIR_NAME), config)
    }

    /// The store's root directory.
    pub fn path(&self) -> &Path {
        &self.root
    }

    fn shard_dir(&self, i: usize) -> PathBuf {
        self.root.join(format!("shard-{i}"))
    }

    /// Scans one segment into `shard`'s index, or quarantines it whole on
    /// the first verification failure (its records — even ones that scanned
    /// clean — are discarded, matching artifact quarantine semantics).
    fn scan_segment(&self, dir: &Path, name: &str, shard: &mut Shard) -> io::Result<()> {
        let bytes = match fs::read(dir.join(name)) {
            Ok(b) => b,
            // A racing process may have evicted the segment between listing
            // and reading; nothing to index.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut parsed: Vec<(u64, Vec<u8>, String)> = Vec::new();
        let mut pos = 0;
        let mut detail: Option<String> = None;
        while pos < bytes.len() {
            if bytes[pos] == b'\n' {
                pos += 1;
                continue;
            }
            match open_envelope_record(&bytes[pos..]) {
                Ok((payload, consumed)) => {
                    let text = std::str::from_utf8(payload)
                        .map_err(|e| format!("record payload is not UTF-8: {e}"));
                    match text.and_then(|t| {
                        serde_json::from_str::<CacheRecord>(t)
                            .map_err(|e| format!("record payload does not parse: {e}"))
                    }) {
                        Ok(record) => {
                            let ns = u64::from_str_radix(&record.ns, 16).ok();
                            let key = hex_decode(&record.key);
                            match (ns, key) {
                                (Some(ns), Some(key)) => parsed.push((ns, key, record.value)),
                                _ => {
                                    detail = Some("record ns/key is not valid hex".to_string());
                                    break;
                                }
                            }
                        }
                        Err(e) => {
                            detail = Some(e);
                            break;
                        }
                    }
                    pos += consumed;
                }
                Err(e) => {
                    detail = Some(e);
                    break;
                }
            }
        }
        if detail.is_some() {
            let quarantined = format!("{name}.corrupt-{}", unix_millis());
            match fs::rename(dir.join(name), dir.join(&quarantined)) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            self.corrupt_segments.fetch_add(1, Ordering::Relaxed);
            cache_metrics().corrupt_segments.inc();
            return Ok(());
        }
        let size = bytes.len() as u64;
        for (ns, key, value) in parsed {
            shard
                .index
                .insert((ns, key), (value, Home::Segment(name.to_string())));
        }
        shard.segments.push((name.to_string(), size));
        Ok(())
    }

    /// Looks up the value stored under `(ns, key)`.
    pub fn get(&self, ns: u64, key: &[u8]) -> Option<String> {
        let shard = self.shard_for(ns, key).lock().expect("shard lock");
        match shard.index.get(&(ns, key.to_vec())) {
            Some((value, _)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                cache_metrics().hits.inc();
                Some(value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                cache_metrics().misses.inc();
                None
            }
        }
    }

    /// Inserts `value` under `(ns, key)`. A key already present is a no-op
    /// (values are pure functions of their key, so a differing value can
    /// only mean a caller bug — the first write wins within a process).
    /// The record is buffered; it reaches disk on the next [`flush`]
    /// (automatic once a shard buffers [`AUTO_FLUSH_BYTES`]).
    ///
    /// [`flush`]: CacheStore::flush
    pub fn put(&self, ns: u64, key: &[u8], value: &str) {
        let shard_slot = self.shard_for(ns, key);
        let mut shard = shard_slot.lock().expect("shard lock");
        let index_key = (ns, key.to_vec());
        if shard.index.contains_key(&index_key) {
            return;
        }
        let record = CacheRecord {
            ns: format!("{ns:016x}"),
            key: hex_encode(key),
            value: value.to_string(),
        };
        let payload = serde_json::to_string(&record)
            .expect("record serializes")
            .into_bytes();
        let mut sealed = seal_envelope(&payload);
        sealed.push(b'\n');
        shard.pending.extend_from_slice(&sealed);
        shard.pending_keys.push(index_key.clone());
        shard
            .index
            .insert(index_key, (value.to_string(), Home::Pending));
        self.inserts.fetch_add(1, Ordering::Relaxed);
        cache_metrics().inserts.inc();
        if shard.pending.len() >= AUTO_FLUSH_BYTES {
            // Best-effort: an I/O failure here surfaces on the explicit
            // flush; the entry stays answerable from memory meanwhile.
            let _ = self.flush_shard(&mut shard, self.shard_index(ns, key));
        }
    }

    /// Writes every buffered record out as new segments (one per dirty
    /// shard, atomic tmp+rename) and applies the eviction budget.
    ///
    /// # Errors
    ///
    /// The first I/O failure; earlier shards stay flushed.
    pub fn flush(&self) -> io::Result<()> {
        for i in 0..self.shards.len() {
            let mut shard = self.shards[i].lock().expect("shard lock");
            self.flush_shard(&mut shard, i)?;
        }
        Ok(())
    }

    fn shard_index(&self, ns: u64, key: &[u8]) -> usize {
        (shard_hash(ns, key) % self.shards.len() as u64) as usize
    }

    fn shard_for(&self, ns: u64, key: &[u8]) -> &Mutex<Shard> {
        &self.shards[self.shard_index(ns, key)]
    }

    fn flush_shard(&self, shard: &mut Shard, i: usize) -> io::Result<()> {
        if !shard.pending.is_empty() {
            let dir = self.shard_dir(i);
            let name = segment_name();
            let tmp = format!(
                "{name}.{}-{}.tmp",
                std::process::id(),
                // The segment name is already per-(process, call) unique;
                // reuse its uniqueness for the tmp sibling.
                shard.segments.len()
            );
            fs::write(dir.join(&tmp), &shard.pending)?;
            fs::rename(dir.join(&tmp), dir.join(&name))?;
            let size = shard.pending.len() as u64;
            shard.pending.clear();
            for index_key in std::mem::take(&mut shard.pending_keys) {
                if let Some((_, home)) = shard.index.get_mut(&index_key) {
                    if *home == Home::Pending {
                        *home = Home::Segment(name.clone());
                    }
                }
            }
            shard.segments.push((name, size));
        }
        // Evict oldest segments past the per-shard budget slice, always
        // keeping the newest so one oversized record still caches.
        let budget = self.config.max_bytes / self.shards.len() as u64;
        while shard.segments.len() > 1 && shard.segment_bytes() > budget {
            let (victim, _) = shard.segments.remove(0);
            match fs::remove_file(self.shard_dir(i).join(&victim)) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            let home = Home::Segment(victim);
            let before = shard.index.len();
            shard.index.retain(|_, (_, h)| *h != home);
            let dropped = (before - shard.index.len()) as u64;
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
            cache_metrics().evictions.add(dropped);
        }
        Ok(())
    }

    /// Deletes every entry and segment, returning how many entries were
    /// dropped — the server's `DELETE /v1/cache`.
    ///
    /// # Errors
    ///
    /// The first I/O failure encountered while unlinking segments.
    pub fn clear(&self) -> io::Result<u64> {
        let mut cleared = 0;
        for i in 0..self.shards.len() {
            let mut shard = self.shards[i].lock().expect("shard lock");
            cleared += shard.index.len() as u64;
            shard.index.clear();
            shard.pending.clear();
            shard.pending_keys.clear();
            for (name, _) in std::mem::take(&mut shard.segments) {
                match fs::remove_file(self.shard_dir(i).join(&name)) {
                    Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                    _ => {}
                }
            }
        }
        Ok(cleared)
    }

    /// A point-in-time census. Also refreshes the
    /// `clapton_cache_size_bytes` / `clapton_cache_entries` gauges.
    pub fn stats(&self) -> CacheStoreStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        let mut segments = 0u64;
        for slot in &self.shards {
            let shard = slot.lock().expect("shard lock");
            entries += shard.index.len() as u64;
            bytes += shard.segment_bytes() + shard.pending.len() as u64;
            segments += shard.segments.len() as u64;
        }
        let stats = CacheStoreStats {
            entries,
            bytes,
            segments,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_segments: self.corrupt_segments.load(Ordering::Relaxed),
        };
        let metrics = cache_metrics();
        metrics.size_bytes.set(stats.bytes as f64);
        metrics.entries.set(stats.entries as f64);
        stats
    }

    /// Typed convenience: a JSON value under `(ns, key)`. A stored string
    /// that fails to parse as `T` reads as a miss.
    pub fn get_json<T: serde::de::DeserializeOwned>(&self, ns: u64, key: &[u8]) -> Option<T> {
        self.get(ns, key)
            .and_then(|text| serde_json::from_str(&text).ok())
    }

    /// Typed convenience: stores `value` serialized as compact JSON.
    pub fn put_json<T: Serialize>(&self, ns: u64, key: &[u8], value: &T) {
        let text = serde_json::to_string(value).expect("value serializes");
        self.put(ns, key, &text);
    }
}

impl Drop for CacheStore {
    fn drop(&mut self) {
        // Best-effort durability for buffered records; an explicit flush is
        // the reliable path.
        let _ = self.flush();
    }
}

/// Losses are stored as the 16-hex digits of [`f64::to_bits`] — exact,
/// locale-free, bit-stable round-trips.
impl LossStore for CacheStore {
    fn load(&self, ns: u64, key: &[u8]) -> Option<f64> {
        let text = self.get(ns, key)?;
        u64::from_str_radix(&text, 16).ok().map(f64::from_bits)
    }

    fn save(&self, ns: u64, key: &[u8], loss: f64) {
        self.put(ns, key, &format!("{:016x}", loss.to_bits()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "clapton-cache-{tag}-{}-{}",
            std::process::id(),
            unix_millis()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_placement_is_pinned() {
        // Literal value: segments written by earlier builds must keep their
        // shard.
        assert_eq!(shard_hash(7, b"genome"), 1279918083869523791);
    }

    #[test]
    fn round_trips_and_survives_reopen() {
        let root = scratch("roundtrip");
        let store = CacheStore::open(&root, CacheConfig::default()).unwrap();
        assert_eq!(store.get(7, b"genome"), None);
        store.put(7, b"genome", "value-a");
        assert_eq!(store.get(7, b"genome").as_deref(), Some("value-a"));
        store.save(9, b"loss-key", -1.25);
        store.flush().unwrap();
        drop(store);

        let reopened = CacheStore::open(&root, CacheConfig::default()).unwrap();
        assert_eq!(reopened.get(7, b"genome").as_deref(), Some("value-a"));
        assert_eq!(reopened.load(9, b"loss-key"), Some(-1.25));
        assert_eq!(reopened.get(7, b"other"), None);
        let stats = reopened.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn racing_writers_converge_to_one_bit_identical_entry() {
        // Two store handles over the same root — the multi-process picture —
        // insert the same pure key and flush in both orders.
        let root = scratch("race");
        let a = CacheStore::open(&root, CacheConfig::default()).unwrap();
        let b = CacheStore::open(&root, CacheConfig::default()).unwrap();
        a.save(3, b"shared", 0.5);
        b.save(3, b"shared", 0.5);
        b.flush().unwrap();
        a.flush().unwrap();
        drop(a);
        drop(b);

        let merged = CacheStore::open(&root, CacheConfig::default()).unwrap();
        // Exactly one visible entry, and it reads bit-identically.
        assert_eq!(merged.stats().entries, 1);
        assert_eq!(
            merged.load(3, b"shared").map(f64::to_bits),
            Some(0.5f64.to_bits())
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_segment_is_quarantined_without_failing_lookups() {
        let root = scratch("corrupt");
        let store = CacheStore::open(
            &root,
            CacheConfig {
                shards: 1,
                ..CacheConfig::default()
            },
        )
        .unwrap();
        store.put(1, b"early", "kept-in-seg-1");
        store.flush().unwrap();
        store.put(1, b"victim", "doomed");
        store.flush().unwrap();
        drop(store);

        // Garble the newer segment's payload bytes.
        let shard = root.join("shard-0");
        let mut names: Vec<String> = fs::read_dir(&shard)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names.len(), 2);
        let victim = shard.join(&names[1]);
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0xFF;
        fs::write(&victim, &bytes).unwrap();

        let reopened = CacheStore::open(
            &root,
            CacheConfig {
                shards: 1,
                ..CacheConfig::default()
            },
        )
        .unwrap();
        // The healthy segment still answers; the corrupt one reads as a miss
        // and was renamed aside.
        assert_eq!(reopened.get(1, b"early").as_deref(), Some("kept-in-seg-1"));
        assert_eq!(reopened.get(1, b"victim"), None);
        assert_eq!(reopened.stats().corrupt_segments, 1);
        let quarantined = fs::read_dir(&shard)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().contains(".corrupt-"));
        assert!(quarantined, "corrupt segment renamed aside");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn eviction_respects_the_size_budget() {
        let root = scratch("evict");
        let config = CacheConfig {
            max_bytes: 2048,
            shards: 1,
        };
        let store = CacheStore::open(&root, config).unwrap();
        // Each flush lands one ~600-byte segment; the 2 KiB budget forces
        // the oldest out.
        for i in 0..8u32 {
            let key = format!("key-{i}");
            store.put(11, key.as_bytes(), &"x".repeat(500));
            store.flush().unwrap();
        }
        let stats = store.stats();
        assert!(stats.evictions > 0, "budget forced evictions");
        assert!(
            stats.bytes <= config.max_bytes,
            "{} bytes exceeds the {} budget",
            stats.bytes,
            config.max_bytes
        );
        // Newest entry still cached; the very first was evicted.
        assert!(store.get(11, b"key-7").is_some());
        assert_eq!(store.get(11, b"key-0"), None);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn clear_empties_the_store_on_disk_and_in_memory() {
        let root = scratch("clear");
        let store = CacheStore::open(&root, CacheConfig::default()).unwrap();
        store.put(2, b"a", "1");
        store.put(2, b"b", "2");
        store.flush().unwrap();
        assert_eq!(store.clear().unwrap(), 2);
        assert_eq!(store.get(2, b"a"), None);
        assert_eq!(store.stats().segments, 0);
        let reopened = CacheStore::open(&root, CacheConfig::default()).unwrap();
        assert_eq!(reopened.stats().entries, 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn json_helpers_round_trip_typed_values() {
        let root = scratch("json");
        let store = CacheStore::open(&root, CacheConfig::default()).unwrap();
        store.put_json(5, b"doc", &vec![1u64, 2, 3]);
        assert_eq!(store.get_json::<Vec<u64>>(5, b"doc"), Some(vec![1, 2, 3]));
        assert_eq!(store.get_json::<Vec<u64>>(5, b"missing"), None);
        fs::remove_dir_all(&root).unwrap();
    }
}
