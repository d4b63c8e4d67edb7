//! `clapton-cache`: a persistent content-addressed result store.
//!
//! For jobs it is a report store: the service keeps each terminal report
//! here under its spec identity, so repeated traffic — a resubmitted spec, a
//! second suite run against the same registry, another shard worker —
//! answers from storage instead of recomputing. Its genome → loss interface
//! ([`clapton_eval::LossStore`]) no longer serves any job.
//!
//! # Storage format
//!
//! The store is one [`RunDirectory`] (conventionally `<registry>/.cache`,
//! which [`clapton_runtime::RunRegistry`] skips when listing runs) of
//! append-once *segment* artifacts named `seg-<unix-ms>-<pid>-<seq>.seg`.
//! Each flush writes one segment through [`RunDirectory::write_sealed`] —
//! one integrity envelope around every record buffered since the last
//! flush, each laid out as
//!
//! ```text
//! ns (u64 LE) | key length (u32 LE) | value length (u32 LE) | key bytes | value (UTF-8)
//! ```
//!
//! so the registry's tmp+rename discipline and its `registry.write.*`
//! failpoints cover store flushes too. A reader never observes a partial
//! segment, and racing writer processes each land their own file.
//!
//! On [`CacheStore::open`] every segment is read with
//! [`RunDirectory::load_sealed`] — oldest first, so the lexicographically
//! latest write of a key wins — into an in-memory index. A segment that
//! fails verification or decoding (torn, garbled, or written in an earlier
//! layout) is quarantined by the registry like any corrupt artifact,
//! counted in `clapton_cache_corrupt_segments_total`, and contributes no
//! entries; lookups keep working off the healthy segments. Nothing
//! references a segment, so a lost one only costs recomputation. The
//! `shard-<i>/` subdirectories of an earlier build's store are not read.
//!
//! # Identity and safety
//!
//! Keys are content fingerprints supplied by the caller (spec identities
//! from the service, loss namespaces from `clapton_core::loss_namespace`),
//! and values are pure functions of their key. Racing inserts of the same
//! key are therefore benign: whichever segment sorts last wins, and it wins
//! bit-identically.
//!
//! # Eviction
//!
//! [`CacheConfig::max_bytes`] bounds the store. When a flush pushes it past
//! that budget, its oldest segments are deleted — never the one just
//! written — and their index entries dropped, counted in
//! `clapton_cache_evictions_total`.

use clapton_eval::LossStore;
use clapton_runtime::{Artifact, RunDirectory};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Directory name of the store under a run registry root. Dot-prefixed so
/// `RunRegistry::run_names` never lists it as a run.
pub const CACHE_DIR_NAME: &str = ".cache";

/// Sizing knob for a [`CacheStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// On-disk budget in bytes. A store over it evicts oldest segments
    /// first (the newest segment is always kept, so a single oversized
    /// record still caches).
    pub max_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_bytes: 256 * 1024 * 1024,
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
    /// Segments quarantined at open for failing envelope verification or
    /// record decoding.
    pub corrupt_segments: u64,
}

/// Where an indexed value currently lives.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Home {
    /// Buffered in memory, not yet flushed to a segment.
    Pending,
    /// In the named segment file.
    Segment(String),
}

/// Everything behind the store's one lock.
#[derive(Debug, Default)]
struct State {
    /// `(ns, key)` → (value, home).
    index: HashMap<(u64, Vec<u8>), (String, Home)>,
    /// Encoded records awaiting the next segment flush.
    pending: Vec<u8>,
    pending_keys: Vec<(u64, Vec<u8>)>,
    /// Live segments as `(file name, bytes)`, sorted oldest first.
    segments: Vec<(String, u64)>,
    /// This store's counters since open (see [`CacheStoreStats`]).
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    corrupt_segments: u64,
}

impl State {
    fn segment_bytes(&self) -> u64 {
        self.segments.iter().map(|&(_, b)| b).sum()
    }
}

/// Appends one record to a segment payload in the layout of the crate docs.
fn encode_record(out: &mut Vec<u8>, ns: u64, key: &[u8], value: &str) {
    let len = |n: usize| u32::try_from(n).expect("a record field fits in u32");
    out.extend_from_slice(&ns.to_le_bytes());
    out.extend_from_slice(&len(key.len()).to_le_bytes());
    out.extend_from_slice(&len(value.len()).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value.as_bytes());
}

/// The next `n` bytes of `bytes`, advancing past them.
fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
    let (head, rest) = bytes
        .split_at_checked(n)
        .ok_or("record overruns its segment")?;
    *bytes = rest;
    Ok(head)
}

/// Splits a segment payload into `(ns, key, value)` records; a payload
/// that does not end exactly at a record boundary is rejected whole.
fn decode_segment(mut payload: &[u8]) -> Result<Vec<(u64, Vec<u8>, String)>, String> {
    let mut records = Vec::new();
    while !payload.is_empty() {
        let ns = u64::from_le_bytes(take(&mut payload, 8)?.try_into().expect("8 bytes"));
        let mut len = || -> Result<usize, String> {
            Ok(u32::from_le_bytes(take(&mut payload, 4)?.try_into().expect("4 bytes")) as usize)
        };
        let (key_len, value_len) = (len()?, len()?);
        let key = take(&mut payload, key_len)?.to_vec();
        let value = std::str::from_utf8(take(&mut payload, value_len)?)
            .map_err(|e| format!("record value is not UTF-8: {e}"))?;
        records.push((ns, key, value.to_string()));
    }
    Ok(records)
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
    dir: RunDirectory,
    config: CacheConfig,
    state: Mutex<State>,
}

/// A fresh segment file name: lexicographic order is creation order, and
/// the `(pid, seq)` suffix keeps racing writer processes from colliding.
fn segment_name() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let millis = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    format!(
        "seg-{millis:015}-{:010}-{:06}.seg",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

impl CacheStore {
    /// Opens (creating if needed) the store rooted at `root`, reading every
    /// live segment into the in-memory index, oldest first. Corrupt
    /// segments are quarantined aside and contribute nothing.
    ///
    /// # Errors
    ///
    /// Real I/O failures only; corruption is handled, not an error.
    pub fn open(root: impl AsRef<Path>, config: CacheConfig) -> io::Result<CacheStore> {
        let dir = RunDirectory::create(root.as_ref())?;
        let mut listed: Vec<(String, u64)> = fs::read_dir(dir.path())?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                // Size 0 only when the segment vanished meanwhile, which
                // `load_sealed` then reports as missing.
                (name.starts_with("seg-") && name.ends_with(".seg"))
                    .then(|| (name, e.metadata().map_or(0, |m| m.len())))
            })
            .collect();
        listed.sort();
        let mut state = State::default();
        for (name, bytes) in listed {
            match dir.load_sealed(&name, decode_segment)? {
                // A racing process evicted it between listing and reading.
                Artifact::Missing => {}
                Artifact::Corrupt { .. } => state.corrupt_segments += 1,
                Artifact::Valid(records) => {
                    for (ns, key, value) in records {
                        let home = Home::Segment(name.clone());
                        state.index.insert((ns, key), (value, home));
                    }
                    state.segments.push((name, bytes));
                }
            }
        }
        cache_metrics().corrupt_segments.add(state.corrupt_segments);
        Ok(CacheStore {
            dir,
            config,
            state: Mutex::new(state),
        })
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
        self.dir.path()
    }

    /// Looks up the value stored under `(ns, key)`.
    pub fn get(&self, ns: u64, key: &[u8]) -> Option<String> {
        let mut state = self.state.lock().expect("store lock");
        let found = state
            .index
            .get(&(ns, key.to_vec()))
            .map(|(value, _)| value.clone());
        if found.is_some() {
            state.hits += 1;
            cache_metrics().hits.inc();
        } else {
            state.misses += 1;
            cache_metrics().misses.inc();
        }
        found
    }

    /// Inserts `value` under `(ns, key)`. A key already present is a no-op
    /// (values are pure functions of their key, so a differing value can
    /// only mean a caller bug — the first write wins within a process).
    /// The record is buffered; it reaches disk on the next [`flush`] or
    /// when the store drops.
    ///
    /// [`flush`]: CacheStore::flush
    pub fn put(&self, ns: u64, key: &[u8], value: &str) {
        let mut state = self.state.lock().expect("store lock");
        let index_key = (ns, key.to_vec());
        if state.index.contains_key(&index_key) {
            return;
        }
        encode_record(&mut state.pending, ns, key, value);
        state.pending_keys.push(index_key.clone());
        state
            .index
            .insert(index_key, (value.to_string(), Home::Pending));
        state.inserts += 1;
        cache_metrics().inserts.inc();
    }

    /// Writes every buffered record out as one new segment and applies the
    /// eviction budget. A failed write keeps the records buffered for the
    /// next flush.
    ///
    /// # Errors
    ///
    /// The segment write's or an eviction's I/O failure.
    pub fn flush(&self) -> io::Result<()> {
        let mut guard = self.state.lock().expect("store lock");
        let state = &mut *guard;
        if !state.pending.is_empty() {
            let name = segment_name();
            let bytes = self.dir.write_sealed(&name, &state.pending)?;
            state.pending.clear();
            for index_key in std::mem::take(&mut state.pending_keys) {
                if let Some((_, home)) = state.index.get_mut(&index_key) {
                    if *home == Home::Pending {
                        *home = Home::Segment(name.clone());
                    }
                }
            }
            state.segments.push((name, bytes));
        }
        // Evict oldest segments past the budget, always keeping the newest
        // so one oversized record still caches.
        while state.segments.len() > 1 && state.segment_bytes() > self.config.max_bytes {
            let (victim, _) = state.segments.remove(0);
            self.dir.remove(&victim)?;
            let home = Home::Segment(victim);
            let before = state.index.len();
            state.index.retain(|_, (_, h)| *h != home);
            let dropped = (before - state.index.len()) as u64;
            state.evictions += dropped;
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
        let mut state = self.state.lock().expect("store lock");
        let cleared = state.index.len() as u64;
        state.index.clear();
        state.pending.clear();
        state.pending_keys.clear();
        for (name, _) in std::mem::take(&mut state.segments) {
            self.dir.remove(&name)?;
        }
        Ok(cleared)
    }

    /// A point-in-time census. Also refreshes the
    /// `clapton_cache_size_bytes` / `clapton_cache_entries` gauges.
    pub fn stats(&self) -> CacheStoreStats {
        let state = self.state.lock().expect("store lock");
        let stats = CacheStoreStats {
            entries: state.index.len() as u64,
            bytes: state.segment_bytes(),
            segments: state.segments.len() as u64,
            hits: state.hits,
            misses: state.misses,
            inserts: state.inserts,
            evictions: state.evictions,
            corrupt_segments: state.corrupt_segments,
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

/// Losses are stored as the 16-hex digits of [`f64::to_bits`]. No job writes
/// them; kept only for `clapbench/src/compose.rs`'s loss-store timing.
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
    use clapton_runtime::failpoint;
    use std::path::PathBuf;
    use std::sync::MutexGuard;

    /// A fresh scratch directory, handed out together with the failpoint
    /// gate: hit counters are process-global, so a test flushing segments
    /// without the gate would use up another test's armed hits.
    fn scratch(tag: &str) -> (MutexGuard<'static, ()>, PathBuf) {
        let gate = failpoint::tests_exclusive();
        let dir = std::env::temp_dir().join(format!("clapton-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (gate, dir)
    }

    /// File names in `dir`, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    fn quarantined(dir: &Path) -> usize {
        names(dir)
            .iter()
            .filter(|n| n.contains(".corrupt-"))
            .count()
    }

    #[test]
    fn one_flush_writes_one_segment_directly_under_the_root() {
        let (_gate, root) = scratch("one-dir");
        let store = CacheStore::open(&root, CacheConfig::default()).unwrap();
        let keys: Vec<(u64, String)> = (0..16).map(|ns| (ns, format!("key-{ns}"))).collect();
        for (ns, key) in &keys {
            store.put(*ns, key.as_bytes(), key);
        }
        store.flush().unwrap();
        drop(store);

        // The store's root holds exactly one segment and no subdirectory.
        let listed = names(&root);
        assert_eq!(listed.len(), 1, "{listed:?}");
        assert!(listed[0].starts_with("seg-") && listed[0].ends_with(".seg"));
        assert!(root.join(&listed[0]).is_file());

        let reopened = CacheStore::open(&root, CacheConfig::default()).unwrap();
        for (ns, key) in &keys {
            assert_eq!(reopened.get(*ns, key.as_bytes()).as_deref(), Some(&key[..]));
        }
        let stats = reopened.stats();
        assert_eq!((stats.entries, stats.segments), (keys.len() as u64, 1));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn round_trips_and_survives_reopen() {
        let (_gate, root) = scratch("roundtrip");
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
    fn segment_records_round_trip_through_the_layout() {
        let _gate = failpoint::tests_exclusive();
        let mut payload = Vec::new();
        encode_record(&mut payload, u64::MAX, b"", "");
        encode_record(&mut payload, 3, &[0, 255, 10], "ünïcode");
        assert_eq!(payload.len(), 16 + 16 + 3 + "ünïcode".len());
        assert_eq!(
            decode_segment(&payload).unwrap(),
            vec![
                (u64::MAX, vec![], String::new()),
                (3, vec![0, 255, 10], "ünïcode".to_string())
            ]
        );
        // A payload that stops inside a record is rejected whole.
        assert!(decode_segment(&payload[..payload.len() - 1]).is_err());
        assert!(decode_segment(&payload[..20]).is_err());
    }

    #[test]
    fn racing_writers_converge_to_one_bit_identical_entry() {
        // Two store handles over the same root — the multi-process picture —
        // insert the same pure key and flush in both orders.
        let (_gate, root) = scratch("race");
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
        let (_gate, root) = scratch("corrupt");
        let store = CacheStore::open(&root, CacheConfig::default()).unwrap();
        store.put(1, b"early", "kept-in-seg-1");
        store.flush().unwrap();
        store.put(1, b"victim", "doomed");
        store.flush().unwrap();
        drop(store);

        // Garble the newer segment's payload bytes.
        let segments = names(&root);
        assert_eq!(segments.len(), 2);
        let victim = root.join(&segments[1]);
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0xFF;
        fs::write(&victim, &bytes).unwrap();

        let reopened = CacheStore::open(&root, CacheConfig::default()).unwrap();
        // The healthy segment still answers; the corrupt one reads as a miss
        // and was renamed aside.
        assert_eq!(reopened.get(1, b"early").as_deref(), Some("kept-in-seg-1"));
        assert_eq!(reopened.get(1, b"victim"), None);
        assert_eq!(reopened.stats().corrupt_segments, 1);
        assert_eq!(quarantined(&root), 1, "corrupt segment renamed aside");
        fs::remove_dir_all(&root).unwrap();
    }

    /// A record document as earlier builds wrote it: hex-JSON.
    fn earlier_layout_payload(ns: u64, key: &[u8], value: &str) -> String {
        let key: String = key.iter().map(|b| format!("{b:02x}")).collect();
        format!(r#"{{"ns":"{ns:016x}","key":"{key}","value":"{value}"}}"#)
    }

    /// One record as earlier builds wrote it: its own envelope around the
    /// hex-JSON document, newline-terminated; a segment concatenated them.
    fn earlier_layout_record(ns: u64, key: &[u8], value: &str) -> Vec<u8> {
        let payload = earlier_layout_payload(ns, key, value);
        format!(
            "{{\"clapton\":\"envelope\",\"v\":1,\"len\":{},\"fnv64\":\"{:016x}\"}}\n{payload}\n",
            payload.len(),
            clapton_telemetry::fnv1a64(payload.as_bytes())
        )
        .into_bytes()
    }

    #[test]
    fn earlier_layout_segments_are_quarantined_and_bytes_count_live_segments() {
        let (_gate, root) = scratch("earlier");
        let store = CacheStore::open(&root, CacheConfig::default()).unwrap();
        store.put(4, b"current", "answers");
        store.flush().unwrap();
        drop(store);
        let current = names(&root);
        // Earlier layouts, sorting before today's segment: two concatenated
        // records, one record, and a lone hex-JSON record inside one valid
        // envelope (which only the record decoder can reject).
        let mut two = earlier_layout_record(4, b"old-a", "1");
        two.extend(earlier_layout_record(4, b"old-b", "2"));
        fs::write(root.join("seg-000000000000001-0000000001-000000.seg"), two).unwrap();
        let one = earlier_layout_record(4, b"old-c", "3");
        fs::write(root.join("seg-000000000000001-0000000001-000001.seg"), one).unwrap();
        let lone = earlier_layout_payload(4, b"old-d", "4");
        let dir = RunDirectory::create(&root).unwrap();
        dir.write_sealed("seg-000000000000001-0000000001-000002.seg", lone.as_bytes())
            .unwrap();
        // The sharded layout before the store became one directory: a
        // well-formed segment under `shard-0/`, which is not read.
        let mut sharded = Vec::new();
        encode_record(&mut sharded, 4, b"sharded", "5");
        let shard = RunDirectory::create(root.join("shard-0")).unwrap();
        let sharded_name = "seg-000000000000001-0000000001-000003.seg";
        shard.write_sealed(sharded_name, &sharded).unwrap();

        let reopened = CacheStore::open(&root, CacheConfig::default()).unwrap();
        assert_eq!(reopened.stats().corrupt_segments, 3);
        assert_eq!(quarantined(&root), 3, "earlier layouts renamed aside");
        assert_eq!(reopened.get(4, b"current").as_deref(), Some("answers"));
        for key in [&b"old-a"[..], b"old-b", b"old-c", b"old-d", b"sharded"] {
            assert_eq!(reopened.get(4, key), None);
        }
        assert_eq!(names(shard.path()), [sharded_name], "left in place");
        // `bytes` is the live segment files' size on disk, and an unflushed
        // insert adds an entry but no bytes.
        let on_disk: u64 = current
            .iter()
            .map(|n| fs::metadata(root.join(n)).unwrap().len())
            .sum();
        let stats = reopened.stats();
        assert_eq!(
            (stats.entries, stats.segments, stats.bytes),
            (1, 1, on_disk)
        );
        reopened.put(4, b"buffered", "pending");
        let stats = reopened.stats();
        assert_eq!((stats.entries, stats.bytes), (2, on_disk));
        drop(reopened);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_flush_is_quarantined_at_the_next_open() {
        let (_gate, root) = scratch("torn");
        let store = CacheStore::open(&root, CacheConfig::default()).unwrap();
        store.put(5, b"kept", "whole");
        store.flush().unwrap();
        store.put(5, b"torn", "half");
        failpoint::configure("registry.write.flush=torn@1").unwrap();
        let flushed = store.flush();
        failpoint::clear();
        // A torn write still renames into place; nothing reads it back.
        flushed.unwrap();
        assert_eq!(store.get(5, b"torn").as_deref(), Some("half"));
        drop(store);

        let reopened = CacheStore::open(&root, CacheConfig::default()).unwrap();
        assert_eq!(reopened.stats().corrupt_segments, 1);
        assert_eq!(quarantined(&root), 1);
        assert_eq!(reopened.get(5, b"kept").as_deref(), Some("whole"));
        assert_eq!(reopened.get(5, b"torn"), None, "recomputed, not misread");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn failed_flush_keeps_its_records_for_the_next_flush() {
        let (_gate, root) = scratch("retry");
        let store = CacheStore::open(&root, CacheConfig::default()).unwrap();
        store.put(6, b"a", "1");
        store.put(6, b"b", "2");
        failpoint::configure("registry.write.rename=err@1").unwrap();
        let failed = store.flush();
        failpoint::clear();
        assert!(failed.is_err(), "the injected rename error surfaces");
        let stats = store.stats();
        assert_eq!((stats.entries, stats.segments, stats.bytes), (2, 0, 0));
        store.flush().unwrap();
        assert_eq!(store.stats().segments, 1);
        drop(store);

        let reopened = CacheStore::open(&root, CacheConfig::default()).unwrap();
        assert_eq!(reopened.get(6, b"a").as_deref(), Some("1"));
        assert_eq!(reopened.get(6, b"b").as_deref(), Some("2"));
        let stats = reopened.stats();
        assert_eq!((stats.segments, stats.corrupt_segments), (1, 0));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn eviction_respects_the_size_budget() {
        let (_gate, root) = scratch("evict");
        let config = CacheConfig { max_bytes: 2048 };
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
        let (_gate, root) = scratch("clear");
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
        let (_gate, root) = scratch("json");
        let store = CacheStore::open(&root, CacheConfig::default()).unwrap();
        store.put_json(5, b"doc", &vec![1u64, 2, 3]);
        assert_eq!(store.get_json::<Vec<u64>>(5, b"doc"), Some(vec![1, 2, 3]));
        assert_eq!(store.get_json::<Vec<u64>>(5, b"missing"), None);
        drop(store);
        fs::remove_dir_all(&root).unwrap();
    }
}
