//! Durable run state: atomic JSON artifacts, manifests, and the run
//! registry.
//!
//! A *run directory* holds everything one job produces. The service layer
//! writes the submitted `spec.json` on admission; after every GA round,
//! first that round's memo segment (`memo-NNNNN.seg`, the genome → loss
//! entries the round added, written once and never rewritten), then a
//! small `checkpoint.json` of the engine state without its memo (the
//! previous generation kept as `checkpoint.prev.json`); and a
//! `report.json` when the job finishes. A suite run is a registry of such
//! directories plus a `queue.json` spec list and the merged
//! `suite_manifest.json`. Because every write is tmp-file + rename, a run
//! killed at any instant leaves only complete artifacts: resuming skips
//! finished jobs and continues the rest from their latest round snapshot,
//! its memo replayed from the segments.
//!
//! # Integrity envelope
//!
//! Rename atomicity alone cannot rule out a *torn* artifact: on a crash the
//! rename may commit while the freshly written data blocks never reach the
//! disk, leaving a complete-looking file with truncated or garbled content.
//! Every artifact — JSON ([`RunDirectory::write_json`]) or raw bytes
//! ([`RunDirectory::write_sealed`]) — is therefore written inside an
//! integrity envelope: a single header line carrying the payload length and
//! FNV-1a 64 checksum, followed by the exact payload bytes:
//!
//! ```text
//! {"clapton":"envelope","v":1,"len":123,"fnv64":"a1b2c3d4e5f60718"}
//! { ...payload JSON, byte-exact... }
//! ```
//!
//! Readers verify the envelope before parsing, so they can distinguish
//! *missing* from *corrupt* ([`Artifact`]): corrupt files are quarantined in
//! place (renamed to `<name>.corrupt-<unix-ms>`) and counted in
//! `clapton_artifacts_corrupt_total`, and recovery-aware callers fall back
//! to the previous round checkpoint instead of erroring the job. JSON
//! ([`RunDirectory::load`]) and raw ([`RunDirectory::load_sealed`])
//! artifacts share that one read path, and a file without the header line
//! is corrupt. An artifact written as bare JSON, before the envelope
//! existed, is therefore quarantined on its first read and its job starts
//! cold once, as a checkpoint or store segment of an earlier layout does.

use crate::failpoint;
use clapton_telemetry::fnv1a64;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Configuration record of a run directory (`manifest.json`). No job writes
/// it: service admission records only `spec.json`. Kept only for the
/// benchmark's traced job body (`clapbench/src/compose.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Job names, in scheduling order.
    pub jobs: Vec<String>,
    /// The base seed every job derives its stream from.
    pub seed: u64,
    /// Free-form configuration descriptor (e.g. `"quick"` / `"paper"`).
    pub profile: String,
}

/// A per-writer temporary sibling name for the atomic write of artifact
/// `name`: `<name>.<pid>-<seq>.tmp`. Unique per (process, call) so racing
/// writers each rename their own complete file into place.
fn tmp_name(name: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        "{name}.{}-{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Turns an arbitrary job name into a stable, filesystem-safe artifact stem:
/// ASCII alphanumerics, `.` and `_` are kept, every other run of characters
/// folds to one `-`, and leading or trailing `-` are trimmed.
///
/// ```
/// assert_eq!(clapton_runtime::artifact_slug("ising(J=0.25)"), "ising-J-0.25");
/// assert_eq!(clapton_runtime::artifact_slug("H2_x/y"), "H2_x-y");
/// ```
pub fn artifact_slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '.' || c == '_' {
            out.push(c);
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// The envelope header line prefix (the header's fixed key order).
const ENVELOPE_MAGIC: &[u8] = b"{\"clapton\":\"envelope\"";

#[derive(Deserialize)]
struct EnvelopeHeader {
    #[allow(dead_code)]
    clapton: String,
    v: u64,
    len: usize,
    fnv64: String,
}

/// Wraps `payload` in the integrity envelope: header line, then the exact
/// payload bytes.
fn seal_envelope(payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{{\"clapton\":\"envelope\",\"v\":1,\"len\":{},\"fnv64\":\"{:016x}\"}}\n",
        payload.len(),
        fnv1a64(payload)
    );
    let mut sealed = header.into_bytes();
    sealed.extend_from_slice(payload);
    sealed
}

/// Verifies and strips the envelope of a whole-file artifact, returning the
/// payload bytes: the file must be exactly one enveloped record.
///
/// # Errors
///
/// A human-readable description of the corruption (missing header,
/// truncated or overlong payload, checksum mismatch).
fn unseal(bytes: &[u8]) -> Result<&[u8], String> {
    if !bytes.starts_with(ENVELOPE_MAGIC) {
        return Err("artifact does not start with an envelope header".to_string());
    }
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("envelope header line is unterminated")?;
    let header_text = std::str::from_utf8(&bytes[..newline])
        .map_err(|e| format!("envelope header is not UTF-8: {e}"))?;
    let header: EnvelopeHeader = serde_json::from_str(header_text)
        .map_err(|e| format!("envelope header does not parse: {e}"))?;
    if header.v != 1 {
        return Err(format!("unsupported envelope version {}", header.v));
    }
    let payload = &bytes[newline + 1..];
    if payload.len() != header.len {
        return Err(format!(
            "payload is {} bytes, envelope promised {} (torn write)",
            payload.len(),
            header.len
        ));
    }
    let sum = format!("{:016x}", fnv1a64(payload));
    if sum != header.fnv64 {
        return Err(format!(
            "payload checksum {sum} != enveloped {} (corrupt write)",
            header.fnv64
        ));
    }
    Ok(payload)
}

/// What reading an artifact found: nothing, a verified document, or a
/// corrupt file (which has already been quarantined by the time the caller
/// sees this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Artifact<T> {
    /// The artifact does not exist.
    Missing,
    /// The artifact verified and parsed.
    Valid(T),
    /// The artifact existed but failed envelope verification or JSON
    /// parsing; it has been renamed aside so the name can be rewritten.
    Corrupt {
        /// File name the corrupt bytes were quarantined under.
        quarantined_to: String,
        /// Why verification failed.
        detail: String,
    },
}

impl<T> Artifact<T> {
    /// The document, when the artifact was present and intact.
    pub fn valid(self) -> Option<T> {
        match self {
            Artifact::Valid(value) => Some(value),
            _ => None,
        }
    }

    /// Whether the artifact was present but corrupt.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, Artifact::Corrupt { .. })
    }
}

/// One run's artifact directory with atomic JSON read/write.
#[derive(Debug, Clone)]
pub struct RunDirectory {
    root: PathBuf,
}

impl RunDirectory {
    /// Opens (creating if needed) the run directory at `root`.
    pub fn create(root: impl Into<PathBuf>) -> io::Result<RunDirectory> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(RunDirectory { root })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Whether artifact `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.root.join(name).is_file()
    }

    /// Serializes `value` as compact JSON to `<root>/<name>` atomically: the
    /// JSON is written to a temporary sibling and renamed into place, so
    /// readers (and resumers after a kill) only ever observe complete
    /// documents. Readers take any JSON layout, so pretty documents written
    /// by earlier builds still load. The temporary name embeds the process
    /// id and a sequence number, so concurrent writers of the same artifact
    /// (two shard workers racing to admit a job before either holds its
    /// lease) never rename each other's half-written files away; last rename
    /// wins.
    pub fn write_json<T: Serialize + ?Sized>(&self, name: &str, value: &T) -> io::Result<()> {
        let json = serde_json::to_string(value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.write_sealed(name, json.as_bytes()).map(drop)
    }

    /// Writes raw `payload` bytes to `<root>/<name>` inside the integrity
    /// envelope, atomically — the write path of [`RunDirectory::write_json`]
    /// (same temporary-then-rename discipline, same
    /// `registry.write.flush` / `registry.write.rename` failpoints) for
    /// binary artifacts such as the service's memo segments and the
    /// persistent store's segments. Returns the file's size in bytes. Read
    /// it back with [`RunDirectory::load_sealed`].
    pub fn write_sealed(&self, name: &str, payload: &[u8]) -> io::Result<u64> {
        let mut sealed = seal_envelope(payload);
        // `torn` here writes a truncated file that still gets renamed into
        // place — exactly the crash the envelope exists to catch.
        failpoint::check_write("registry.write.flush", &mut sealed)?;
        self.replace(name, &sealed, || failpoint::check("registry.write.rename"))?;
        Ok(sealed.len() as u64)
    }

    /// Writes `bytes` to a fresh temporary sibling of `name`, runs
    /// `before_rename`, and renames the temporary into place. When a step
    /// fails, the temporary is unlinked before the error returns (the
    /// unlink's own error is ignored), so a failed write leaves no `*.tmp`
    /// behind; only a writer killed mid-write does.
    fn replace(
        &self,
        name: &str,
        bytes: &[u8],
        before_rename: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<()> {
        let tmp = self.root.join(tmp_name(name));
        let written = fs::write(&tmp, bytes)
            .and_then(|()| before_rename())
            .and_then(|()| fs::rename(&tmp, self.root.join(name)));
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        written
    }

    /// Atomically replaces `name` while keeping the outgoing generation as
    /// `prev_name`: the current file (if any) is renamed to `prev_name`,
    /// then the new document is written under `name`. A crash between the
    /// two steps leaves `prev_name` valid — the reader loses at most the
    /// one round being written, never the run.
    pub fn write_json_rotating<T: Serialize + ?Sized>(
        &self,
        name: &str,
        prev_name: &str,
        value: &T,
    ) -> io::Result<()> {
        self.rotate(name, prev_name)?;
        self.write_json(name, value)
    }

    /// Renames artifact `name` to `prev_name` if it exists (replacing any
    /// previous `prev_name`); a no-op when `name` is absent.
    ///
    /// The old `prev_name` is deleted before the rename rather than renamed
    /// over: on ext4 a rename that replaces a file starts writeback of the
    /// renamed file's data, which added 0.1–0.5 ms to every round
    /// checkpoint from round 4 on (2-vCPU ext4 host). At every instant one
    /// of the two generations exists.
    pub fn rotate(&self, name: &str, prev_name: &str) -> io::Result<()> {
        if self.exists(name) {
            self.remove(prev_name)?;
        }
        match fs::rename(self.root.join(name), self.root.join(prev_name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Writes raw text to `<root>/<name>` with the same atomic
    /// temporary-then-rename discipline as [`RunDirectory::write_json`]
    /// (used for line-oriented artifacts like `telemetry.jsonl`).
    pub fn write_text(&self, name: &str, text: &str) -> io::Result<()> {
        self.replace(name, text.as_bytes(), || Ok(()))
    }

    /// Reads the JSON artifact `name` ([`RunDirectory::write_json`]): the
    /// [`RunDirectory::load_sealed`] read path with a JSON decoder.
    ///
    /// # Errors
    ///
    /// Real I/O failures only (permissions, disk); corruption is a value.
    pub fn load<T: DeserializeOwned>(&self, name: &str) -> io::Result<Artifact<T>> {
        self.load_sealed(name, |payload| {
            let text =
                std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
            serde_json::from_str::<T>(text).map_err(|e| format!("payload does not parse: {e}"))
        })
    }

    /// Reads artifact `name`, distinguishing missing from corrupt, and hands
    /// its verified payload to `decode`. A file that fails envelope
    /// verification or `decode` is quarantined — renamed to
    /// `<name>.corrupt-<unix-ms>` so the slot is free to be rewritten —
    /// counted in `clapton_artifacts_corrupt_total`, and reported as
    /// [`Artifact::Corrupt`] rather than an error, so callers with a
    /// fallback (the previous round checkpoint, a fresh start) can take it.
    ///
    /// # Errors
    ///
    /// Real I/O failures only (permissions, disk); corruption is a value.
    pub fn load_sealed<T>(
        &self,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> io::Result<Artifact<T>> {
        let bytes = match fs::read(self.root.join(name)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Artifact::Missing),
            Err(e) => return Err(e),
        };
        let detail = match unseal(&bytes).and_then(decode) {
            Ok(value) => return Ok(Artifact::Valid(value)),
            Err(detail) => detail,
        };
        let quarantined_to = self.quarantine(name)?;
        count_corrupt(name);
        Ok(Artifact::Corrupt {
            quarantined_to,
            detail,
        })
    }

    /// Renames artifact `name` aside as `<name>.corrupt-<unix-ms>` and
    /// returns the quarantine file name. If the file vanished in the
    /// meantime (a racing writer already replaced it), the nominal
    /// quarantine name is still returned.
    fn quarantine(&self, name: &str) -> io::Result<String> {
        let millis = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let quarantined = format!("{name}.corrupt-{millis}");
        match fs::rename(self.root.join(name), self.root.join(&quarantined)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(quarantined),
        }
    }

    /// Deletes artifact `name` if present.
    pub fn remove(&self, name: &str) -> io::Result<()> {
        match fs::remove_file(self.root.join(name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Writes the run manifest. No job calls it; kept only for
    /// `clapbench/src/compose.rs`.
    pub fn write_manifest(&self, manifest: &RunManifest) -> io::Result<()> {
        self.write_json("manifest.json", manifest)
    }
}

fn count_corrupt(name: &str) {
    clapton_telemetry::registry()
        .counter_with(
            "clapton_artifacts_corrupt_total",
            "Artifacts that failed integrity verification and were quarantined.",
            &[("artifact", &artifact_label(name))],
        )
        .inc();
}

/// The `artifact` label of `clapton_artifacts_corrupt_total`: `name` with
/// every run of ASCII digits folded to `N` (`memo-N.seg`, `job-N.json`,
/// `seg-N-N-N.seg`), so numbered artifacts share one series per kind
/// instead of minting one per file.
fn artifact_label(name: &str) -> String {
    let mut label = String::with_capacity(name.len());
    let mut in_digits = false;
    for c in name.chars() {
        if !c.is_ascii_digit() {
            label.push(c);
        } else if !in_digits {
            label.push('N');
        }
        in_digits = c.is_ascii_digit();
    }
    label
}

/// A root directory containing one subdirectory per run — the registry the
/// `suite-runner` CLI lists and resumes from.
#[derive(Debug, Clone)]
pub struct RunRegistry {
    root: PathBuf,
}

impl RunRegistry {
    /// Opens (creating if needed) a registry rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<RunRegistry> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(RunRegistry { root })
    }

    /// The registry root.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Opens (creating if needed) the run directory for `run_name`.
    pub fn run(&self, run_name: &str) -> io::Result<RunDirectory> {
        RunDirectory::create(self.root.join(run_name))
    }

    /// Every run directory under the registry, sorted by name — the listing
    /// `suite-runner --list` prints.
    ///
    /// Dot-prefixed directories are reserved for registry-internal state
    /// (e.g. the `.cache` persistent result store) and never listed as runs.
    pub fn run_names(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.file_type()?.is_dir() && !name.starts_with('.') {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// A fresh scratch directory, handed out together with the failpoint
    /// gate. Failpoint hit counters are process-global, so a test writing
    /// artifacts without the gate would use up another test's armed hits or
    /// receive its injected faults.
    fn scratch(tag: &str) -> (MutexGuard<'static, ()>, PathBuf) {
        let gate = failpoint::tests_exclusive();
        let dir =
            std::env::temp_dir().join(format!("clapton-runtime-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (gate, dir)
    }

    #[test]
    fn artifacts_round_trip_and_overwrite_atomically() {
        let (_gate, root) = scratch("rt");
        let dir = RunDirectory::create(root).unwrap();
        let read = |name| dir.load::<Vec<u64>>(name).unwrap();
        assert_eq!(read("x.json"), Artifact::Missing);
        dir.write_json("x.json", &vec![1u64, 2, 3]).unwrap();
        assert_eq!(read("x.json").valid(), Some(vec![1, 2, 3]));
        dir.write_json("x.json", &vec![9u64]).unwrap();
        assert_eq!(read("x.json").valid(), Some(vec![9]));
        // Compact on disk, while a pretty document from an earlier build
        // still loads.
        let on_disk = fs::read_to_string(dir.path().join("x.json")).unwrap();
        assert!(on_disk.ends_with("}\n[9]"), "{on_disk:?}");
        dir.write_sealed("x.json", b"[\n  4,\n  5\n]").unwrap();
        assert_eq!(read("x.json").valid(), Some(vec![4, 5]));
        let leftover_tmp = fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(!leftover_tmp, "tmp files renamed away");
        dir.remove("x.json").unwrap();
        dir.remove("x.json").unwrap(); // idempotent
        assert!(!dir.exists("x.json"));
        fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn corrupt_artifacts_error_instead_of_vanishing() {
        let (_gate, root) = scratch("corrupt");
        let dir = RunDirectory::create(root).unwrap();
        fs::write(dir.path().join("bad.json"), b"{not json").unwrap();
        let loaded = dir.load::<Vec<u64>>("bad.json").unwrap();
        assert!(loaded.is_corrupt(), "{loaded:?}");
        // The corrupt bytes were quarantined aside, freeing the slot.
        assert!(!dir.exists("bad.json"));
        let quarantined = fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("bad.json.corrupt-")
            });
        assert!(quarantined.is_some(), "corrupt file renamed aside");
        fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn envelope_catches_torn_and_garbled_writes() {
        let (_gate, root) = scratch("envelope");
        let dir = RunDirectory::create(root).unwrap();
        dir.write_json("doc.json", &vec![1u64, 2, 3]).unwrap();
        // On disk: header line + payload.
        let bytes = fs::read(dir.path().join("doc.json")).unwrap();
        assert!(bytes.starts_with(ENVELOPE_MAGIC));
        assert_eq!(
            dir.load::<Vec<u64>>("doc.json").unwrap(),
            Artifact::Valid(vec![1, 2, 3])
        );
        // Torn write: rename committed, tail of the payload lost.
        fs::write(dir.path().join("doc.json"), &bytes[..bytes.len() - 4]).unwrap();
        let loaded = dir.load::<Vec<u64>>("doc.json").unwrap();
        assert!(loaded.is_corrupt(), "truncation detected: {loaded:?}");
        assert!(!dir.exists("doc.json"), "torn file quarantined");
        // Garbled payload of the *same* length: caught by the checksum.
        dir.write_json("doc.json", &vec![1u64, 2, 3]).unwrap();
        let mut garbled = fs::read(dir.path().join("doc.json")).unwrap();
        let last = garbled.len() - 1;
        garbled[last] ^= 0x01;
        fs::write(dir.path().join("doc.json"), &garbled).unwrap();
        assert!(dir.load::<Vec<u64>>("doc.json").unwrap().is_corrupt());
        // Missing stays distinguishable from corrupt.
        assert_eq!(dir.load::<Vec<u64>>("doc.json").unwrap(), Artifact::Missing);
        // Bare JSON without the envelope (an artifact written before the
        // envelope existed) is corrupt too, and quarantined.
        fs::write(dir.path().join("bare.json"), b"[7, 8]").unwrap();
        let bare = dir.load::<Vec<u64>>("bare.json").unwrap();
        assert!(
            matches!(bare, Artifact::Corrupt { ref quarantined_to, .. }
                if quarantined_to.starts_with("bare.json.corrupt-")),
            "{bare:?}"
        );
        assert!(!dir.exists("bare.json"), "bare file quarantined");
        fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn sealed_raw_artifacts_round_trip_and_quarantine_corruption() {
        let (_gate, root) = scratch("sealed");
        let dir = RunDirectory::create(root).unwrap();
        let raw = |p: &[u8]| Ok(p.to_vec());
        let payload: Vec<u8> = (0..=255u8).chain([b'\n', 0]).collect();
        assert_eq!(dir.load_sealed("seg", raw).unwrap(), Artifact::Missing);
        let written = dir.write_sealed("seg", &payload).unwrap();
        let on_disk = fs::read(dir.path().join("seg")).unwrap();
        assert_eq!(on_disk, seal_envelope(&payload), "the artifact envelope");
        assert_eq!(written, on_disk.len() as u64, "the returned file size");
        assert_eq!(
            dir.load_sealed("seg", raw).unwrap(),
            Artifact::Valid(payload.clone())
        );
        // Torn: the tail is lost, the length check catches it.
        fs::write(dir.path().join("seg"), &on_disk[..on_disk.len() - 3]).unwrap();
        assert!(dir.load_sealed("seg", raw).unwrap().is_corrupt());
        assert!(!dir.exists("seg"), "torn file quarantined");
        // Torn inside the header line itself.
        fs::write(dir.path().join("seg"), &on_disk[..10]).unwrap();
        assert!(dir.load_sealed("seg", raw).unwrap().is_corrupt());
        // Garbled, same length: the checksum catches it.
        let mut garbled = on_disk.clone();
        let last = garbled.len() - 1;
        garbled[last] ^= 0x01;
        fs::write(dir.path().join("seg"), &garbled).unwrap();
        assert!(dir.load_sealed("seg", raw).unwrap().is_corrupt());
        // A payload the decoder rejects is corrupt too.
        dir.write_sealed("seg", &payload).unwrap();
        let rejected = dir
            .load_sealed("seg", |_| Err::<(), _>("bad layout".to_string()))
            .unwrap();
        assert!(matches!(rejected, Artifact::Corrupt { ref detail, .. } if detail == "bad layout"));
        let quarantined = fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("seg.corrupt-"))
            .count();
        assert!(quarantined >= 1, "corrupt files renamed aside");
        assert_eq!(dir.load_sealed("seg", raw).unwrap(), Artifact::Missing);
        fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn envelope_checksum_is_pinned() {
        // Literal value: artifacts sealed by earlier builds must keep
        // verifying.
        let sealed = seal_envelope(b"[7, 8]");
        assert_eq!(
            std::str::from_utf8(&sealed).unwrap(),
            "{\"clapton\":\"envelope\",\"v\":1,\"len\":6,\"fnv64\":\"e406c8ec243cb104\"}\n[7, 8]"
        );
    }

    #[test]
    fn rotation_keeps_the_previous_generation() {
        let (_gate, root) = scratch("rotate");
        let dir = RunDirectory::create(root).unwrap();
        // First write: nothing to rotate.
        dir.write_json_rotating("ck.json", "ck.prev.json", &1u64)
            .unwrap();
        assert!(!dir.exists("ck.prev.json"));
        dir.write_json_rotating("ck.json", "ck.prev.json", &2u64)
            .unwrap();
        let read = |name| dir.load::<u64>(name).unwrap().valid();
        assert_eq!(read("ck.json"), Some(2));
        assert_eq!(read("ck.prev.json"), Some(1));
        // Corrupting the current generation falls back to the previous one.
        fs::write(dir.path().join("ck.json"), b"torn").unwrap();
        assert!(dir.load::<u64>("ck.json").unwrap().is_corrupt());
        assert_eq!(read("ck.prev.json"), Some(1));
        fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn write_failpoints_inject_real_corruption() {
        let (_gate, root) = scratch("failpoint");
        let dir = RunDirectory::create(root).unwrap();
        failpoint::configure("registry.write.flush=torn:20@2").unwrap();
        dir.write_json("a.json", &vec![1u64; 32]).unwrap(); // hit 1: clean
        dir.write_json("b.json", &vec![2u64; 32]).unwrap(); // hit 2: torn
        failpoint::clear();
        assert_eq!(
            dir.load::<Vec<u64>>("a.json").unwrap(),
            Artifact::Valid(vec![1; 32])
        );
        assert!(dir.load::<Vec<u64>>("b.json").unwrap().is_corrupt());
        failpoint::configure("registry.write.rename=err@1").unwrap();
        let err = dir.write_json("c.json", &3u64).unwrap_err();
        failpoint::clear();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(!dir.exists("c.json"), "failed rename leaves no target");
        let leftovers: Vec<_> = fs::read_dir(dir.path())
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .filter(|name| name.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "failed write left {leftovers:?}");
        fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn corrupt_artifact_labels_fold_digit_runs() {
        assert_eq!(artifact_label("memo-00012.seg"), "memo-N.seg");
        assert_eq!(artifact_label("job-000001.json"), "job-N.json");
        assert_eq!(
            artifact_label("seg-001760000000000-0000012345-000007.seg"),
            "seg-N-N-N.seg"
        );
        assert_eq!(artifact_label("report.json"), "report.json");
        assert_eq!(artifact_label("N7"), "NN");
    }

    #[test]
    fn slugs_are_stable_and_safe() {
        assert_eq!(artifact_slug("ising(J=0.25)"), "ising-J-0.25");
        assert_eq!(artifact_slug("H2O(l=1.0)"), "H2O-l-1.0");
        assert_eq!(artifact_slug("a/b\\c d"), "a-b-c-d");
    }
}
