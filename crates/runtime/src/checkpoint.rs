//! Durable run state: atomic JSON artifacts, manifests, and the run
//! registry.
//!
//! A *run directory* holds everything one job produces. The service layer
//! writes the submitted `spec.json` and a `manifest.json` on admission, a
//! `checkpoint.json` every GA round (the previous generation kept as
//! `checkpoint.prev.json`), and a `report.json` when the job finishes. A
//! suite run is a registry of such directories plus a `queue.json` spec
//! list and the merged `suite_manifest.json`. Because every write is
//! tmp-file + rename, a run killed at any instant leaves only complete
//! artifacts: resuming skips finished jobs and continues the rest from
//! their latest round snapshot.
//!
//! # Integrity envelope
//!
//! Rename atomicity alone cannot rule out a *torn* artifact: on a crash the
//! rename may commit while the freshly written data blocks never reach the
//! disk, leaving a complete-looking file with truncated or garbled content.
//! Every JSON artifact is therefore written inside an integrity envelope — a
//! single header line carrying the payload length and FNV-1a 64 checksum,
//! followed by the exact payload bytes:
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
//! to the previous round checkpoint instead of erroring the job. Bare
//! legacy JSON (no header line) is still accepted on read, so registries
//! written before the envelope existed keep resuming.

use crate::failpoint;
use clapton_telemetry::fnv1a64;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Configuration record of a run directory (`manifest.json`), written once
/// when the directory is first prepared.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Job names, in scheduling order.
    pub jobs: Vec<String>,
    /// The base seed every job derives its stream from.
    pub seed: u64,
    /// Free-form configuration descriptor (e.g. `"quick"` / `"paper"`).
    pub profile: String,
}

/// Turns an arbitrary job name into a stable, filesystem-safe artifact stem
/// (alphanumerics kept, everything else folded to `-`).
///
/// ```
/// assert_eq!(clapton_runtime::artifact_slug("ising(J=0.25)"), "ising-J-0.25");
/// ```
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

/// The envelope header line prefix — also the discriminator between
/// enveloped and legacy bare-JSON artifacts (a JSON document whose first
/// bytes spell the header's fixed key order is, by construction, a header).
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
/// payload bytes. Public so other durable formats (e.g. the persistent
/// result cache's segment files) share the exact artifact envelope and its
/// corruption semantics.
pub fn seal_envelope(payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{{\"clapton\":\"envelope\",\"v\":1,\"len\":{},\"fnv64\":\"{:016x}\"}}\n",
        payload.len(),
        fnv1a64(payload)
    );
    let mut sealed = header.into_bytes();
    sealed.extend_from_slice(payload);
    sealed
}

/// Parses one enveloped record at the *start* of `bytes` and returns the
/// verified payload plus the total number of bytes the record occupies
/// (header line + payload) — the scanning primitive for multi-record files
/// such as cache segments, where [`seal_envelope`] outputs are simply
/// concatenated.
///
/// Unlike the whole-file read path, bytes without an envelope header are an
/// error here: a concatenated record stream has no legacy bare-JSON form.
///
/// # Errors
///
/// A human-readable description of the corruption (missing header,
/// truncated payload, checksum mismatch).
pub fn open_envelope_record(bytes: &[u8]) -> Result<(&[u8], usize), String> {
    if !bytes.starts_with(ENVELOPE_MAGIC) {
        return Err("record does not start with an envelope header".to_string());
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
    let payload_start = newline + 1;
    let payload_end = payload_start
        .checked_add(header.len)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| {
            format!(
                "payload is {} bytes, envelope promised {} (torn write)",
                bytes.len() - payload_start,
                header.len
            )
        })?;
    let payload = &bytes[payload_start..payload_end];
    let sum = format!("{:016x}", fnv1a64(payload));
    if sum != header.fnv64 {
        return Err(format!(
            "payload checksum {sum} != enveloped {} (corrupt write)",
            header.fnv64
        ));
    }
    Ok((payload, payload_end))
}

/// Verifies and strips the envelope of a whole-file artifact, returning the
/// payload bytes: the file must be exactly one record. Bytes without a
/// header are legacy bare JSON and pass through unverified.
fn unseal(bytes: &[u8]) -> Result<&[u8], String> {
    if !bytes.starts_with(ENVELOPE_MAGIC) {
        return Ok(bytes);
    }
    let (payload, end) = open_envelope_record(bytes)?;
    if end != bytes.len() {
        return Err(format!(
            "payload is {} bytes, envelope promised {} (torn write)",
            payload.len() + bytes.len() - end,
            payload.len()
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

    /// Serializes `value` to `<root>/<name>` atomically: the JSON is written
    /// to a temporary sibling and renamed into place, so readers (and
    /// resumers after a kill) only ever observe complete documents. The
    /// temporary name embeds the process id and a sequence number, so
    /// concurrent writers of the same artifact (two shard workers racing to
    /// admit a job before either holds its lease) never rename each other's
    /// half-written files away; last rename wins.
    pub fn write_json<T: Serialize + ?Sized>(&self, name: &str, value: &T) -> io::Result<()> {
        let json = serde_json::to_string_pretty(value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut sealed = seal_envelope(json.as_bytes());
        let target = self.root.join(name);
        let tmp = self.root.join(tmp_name(name));
        // `torn` here writes a truncated file that still gets renamed into
        // place — exactly the crash the envelope exists to catch.
        failpoint::check_write("registry.write.flush", &mut sealed)?;
        fs::write(&tmp, &sealed)?;
        failpoint::check("registry.write.rename")?;
        fs::rename(&tmp, &target)
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
    pub fn rotate(&self, name: &str, prev_name: &str) -> io::Result<()> {
        match fs::rename(self.root.join(name), self.root.join(prev_name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Writes raw text to `<root>/<name>` with the same atomic
    /// temporary-then-rename discipline as [`RunDirectory::write_json`]
    /// (used for line-oriented artifacts like `telemetry.jsonl`).
    pub fn write_text(&self, name: &str, text: &str) -> io::Result<()> {
        let target = self.root.join(name);
        let tmp = self.root.join(tmp_name(name));
        fs::write(&tmp, text.as_bytes())?;
        fs::rename(&tmp, &target)
    }

    /// Reads artifact `name`, returning `Ok(None)` when it does not exist
    /// and an `InvalidData` error when it exists but fails envelope
    /// verification or parsing — in which case the corrupt file has been
    /// quarantined (see [`RunDirectory::load`]) so a rewrite can replace it.
    pub fn read_json<T: DeserializeOwned>(&self, name: &str) -> io::Result<Option<T>> {
        match self.load(name)? {
            Artifact::Missing => Ok(None),
            Artifact::Valid(value) => Ok(Some(value)),
            Artifact::Corrupt {
                quarantined_to,
                detail,
            } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{name}: {detail} (quarantined to {quarantined_to})"),
            )),
        }
    }

    /// Reads artifact `name`, distinguishing missing from corrupt. A file
    /// that fails envelope verification or JSON parsing is quarantined —
    /// renamed to `<name>.corrupt-<unix-ms>` so the slot is free to be
    /// rewritten — counted in `clapton_artifacts_corrupt_total`, and
    /// reported as [`Artifact::Corrupt`] rather than an error, so callers
    /// with a fallback (the previous round checkpoint, a fresh start) can
    /// take it.
    ///
    /// # Errors
    ///
    /// Real I/O failures only (permissions, disk); corruption is a value.
    pub fn load<T: DeserializeOwned>(&self, name: &str) -> io::Result<Artifact<T>> {
        let target = self.root.join(name);
        let bytes = match fs::read(&target) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Artifact::Missing),
            Err(e) => return Err(e),
        };
        let detail = match unseal(&bytes) {
            Ok(payload) => match std::str::from_utf8(payload)
                .map_err(|e| format!("payload is not UTF-8: {e}"))
                .and_then(|text| {
                    serde_json::from_str::<T>(text)
                        .map_err(|e| format!("payload does not parse: {e}"))
                }) {
                Ok(value) => return Ok(Artifact::Valid(value)),
                Err(detail) => detail,
            },
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

    /// Writes the run manifest.
    pub fn write_manifest(&self, manifest: &RunManifest) -> io::Result<()> {
        self.write_json("manifest.json", manifest)
    }
}

fn count_corrupt(name: &str) {
    clapton_telemetry::registry()
        .counter_with(
            "clapton_artifacts_corrupt_total",
            "Artifacts that failed integrity verification and were quarantined.",
            &[("artifact", name)],
        )
        .inc();
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
    /// queue-style consumers scan (a job server re-admitting persisted work
    /// after a restart, `suite-runner --list`).
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
        assert_eq!(dir.read_json::<Vec<u64>>("x.json").unwrap(), None);
        dir.write_json("x.json", &vec![1u64, 2, 3]).unwrap();
        assert_eq!(
            dir.read_json::<Vec<u64>>("x.json").unwrap(),
            Some(vec![1, 2, 3])
        );
        dir.write_json("x.json", &vec![9u64]).unwrap();
        assert_eq!(dir.read_json::<Vec<u64>>("x.json").unwrap(), Some(vec![9]));
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
        let err = dir.read_json::<Vec<u64>>("bad.json").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
        // Legacy bare JSON (pre-envelope registries) still reads.
        fs::write(dir.path().join("legacy.json"), b"[7, 8]").unwrap();
        assert_eq!(
            dir.read_json::<Vec<u64>>("legacy.json").unwrap(),
            Some(vec![7, 8])
        );
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
        assert_eq!(dir.read_json::<u64>("ck.json").unwrap(), Some(2));
        assert_eq!(dir.read_json::<u64>("ck.prev.json").unwrap(), Some(1));
        // Corrupting the current generation falls back to the previous one.
        fs::write(dir.path().join("ck.json"), b"torn").unwrap();
        assert!(dir.load::<u64>("ck.json").unwrap().is_corrupt());
        assert_eq!(dir.read_json::<u64>("ck.prev.json").unwrap(), Some(1));
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
        fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn slugs_are_stable_and_safe() {
        assert_eq!(artifact_slug("ising(J=0.25)"), "ising-J-0.25");
        assert_eq!(artifact_slug("H2O(l=1.0)"), "H2O-l-1.0");
        assert_eq!(artifact_slug("a/b\\c d"), "a-b-c-d");
    }
}
