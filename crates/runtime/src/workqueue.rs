//! The shared, crash-tolerant work queue over the run registry.
//!
//! Multiple worker *processes* (on one host or many, over a shared
//! filesystem) cooperate on one [`RunRegistry`](crate::RunRegistry) by
//! leasing per-job artifact directories. The directory is the unit of
//! ownership; ownership is a `claim.json` lease file inside it:
//!
//! * **Claim** — the claimant serializes a [`LeaseClaim`] to a temporary
//!   sibling and `hard_link`s it to `claim.json`. Link creation is atomic
//!   and fails with `AlreadyExists` when a claim is present, so exactly one
//!   of N racing claimants wins (plain rename would silently overwrite).
//! * **Heartbeat** — the owner periodically opens the claim (without
//!   create, so a stolen claim is detected as `NotFound`), checks that it
//!   still names the owner, and sets the file's mtime to now. The claim's
//!   bytes are written once, by the link, so an observer never reads a
//!   partial claim. Liveness is judged from mtime age.
//! * **Expiry / steal** — a claim whose mtime is older than the lease TTL
//!   belongs to a dead owner. A stealer renames `claim.json` to a private
//!   temporary name — rename succeeds for exactly one of N racing stealers,
//!   the rest observe `NotFound` and retry — then claims normally. The new
//!   owner resumes the job from its last round checkpoint; because round
//!   checkpoints are deterministic and byte-identical (PR 2/PR 5), even the
//!   pathological "presumed-dead owner was merely slow" race only ever
//!   produces identical artifact bytes.
//! * **Release** — the owner removes `claim.json` (after verifying it still
//!   owns it). A released lease is immediately reclaimable by anyone.
//!
//! TTL tuning: heartbeats run every `TTL / 4` (floor 25 ms), so a TTL must
//! comfortably exceed worst-case heartbeat jitter on the shared filesystem.
//! The 30 s default suits NFS-backed multi-host queues; single-host CI can
//! drop to ~2 s for fast takeover tests.

use crate::checkpoint::artifact_slug;
use clapton_telemetry::metrics::registry;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// File name of the lease inside a leased job directory.
pub const CLAIM_ARTIFACT: &str = "claim.json";

/// Default lease TTL — generous enough for NFS mtime propagation; override
/// per queue for fast-takeover tests.
pub const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(30);

/// How many claim/steal rounds to attempt before conservatively reporting
/// the lease as held (each round loses only to another live claimant, so in
/// practice one or two rounds settle it).
const CLAIM_ATTEMPTS: usize = 8;

/// The serialized body of a `claim.json` lease file.
///
/// The *content* identifies the owner; *liveness* is carried by the file's
/// mtime, refreshed on every heartbeat.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseClaim {
    /// Owner identity (unique per worker process).
    pub owner: String,
    /// Wall-clock milliseconds when the lease was acquired.
    pub acquired_unix_ms: u64,
}

/// Read-only view of a job directory's lease, as seen by an observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseState {
    /// Owner recorded in the claim (`"<unreadable>"` for a claim that does
    /// not parse).
    pub owner: String,
    /// Age of the last heartbeat (mtime), on the observer's clock.
    pub heartbeat_age: Duration,
    /// Whether the age exceeds the observer's TTL — i.e. the lease is
    /// stealable.
    pub stale: bool,
}

/// Outcome of a claim attempt.
#[derive(Debug)]
pub enum ClaimOutcome {
    /// The lease was acquired (fresh, re-entrant, or via stale takeover).
    Acquired(Lease),
    /// A live owner holds the lease; `heartbeat_age` says how recently it
    /// proved liveness.
    Held {
        /// The current owner.
        owner: String,
        /// Age of the owner's last heartbeat.
        heartbeat_age: Duration,
    },
}

fn count_claim(owner: &str) {
    registry()
        .counter_with(
            "clapton_workqueue_claims_total",
            "Job-directory leases acquired, by worker",
            &[("worker", owner)],
        )
        .inc();
}

fn count_steal(owner: &str) {
    registry()
        .counter_with(
            "clapton_workqueue_steals_total",
            "Stale leases taken over from dead owners, by stealing worker",
            &[("worker", owner)],
        )
        .inc();
}

fn count_expired(owner: &str) {
    registry()
        .counter_with(
            "clapton_workqueue_expired_total",
            "Leases observed past their TTL, by observing worker",
            &[("worker", owner)],
        )
        .inc();
}

fn count_released(owner: &str) {
    registry()
        .counter_with(
            "clapton_workqueue_released_total",
            "Leases released cleanly, by worker",
            &[("worker", owner)],
        )
        .inc();
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis() as u64
}

/// A stable identity for this worker process: `w<pid>-<hex nanos at first
/// use>`. Pid alone is ambiguous across hosts sharing one queue directory;
/// the timestamp component disambiguates without requiring configuration.
pub fn default_worker_id() -> &'static str {
    static ID: OnceLock<String> = OnceLock::new();
    ID.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos() as u64;
        format!("w{}-{:x}", std::process::id(), nanos & 0xffff_ffff)
    })
}

/// Reads the claim beside `claim_path`, returning the parsed body (or a
/// placeholder for a claim that does not parse) plus its mtime age.
fn read_claim(claim_path: &Path) -> io::Result<Option<(LeaseClaim, Duration)>> {
    let meta = match fs::metadata(claim_path) {
        Ok(meta) => meta,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let age = meta
        .modified()
        .ok()
        .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
        .unwrap_or(Duration::ZERO);
    let text = match fs::read_to_string(claim_path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let claim = serde_json::from_str(&text).unwrap_or(LeaseClaim {
        owner: "<unreadable>".to_string(),
        acquired_unix_ms: 0,
    });
    Ok(Some((claim, age)))
}

/// Writes a fresh claim to a private temporary sibling and tries to
/// `hard_link` it into place. Returns `Ok(None)` when another claim already
/// exists (lost the race).
fn attempt_link(dir: &Path, claim_path: &Path, owner: &str) -> io::Result<Option<Lease>> {
    let claim = LeaseClaim {
        owner: owner.to_string(),
        acquired_unix_ms: now_unix_ms(),
    };
    let json = serde_json::to_string(&claim)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let tmp = dir.join(format!("{CLAIM_ARTIFACT}.{}.tmp", artifact_slug(owner)));
    fs::write(&tmp, json.as_bytes())?;
    crate::failpoint::check("workqueue.claim.hardlink").inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })?;
    let linked = fs::hard_link(&tmp, claim_path);
    let _ = fs::remove_file(&tmp);
    match linked {
        Ok(()) => Ok(Some(Lease {
            dir: dir.to_path_buf(),
            owner: owner.to_string(),
        })),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(None),
        Err(e) => Err(e),
    }
}

/// Observes the lease on job directory `dir` without touching it: `None`
/// when unleased, otherwise the owner, heartbeat age, and whether `ttl`
/// judges it stale.
pub fn lease_state(dir: &Path, ttl: Duration) -> io::Result<Option<LeaseState>> {
    Ok(
        read_claim(&dir.join(CLAIM_ARTIFACT))?.map(|(claim, age)| LeaseState {
            owner: claim.owner,
            heartbeat_age: age,
            stale: age > ttl,
        }),
    )
}

/// Tries to lease job directory `dir` for `owner`.
///
/// Exactly one of N racing distinct owners acquires; a claim already held
/// by `owner` itself is re-entrant (layers of one process share the lease);
/// a claim whose heartbeat is older than `ttl` is taken over.
pub fn acquire(dir: &Path, owner: &str, ttl: Duration) -> io::Result<ClaimOutcome> {
    let claim_path = dir.join(CLAIM_ARTIFACT);
    let mut last_seen: Option<(String, Duration)> = None;
    for _ in 0..CLAIM_ATTEMPTS {
        match read_claim(&claim_path)? {
            None => {
                if let Some(lease) = attempt_link(dir, &claim_path, owner)? {
                    count_claim(owner);
                    return Ok(ClaimOutcome::Acquired(lease));
                }
                // Lost the creation race; re-read to see who won.
            }
            Some((claim, _)) if claim.owner == owner => {
                // Re-entrant: adopt the existing claim and refresh its mtime.
                let lease = Lease {
                    dir: dir.to_path_buf(),
                    owner: owner.to_string(),
                };
                lease.heartbeat()?;
                return Ok(ClaimOutcome::Acquired(lease));
            }
            Some((_claim, age)) if age > ttl => {
                count_expired(owner);
                // Rename-away: exactly one of N racing stealers wins.
                let stale_tmp = dir.join(format!(
                    "{CLAIM_ARTIFACT}.stale.{}.tmp",
                    artifact_slug(owner)
                ));
                match fs::rename(&claim_path, &stale_tmp) {
                    Ok(()) => {
                        let _ = fs::remove_file(&stale_tmp);
                        count_steal(owner);
                        // Claim the now-vacant slot on the next iteration.
                    }
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {
                        // Another stealer (or a release) got there first.
                    }
                    Err(e) => return Err(e),
                }
            }
            Some((claim, age)) => {
                return Ok(ClaimOutcome::Held {
                    owner: claim.owner,
                    heartbeat_age: age,
                });
            }
        }
        if let Some((claim, age)) = read_claim(&claim_path)? {
            last_seen = Some((claim.owner, age));
        }
    }
    // Every attempt lost a race to some *live* claimant — report held.
    let (owner, heartbeat_age) =
        last_seen.unwrap_or_else(|| ("<contended>".to_string(), Duration::ZERO));
    Ok(ClaimOutcome::Held {
        owner,
        heartbeat_age,
    })
}

/// An acquired lease on one job directory.
///
/// Dropping a `Lease` does **not** release it (the owner may legitimately
/// outlive the handle, e.g. across a keeper thread handoff); call
/// [`Lease::release`] — or hold it in a [`LeaseKeeper`], whose drop
/// releases.
#[derive(Debug)]
pub struct Lease {
    dir: PathBuf,
    owner: String,
}

impl Lease {
    /// The leased job directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The owner identity this lease was acquired with.
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// Refreshes the claim's mtime, leaving its bytes as the claim wrote
    /// them.
    ///
    /// Returns `Ok(false)` — without touching anything — when the lease has
    /// been stolen (claim gone or owned by someone else): the caller no
    /// longer owns the directory and must stop writing checkpoints into it.
    pub fn heartbeat(&self) -> io::Result<bool> {
        // An injected error here stands the owner down (`LeaseKeeper` maps
        // heartbeat errors to a lost lease), modeling a stalled worker whose
        // lease expires under it.
        crate::failpoint::check("workqueue.heartbeat")?;
        let claim_path = self.dir.join(CLAIM_ARTIFACT);
        // Open without `create`: a stolen-and-removed claim surfaces as
        // NotFound instead of silently resurrecting under our ownership. A
        // thief renames the claim away before claiming, so a stale owner
        // holding the old file only ever touches the orphan.
        let mut file = match fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&claim_path)
        {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        match serde_json::from_str::<LeaseClaim>(&text) {
            Ok(claim) if claim.owner == self.owner => {}
            // Stolen: a different owner, or a claim that no longer parses —
            // either way the slot is no longer provably ours.
            _ => return Ok(false),
        }
        file.set_modified(SystemTime::now())?;
        Ok(true)
    }

    /// Removes the claim if this lease still owns it. Idempotent: releasing
    /// a lease that was stolen (and possibly re-claimed by someone else)
    /// leaves the thief's claim untouched.
    pub fn release(self) -> io::Result<()> {
        let claim_path = self.dir.join(CLAIM_ARTIFACT);
        match read_claim(&claim_path)? {
            Some((claim, _)) if claim.owner == self.owner => {
                fs::remove_file(&claim_path)?;
                count_released(&self.owner);
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// Background heartbeat thread keeping a [`Lease`] alive while its owner
/// does long-running work.
///
/// Heartbeats run every `interval` (clamped to ≥ 25 ms). If a heartbeat
/// discovers the lease stolen, [`LeaseKeeper::lost`] flips to `true` and
/// heartbeating stops — long-running owners should poll it at checkpoint
/// boundaries and stand down. Dropping the keeper wakes and stops the
/// thread at once (it parks between beats, so stopping does not wait for
/// the next one) and releases the lease (best effort).
#[derive(Debug)]
pub struct LeaseKeeper {
    lost: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Lease>>,
}

impl LeaseKeeper {
    /// Starts heartbeating `lease` every `interval`.
    pub fn spawn(lease: Lease, interval: Duration) -> LeaseKeeper {
        let interval = interval.max(Duration::from_millis(25));
        let lost = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let lost = Arc::clone(&lost);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Parks until the next beat is due; `shutdown` unparks, so
                // stopping never waits out an interval. Parking may also
                // return spuriously, hence the deadline check.
                let mut next_beat = Instant::now() + interval;
                while !stop.load(Ordering::Acquire) {
                    let now = Instant::now();
                    if now < next_beat {
                        std::thread::park_timeout(next_beat - now);
                        continue;
                    }
                    next_beat = now + interval;
                    match lease.heartbeat() {
                        Ok(true) => {}
                        Ok(false) | Err(_) => {
                            lost.store(true, Ordering::Release);
                            break;
                        }
                    }
                }
                lease
            })
        };
        LeaseKeeper {
            lost,
            stop,
            thread: Some(thread),
        }
    }

    /// Whether a heartbeat discovered the lease stolen out from under us.
    pub fn lost(&self) -> bool {
        self.lost.load(Ordering::Acquire)
    }

    /// Stops heartbeating and releases the lease (no-op if it was lost).
    pub fn release(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            if let Ok(lease) = thread.join() {
                if !self.lost() {
                    lease.release()?;
                }
            }
        }
        Ok(())
    }
}

impl Drop for LeaseKeeper {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Publishes the number of unfinished jobs a queue sweep observed to the
/// `clapton_workqueue_depth` gauge.
pub fn publish_queue_depth(open_jobs: usize) {
    registry()
        .gauge(
            "clapton_workqueue_depth",
            "Unfinished jobs observed in the shared work queue at the last scan",
        )
        .set(open_jobs as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "clapton-workqueue-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn claim_is_exclusive_and_reentrant() {
        let dir = scratch("excl");
        let ttl = Duration::from_secs(60);
        let first = acquire(&dir, "alpha", ttl).unwrap();
        let ClaimOutcome::Acquired(lease) = first else {
            panic!("first claim must win");
        };
        match acquire(&dir, "beta", ttl).unwrap() {
            ClaimOutcome::Held { owner, .. } => assert_eq!(owner, "alpha"),
            ClaimOutcome::Acquired(_) => panic!("beta must not co-own"),
        }
        // Same owner re-enters.
        let ClaimOutcome::Acquired(again) = acquire(&dir, "alpha", ttl).unwrap() else {
            panic!("alpha re-claims its own lease");
        };
        drop(again);
        lease.release().unwrap();
        // Released → immediately reclaimable by anyone.
        let ClaimOutcome::Acquired(stolen) = acquire(&dir, "beta", ttl).unwrap() else {
            panic!("released lease must be reclaimable");
        };
        stolen.release().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lease_is_taken_over() {
        let dir = scratch("stale");
        let ttl = Duration::from_millis(80);
        let ClaimOutcome::Acquired(dead) = acquire(&dir, "dead-worker", ttl).unwrap() else {
            panic!("claim");
        };
        // No heartbeats: let the claim age past the TTL, then steal.
        std::thread::sleep(Duration::from_millis(160));
        let ClaimOutcome::Acquired(thief) = acquire(&dir, "thief", ttl).unwrap() else {
            panic!("stale lease must be stealable");
        };
        assert_eq!(
            lease_state(&dir, ttl).unwrap().unwrap().owner,
            "thief",
            "claim now records the thief"
        );
        // The dead owner's heartbeat must observe the theft, not resurrect.
        assert!(!dead.heartbeat().unwrap());
        thief.release().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_refreshes_mtime() {
        let dir = scratch("beat");
        let ttl = Duration::from_millis(150);
        let ClaimOutcome::Acquired(lease) = acquire(&dir, "alive", ttl).unwrap() else {
            panic!("claim");
        };
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(50));
            assert!(lease.heartbeat().unwrap());
            match acquire(&dir, "vulture", ttl).unwrap() {
                ClaimOutcome::Held { owner, .. } => assert_eq!(owner, "alive"),
                ClaimOutcome::Acquired(_) => panic!("heartbeat must keep the lease alive"),
            }
        }
        lease.release().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
