//! Lease-lifecycle integration tests for the shared work queue: claim
//! contention across real threads, keeper-driven heartbeats outliving the
//! TTL, stale takeover, release-then-reclaim, and the listing-order
//! determinism the shard merge depends on.

use clapton_runtime::{
    acquire, lease_state, ClaimOutcome, LeaseKeeper, RunRegistry, CLAIM_ARTIFACT,
};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clapton-workqueue-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn n_racing_claimants_produce_exactly_one_winner() {
    const CLAIMANTS: usize = 16;
    let dir = scratch("race");
    let ttl = Duration::from_secs(60);
    let barrier = Arc::new(Barrier::new(CLAIMANTS));
    let wins = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CLAIMANTS)
        .map(|i| {
            let dir = dir.clone();
            let barrier = Arc::clone(&barrier);
            let wins = Arc::clone(&wins);
            std::thread::spawn(move || {
                barrier.wait();
                match acquire(&dir, &format!("claimant-{i}"), ttl).unwrap() {
                    ClaimOutcome::Acquired(lease) => {
                        wins.fetch_add(1, Ordering::SeqCst);
                        Some(lease)
                    }
                    ClaimOutcome::Held { .. } => None,
                }
            })
        })
        .collect();
    let mut winner = None;
    for handle in handles {
        if let Some(lease) = handle.join().unwrap() {
            winner = Some(lease);
        }
    }
    assert_eq!(wins.load(Ordering::SeqCst), 1, "exactly one claimant wins");
    let lease = winner.expect("the winner's lease survives the race");
    let state = lease_state(&dir, ttl).unwrap().unwrap();
    assert_eq!(state.owner, lease.owner(), "claim records the winner");
    lease.release().unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn keeper_heartbeats_hold_the_lease_past_many_ttls() {
    let dir = scratch("keeper");
    let ttl = Duration::from_millis(120);
    let ClaimOutcome::Acquired(lease) = acquire(&dir, "long-runner", ttl).unwrap() else {
        panic!("claim");
    };
    let keeper = LeaseKeeper::spawn(lease, ttl / 4);
    // Without heartbeats the claim would be stale after one TTL; the keeper
    // must carry it through several.
    for _ in 0..5 {
        std::thread::sleep(ttl);
        match acquire(&dir, "vulture", ttl).unwrap() {
            ClaimOutcome::Held { owner, .. } => assert_eq!(owner, "long-runner"),
            ClaimOutcome::Acquired(_) => panic!("kept lease must never expire"),
        }
    }
    assert!(!keeper.lost(), "nobody stole the kept lease");
    keeper.release().unwrap();
    assert!(
        lease_state(&dir, ttl).unwrap().is_none(),
        "release removes the claim"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn observers_never_read_a_partial_claim_during_heartbeats() {
    let dir = scratch("observer");
    let ttl = Duration::from_secs(60);
    let ClaimOutcome::Acquired(lease) = acquire(&dir, "steady", ttl).unwrap() else {
        panic!("claim");
    };
    let stop = Arc::new(AtomicBool::new(false));
    let beater = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                assert!(lease.heartbeat().unwrap(), "nobody steals this lease");
            }
            lease
        })
    };
    // Every observation races a heartbeat; each must name the real owner.
    let torn = (0..20_000).find_map(|poll| {
        let owner = lease_state(&dir, ttl).unwrap().map(|state| state.owner);
        (owner.as_deref() != Some("steady")).then_some((poll, owner))
    });
    stop.store(true, Ordering::Relaxed);
    let lease = beater.join().unwrap();
    assert_eq!(torn, None, "an observer read a claim mid-heartbeat");
    lease.release().unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_takeover_flips_keeper_to_lost() {
    let dir = scratch("takeover");
    let ttl = Duration::from_millis(80);
    let ClaimOutcome::Acquired(dead) = acquire(&dir, "doomed", ttl).unwrap() else {
        panic!("claim");
    };
    // A keeper beating far slower than the TTL simulates a wedged worker:
    // its claim goes stale between heartbeats.
    let keeper = LeaseKeeper::spawn(dead, Duration::from_secs(5));
    std::thread::sleep(ttl * 3);
    let ClaimOutcome::Acquired(thief) = acquire(&dir, "thief", ttl).unwrap() else {
        panic!("stale lease must be stealable");
    };
    assert_eq!(lease_state(&dir, ttl).unwrap().unwrap().owner, "thief");
    thief.release().unwrap();
    // The doomed keeper's next heartbeat (forced by drop) must observe the
    // theft rather than resurrect its claim over the released slot.
    drop(keeper);
    assert!(
        lease_state(&dir, ttl).unwrap().is_none(),
        "dead owner must not resurrect a stolen-then-released claim"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn released_lease_is_immediately_reclaimable() {
    let dir = scratch("reclaim");
    let ttl = Duration::from_secs(60);
    for round in 0..4 {
        let owner = format!("worker-{}", round % 2);
        let ClaimOutcome::Acquired(lease) = acquire(&dir, &owner, ttl).unwrap() else {
            panic!("round {round}: released lease must be reclaimable at once");
        };
        lease.release().unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn registry_listing_is_sorted_regardless_of_creation_order() {
    let root = scratch("order");
    let registry = RunRegistry::open(&root).unwrap();
    // Created deliberately out of lexicographic order.
    for name in ["zeta-job", "alpha-job", "mid-job", "beta-job"] {
        registry.run(name).unwrap();
    }
    let expected = vec![
        "alpha-job".to_string(),
        "beta-job".to_string(),
        "mid-job".to_string(),
        "zeta-job".to_string(),
    ];
    assert_eq!(registry.run_names().unwrap(), expected);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn claim_artifact_lives_inside_the_job_directory() {
    let root = scratch("artifact");
    let job = RunRegistry::open(&root).unwrap().run("job-x").unwrap();
    let ClaimOutcome::Acquired(lease) = acquire(job.path(), "w1", Duration::from_secs(60)).unwrap()
    else {
        panic!("claim");
    };
    assert!(root.join("job-x").join(CLAIM_ARTIFACT).is_file());
    lease.release().unwrap();
    assert!(!root.join("job-x").join(CLAIM_ARTIFACT).exists());
    fs::remove_dir_all(&root).unwrap();
}
