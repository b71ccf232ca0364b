//! Store repair under load: concurrent readers of a content-addressed
//! entry that is being tampered with and re-published must only ever
//! see verified bytes. The campaign-level recovery tests (a tampered
//! entry, a panicking experiment) live with the campaign loop in
//! `crates/bench/tests/cached_campaign.rs`.

use cxlg_serve::job::Job;
use cxlg_serve::store::{manifest_for, ResultStore};
use cxlg_serve::JobKey;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn job(name: &str) -> Job {
    Job {
        experiment: name.to_string(),
        scale: 8,
        seed: 1,
        threads: 1,
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cxlg-chaos-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_readers_never_observe_torn_bytes_during_repair() {
    // N readers hammer `probe` while one thread tampers with the entry
    // and another re-publishes it: every successful read must return
    // the verified old bytes or the verified new bytes, never a torn
    // mix — the checksum table is what makes repair safe under load.
    let store = Arc::new(ResultStore::new(tmp_dir("repair")).unwrap());
    let j = job("fig1");
    let key = JobKey::derive(&j, "test-build");
    let old_bytes = b"{\"result\":\"old\"}".to_vec();
    let new_bytes = b"{\"result\":\"new\"}".to_vec();
    let publish = |bytes: &Vec<u8>| {
        let m = manifest_for(&key, "canon".into(), j.clone());
        store
            .publish(m, &[("fig1.json".to_string(), bytes.clone())])
            .map(|_| ())
    };
    publish(&old_bytes).unwrap();

    let stop = AtomicBool::new(false);
    let torn_seen = AtomicU64::new(0);
    let verified_reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        // 4 hammering readers.
        for _ in 0..4 {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(hit) = store.probe(&key) {
                        let bytes = &hit.files[0].1;
                        if bytes != &old_bytes && bytes != &new_bytes {
                            torn_seen.fetch_add(1, Ordering::SeqCst);
                        }
                        verified_reads.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
        // One tamper thread: repeatedly corrupt the live payload
        // in-place (same length, wrong bytes — the nastiest case).
        s.spawn(|| {
            for _ in 0..50 {
                let path = store.root().join(key.as_str()).join("fig1.json");
                let _ = std::fs::write(&path, b"{\"result\":\"bad\"}");
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // One repair thread: re-execute (re-publish the new bytes)
        // whenever the entry has been quarantined away.
        s.spawn(|| {
            for _ in 0..200 {
                if store.probe(&key).is_none() {
                    let _ = publish(&new_bytes);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::SeqCst);
        });
    });
    assert_eq!(
        torn_seen.load(Ordering::SeqCst),
        0,
        "a verified read returned bytes that were neither old nor new"
    );
    assert!(
        verified_reads.load(Ordering::SeqCst) > 0,
        "the readers must have seen verified data at least once"
    );
    // After the dust settles the entry heals to verified new bytes.
    if store.probe(&key).is_none() {
        publish(&new_bytes).unwrap();
    }
    assert_eq!(store.probe(&key).unwrap().files[0].1, new_bytes);
}
