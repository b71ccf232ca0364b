//! The content-addressed result store.
//!
//! One directory per [`JobKey`] under the store root:
//!
//! ```text
//! <root>/<jobkey>/manifest.json   job identity and integrity table
//! <root>/<jobkey>/<name>          one file per result payload (verbatim bytes)
//! <root>/.quarantine/<key>.<n>    entries that failed verification (forensics)
//! ```
//!
//! The store is the whole on-disk state of a cached campaign: keys are
//! derived from the job alone ([`JobKey::derive`]), so nothing else
//! needs persisting next to it.
//!
//! **Atomic publication.** A result is staged into a hidden
//! `.tmp-<key>-<pid>` directory and `rename`d into place, so a reader
//! never observes a half-written entry: either `<root>/<jobkey>` exists
//! with its complete manifest and payloads, or it does not exist. When
//! two publishers race (possible across processes sharing a root), the
//! first rename wins and the loser discards its staging directory; both
//! executions produced byte-identical payloads by the determinism
//! contract, so which one lands is unobservable.
//!
//! **Crash recovery on open.** A process that dies mid-publish leaves
//! its `.tmp-<key>-<pid>` staging directory behind. [`ResultStore::new`]
//! reaps every staging directory whose embedded pid is no longer alive
//! (or is this process — our own litter from a previous open), and
//! moves entries whose manifest is unreadable or names the wrong key
//! into `.quarantine/` instead of serving them. Staging directories of
//! *live* foreign publishers are left untouched. A quarantined entry
//! takes the first free `<key>.<n>` name, so damage found by successive
//! store lifetimes accumulates side by side instead of colliding.
//!
//! **Integrity on read.** [`ResultStore::probe`] re-hashes every
//! payload against the manifest's FNV-64 + length table and
//! cross-checks the recorded key. Any mismatch — truncation, bit rot,
//! a manually edited file — quarantines the entry and reports a miss,
//! so a corrupted cache entry is re-executed, never served.
//!
//! **Bounded growth.** Every published manifest carries a monotone
//! publication sequence number (`seq`); [`ResultStore::gc`] evicts
//! entries in ascending-`seq` order (LRU by publication) until the
//! store fits the requested byte/entry budget. Eviction is safe under
//! concurrent readers because `probe` copies payload bytes out before
//! returning.

use crate::job::{fnv64, Job, JobKey};
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Integrity record for one stored payload file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileEntry {
    /// Plain file name inside the entry directory.
    pub name: String,
    /// Payload length in bytes.
    pub bytes: u64,
    /// FNV-64 of the payload bytes.
    pub fnv64: u64,
}

/// The per-entry manifest, byte-stable for a given job and publication
/// sequence. Fields are read by name, so manifests written by older
/// builds with extra fields still parse.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredManifest {
    /// The entry's own key (cross-checked on read).
    pub key: String,
    /// Human-auditable canonical string the key hashes.
    pub canonical: String,
    /// Publication sequence number, monotone per store lineage —
    /// orders LRU eviction ([`ResultStore::gc`]). Assigned by
    /// [`ResultStore::publish`].
    pub seq: u64,
    /// The job this result answers.
    pub job: Job,
    /// Integrity table, sorted by name. Filled in by
    /// [`ResultStore::publish`].
    pub files: Vec<FileEntry>,
}

/// A verified cache hit: the manifest plus every payload, bytes copied
/// out of the store (eviction-safe).
#[derive(Debug, Clone)]
pub struct StoredResult {
    /// The entry's manifest.
    pub manifest: StoredManifest,
    /// `(name, verbatim bytes)` per payload, in manifest order.
    pub files: Vec<(String, Vec<u8>)>,
}

/// Monotone counters of the store's recovery machinery, surfaced in a
/// cached campaign's manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Stale `.tmp-*` staging directories reaped on open.
    pub staging_reaped: u64,
    /// Entries moved to `.quarantine/` (bad manifest, wrong key, failed
    /// payload checksum).
    pub quarantined: u64,
    /// Entries evicted by [`ResultStore::gc`].
    pub evicted: u64,
}

/// What one [`ResultStore::gc`] pass did.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Evicted keys, in eviction (ascending publication `seq`) order.
    pub evicted: Vec<JobKey>,
    /// Entry bytes before the pass.
    pub bytes_before: u64,
    /// Entry bytes after the pass.
    pub bytes_after: u64,
    /// Entry count before the pass.
    pub entries_before: usize,
}

/// Content-addressed store rooted at one directory.
pub struct ResultStore {
    root: PathBuf,
    next_seq: AtomicU64,
    staging_reaped: AtomicU64,
    quarantined: AtomicU64,
    evicted: AtomicU64,
}

/// Pid embedded in a `.tmp-<key>-<pid>` staging-directory name, if the
/// name parses.
fn staging_pid(name: &str) -> Option<u32> {
    name.strip_prefix(".tmp-")?.rsplit_once('-')?.1.parse().ok()
}

/// Whether a staging directory's owner may still be publishing. Our own
/// pid counts as dead: any `.tmp-*` of ours that survives to the next
/// `open` is litter (publish removes its staging dir on every path).
fn staging_owner_live(name: &str) -> bool {
    match staging_pid(name) {
        None => false, // malformed name: no live publisher writes these
        Some(pid) if pid == std::process::id() => false,
        #[cfg(target_os = "linux")]
        Some(pid) => Path::new("/proc").join(pid.to_string()).exists(),
        #[cfg(not(target_os = "linux"))]
        Some(_) => true, // no liveness oracle: be conservative
    }
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `root`, running
    /// crash recovery: stale staging directories are reaped, entries
    /// with unreadable or key-mismatched manifests are quarantined, and
    /// the publication sequence resumes past the highest stored `seq`.
    pub fn new(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let store = ResultStore {
            root,
            next_seq: AtomicU64::new(1),
            staging_reaped: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        };
        store.recover();
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of the recovery counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            staging_reaped: self.staging_reaped.load(Ordering::SeqCst),
            quarantined: self.quarantined.load(Ordering::SeqCst),
            evicted: self.evicted.load(Ordering::SeqCst),
        }
    }

    fn entry_dir(&self, key: &JobKey) -> PathBuf {
        self.root.join(key.as_str())
    }

    /// Crash recovery, run once from [`ResultStore::new`].
    fn recover(&self) {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return;
        };
        let mut max_seq = 0u64;
        for e in entries.flatten() {
            let Some(name) = e.file_name().to_str().map(str::to_string) else {
                continue;
            };
            let path = e.path();
            if name.starts_with(".tmp-") {
                if !staging_owner_live(&name) {
                    let removed = if path.is_dir() {
                        std::fs::remove_dir_all(&path).is_ok()
                    } else {
                        std::fs::remove_file(&path).is_ok()
                    };
                    if removed {
                        self.staging_reaped.fetch_add(1, Ordering::SeqCst);
                    }
                }
                continue;
            }
            if JobKey::parse(&name).is_err() || !path.is_dir() {
                continue;
            }
            let manifest = std::fs::read_to_string(path.join("manifest.json"))
                .ok()
                .and_then(|text| serde_json::from_str::<StoredManifest>(&text).ok())
                .filter(|m| m.key == name);
            match manifest {
                Some(m) => max_seq = max_seq.max(m.seq),
                None => self.quarantine(&path, &name),
            }
        }
        self.next_seq
            .store(max_seq.saturating_add(1), Ordering::SeqCst);
    }

    /// Move a failed entry aside for forensics instead of serving it,
    /// as the first free `.quarantine/<key>.<n>` (`n` from 1), so no
    /// earlier copy — from this lifetime or another — is overwritten.
    /// Falls back to deletion if the rename fails (e.g. cross-device).
    fn quarantine(&self, dir: &Path, key_name: &str) {
        self.quarantined.fetch_add(1, Ordering::SeqCst);
        let qroot = self.root.join(".quarantine");
        let mut moved = false;
        if std::fs::create_dir_all(&qroot).is_ok() {
            for n in 1u64.. {
                let dest = qroot.join(format!("{key_name}.{n}"));
                if dest.exists() {
                    continue;
                }
                moved = std::fs::rename(dir, &dest).is_ok();
                // A concurrent quarantine may take `n` first; try the
                // next name. Any other failure falls back to deletion.
                if moved || !dest.exists() {
                    break;
                }
            }
        }
        if !moved {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Stage and atomically publish an entry. Returns `Ok(false)` when
    /// the entry already exists (first writer won a race); the staged
    /// copy is discarded. Payload names must be plain file names and
    /// must not collide with `manifest.json`.
    pub fn publish(
        &self,
        mut manifest: StoredManifest,
        files: &[(String, Vec<u8>)],
    ) -> std::io::Result<bool> {
        let key = JobKey::parse(&manifest.key)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        for (name, _) in files {
            if name.is_empty()
                || name == "manifest.json"
                || name.contains('/')
                || name.contains('\\')
                || name.starts_with('.')
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("illegal payload name `{name}`"),
                ));
            }
        }
        manifest.seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        manifest.files = files
            .iter()
            .map(|(name, bytes)| FileEntry {
                name: name.clone(),
                bytes: bytes.len() as u64,
                fnv64: fnv64(bytes),
            })
            .collect();
        manifest.files.sort_by(|a, b| a.name.cmp(&b.name));

        let dest = self.entry_dir(&key);
        if dest.exists() {
            return Ok(false);
        }
        let tmp = self
            .root
            .join(format!(".tmp-{}-{}", key.as_str(), std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp)?;
        let write = |path: &Path, bytes: &[u8]| -> std::io::Result<()> {
            let mut f = std::fs::File::create(path)?;
            f.write_all(bytes)
        };
        let manifest_json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        write(&tmp.join("manifest.json"), manifest_json.as_bytes())?;
        for (name, bytes) in files {
            write(&tmp.join(name), bytes)?;
        }
        match std::fs::rename(&tmp, &dest) {
            Ok(()) => Ok(true),
            Err(_) if dest.exists() => {
                // Lost the publication race: keep the winner's entry.
                let _ = std::fs::remove_dir_all(&tmp);
                Ok(false)
            }
            Err(e) => {
                let _ = std::fs::remove_dir_all(&tmp);
                Err(e)
            }
        }
    }

    /// Look a key up, verifying integrity. A verified entry comes back
    /// with its payload bytes copied out; a missing entry is `None`; a
    /// corrupted entry (bad manifest, wrong key, truncated or altered
    /// payload, missing file) is **quarantined** and reported as
    /// `None`, so the caller re-executes instead of serving bad bytes.
    pub fn probe(&self, key: &JobKey) -> Option<StoredResult> {
        let dir = self.entry_dir(key);
        if !dir.is_dir() {
            return None;
        }
        match self.read_verified(key, &dir) {
            Some(hit) => Some(hit),
            None => {
                // Quarantine: a later submit re-executes, and the bad
                // bytes stay available for postmortem.
                self.quarantine(&dir, key.as_str());
                None
            }
        }
    }

    fn read_verified(&self, key: &JobKey, dir: &Path) -> Option<StoredResult> {
        let manifest_text = std::fs::read_to_string(dir.join("manifest.json")).ok()?;
        let manifest: StoredManifest = serde_json::from_str(&manifest_text).ok()?;
        if manifest.key != key.as_str() {
            return None;
        }
        let mut files = Vec::with_capacity(manifest.files.len());
        for entry in &manifest.files {
            let bytes = std::fs::read(dir.join(&entry.name)).ok()?;
            if bytes.len() as u64 != entry.bytes || fnv64(&bytes) != entry.fnv64 {
                return None;
            }
            files.push((entry.name.clone(), bytes));
        }
        Some(StoredResult { manifest, files })
    }

    /// Remove an entry. Returns whether one existed. Safe under
    /// concurrent readers: previously probed results keep their copies.
    pub fn evict(&self, key: &JobKey) -> bool {
        let dir = self.entry_dir(key);
        dir.is_dir() && std::fs::remove_dir_all(&dir).is_ok()
    }

    /// Number of (directory-level) entries currently in the store.
    /// Staging and quarantine directories are excluded.
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entry keys, sorted (deterministic listing order).
    pub fn keys(&self) -> Vec<JobKey> {
        let mut out = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for e in entries.flatten() {
                if let Some(name) = e.file_name().to_str() {
                    if let Ok(key) = JobKey::parse(name) {
                        if e.path().is_dir() {
                            out.push(key);
                        }
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// On-disk bytes of one entry (manifest + payloads), 0 if absent.
    fn entry_bytes(&self, key: &JobKey) -> u64 {
        let mut total = 0;
        if let Ok(entries) = std::fs::read_dir(self.entry_dir(key)) {
            for e in entries.flatten() {
                if let Ok(meta) = e.metadata() {
                    if meta.is_file() {
                        total += meta.len();
                    }
                }
            }
        }
        total
    }

    /// Evict entries in ascending publication-`seq` order (LRU by
    /// publication; key order breaks seq ties deterministically) until
    /// the store fits `max_bytes` / `max_entries`. `None` bounds are
    /// unlimited. Safe under concurrent readers — see [`Self::evict`].
    pub fn gc(&self, max_bytes: Option<u64>, max_entries: Option<usize>) -> GcReport {
        // (seq, key, bytes) per entry; an unreadable manifest sorts
        // first (seq 0) — it would be quarantined on probe anyway.
        let mut entries: Vec<(u64, JobKey, u64)> = self
            .keys()
            .into_iter()
            .map(|key| {
                let seq = std::fs::read_to_string(self.entry_dir(&key).join("manifest.json"))
                    .ok()
                    .and_then(|text| serde_json::from_str::<StoredManifest>(&text).ok())
                    .map_or(0, |m| m.seq);
                let bytes = self.entry_bytes(&key);
                (seq, key, bytes)
            })
            .collect();
        entries.sort();
        let bytes_before: u64 = entries.iter().map(|(_, _, b)| b).sum();
        let entries_before = entries.len();
        let mut report = GcReport {
            evicted: Vec::new(),
            bytes_before,
            bytes_after: bytes_before,
            entries_before,
        };
        let mut count = entries_before;
        for (_, key, bytes) in entries {
            let over_bytes = max_bytes.is_some_and(|max| report.bytes_after > max);
            let over_count = max_entries.is_some_and(|max| count > max);
            if !over_bytes && !over_count {
                break;
            }
            if self.evict(&key) {
                self.evicted.fetch_add(1, Ordering::SeqCst);
                report.bytes_after = report.bytes_after.saturating_sub(bytes);
                count -= 1;
                report.evicted.push(key);
            }
        }
        report
    }
}

/// A manifest ready for [`ResultStore::publish`] to fill the integrity
/// table and publication sequence.
pub fn manifest_for(key: &JobKey, canonical: String, job: Job) -> StoredManifest {
    StoredManifest {
        key: key.as_str().to_string(),
        canonical,
        seq: 0,
        job,
        files: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cxlg-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tmp_store(tag: &str) -> ResultStore {
        ResultStore::new(tmp_root(tag)).unwrap()
    }

    fn job() -> Job {
        Job {
            experiment: "fig3".to_string(),
            scale: 8,
            seed: 1,
            threads: 1,
        }
    }

    fn job_n(seed: u64) -> Job {
        Job {
            experiment: "fig3".to_string(),
            scale: 8,
            seed,
            threads: 1,
        }
    }

    fn key() -> JobKey {
        JobKey::derive(&job(), "test-build")
    }

    fn publish_one(store: &ResultStore) -> JobKey {
        let k = key();
        let m = manifest_for(&k, "canon".into(), job());
        let files = vec![("fig3.json".to_string(), b"{\"x\":1}".to_vec())];
        assert!(store.publish(m, &files).unwrap());
        k
    }

    fn publish_n(store: &ResultStore, seed: u64) -> JobKey {
        let j = job_n(seed);
        let k = JobKey::derive(&j, "test-build");
        let m = manifest_for(&k, format!("canon-{seed}"), j);
        let files = vec![("fig3.json".to_string(), format!("{{\"x\":{seed}}}").into_bytes())];
        assert!(store.publish(m, &files).unwrap());
        k
    }

    #[test]
    fn publish_then_probe_round_trips_bytes() {
        let store = tmp_store("roundtrip");
        let k = publish_one(&store);
        let hit = store.probe(&k).expect("published entry must probe");
        assert_eq!(hit.manifest.key, k.as_str());
        assert_eq!(hit.files, vec![("fig3.json".to_string(), b"{\"x\":1}".to_vec())]);
        assert_eq!(hit.manifest.files[0].bytes, 7);
        assert_eq!(hit.manifest.seq, 1, "first publication takes seq 1");
        assert_eq!(store.keys(), vec![k]);
    }

    #[test]
    fn double_publish_keeps_the_first_entry() {
        let store = tmp_store("firstwins");
        let k = publish_one(&store);
        let m = manifest_for(&k, "canon".into(), job());
        let other = vec![("fig3.json".to_string(), b"{\"x\":2}".to_vec())];
        assert!(!store.publish(m, &other).unwrap(), "second publish must lose");
        let hit = store.probe(&k).unwrap();
        assert_eq!(hit.files[0].1, b"{\"x\":1}".to_vec());
        // No staging litter left behind.
        let tmp_left = std::fs::read_dir(store.root())
            .unwrap()
            .flatten()
            .any(|e| e.file_name().to_string_lossy().starts_with(".tmp-"));
        assert!(!tmp_left, "staging directory leaked");
    }

    #[test]
    fn corrupted_payload_is_detected_and_quarantined() {
        let store = tmp_store("corrupt");
        let k = publish_one(&store);
        let payload = store.root().join(k.as_str()).join("fig3.json");
        std::fs::write(&payload, b"{\"x\":9}").unwrap(); // same length, wrong bytes
        assert!(store.probe(&k).is_none(), "altered payload must miss");
        assert!(!store.root().join(k.as_str()).exists(), "corrupt entry must be removed");
        assert_eq!(store.counters().quarantined, 1);
        let qdir = store.root().join(".quarantine").join(format!("{}.1", k.as_str()));
        assert!(qdir.is_dir(), "corrupt entry must move to quarantine");
        // Re-publication after quarantine works.
        publish_one(&store);
        assert!(store.probe(&k).is_some());
    }

    #[test]
    fn injected_corruption_is_caught_by_the_next_probe() {
        // A verified hit does not vouch for the entry afterwards: a byte
        // flipped on disk after a hit is caught by the very next probe.
        let store = tmp_store("inject");
        let k = publish_one(&store);
        let held = store.probe(&k).expect("intact entry must hit");
        let payload = store.root().join(k.as_str()).join("fig3.json");
        let mut bytes = std::fs::read(&payload).unwrap();
        bytes[2] ^= 0xFF;
        std::fs::write(&payload, &bytes).unwrap();
        assert!(store.probe(&k).is_none(), "the next probe must catch the flip");
        assert_eq!(store.counters().quarantined, 1);
        assert_eq!(held.files[0].1, b"{\"x\":1}".to_vec(), "the earlier hit's copy is intact");
        assert!(store.probe(&k).is_none(), "a quarantined entry stays a miss");
        assert_eq!(store.counters().quarantined, 1, "quarantine happens once");
        assert!(store.is_empty());
    }

    #[test]
    fn truncated_payload_is_detected_and_dropped() {
        let store = tmp_store("truncate");
        let k = publish_one(&store);
        let payload = store.root().join(k.as_str()).join("fig3.json");
        std::fs::write(&payload, b"{\"x\"").unwrap();
        assert!(store.probe(&k).is_none());
        assert!(!store.root().join(k.as_str()).exists());
    }

    #[test]
    fn mangled_manifest_is_detected_and_dropped() {
        let store = tmp_store("manifest");
        let k = publish_one(&store);
        std::fs::write(store.root().join(k.as_str()).join("manifest.json"), b"not json").unwrap();
        assert!(store.probe(&k).is_none());
        assert!(!store.root().join(k.as_str()).exists());
    }

    #[test]
    fn missing_payload_is_detected_and_dropped() {
        let store = tmp_store("missing");
        let k = publish_one(&store);
        std::fs::remove_file(store.root().join(k.as_str()).join("fig3.json")).unwrap();
        assert!(store.probe(&k).is_none());
    }

    #[test]
    fn eviction_is_safe_under_a_reader() {
        let store = tmp_store("evict");
        let k = publish_one(&store);
        let held = store.probe(&k).unwrap();
        assert!(store.evict(&k), "entry must evict");
        // The reader's copy is intact after eviction…
        assert_eq!(held.files[0].1, b"{\"x\":1}".to_vec());
        // …and the store misses cleanly.
        assert!(store.probe(&k).is_none());
        assert!(!store.evict(&k), "double eviction reports absence");
        assert!(store.is_empty());
    }

    #[test]
    fn publish_rejects_illegal_payload_names() {
        let store = tmp_store("names");
        let k = key();
        for bad in ["", "manifest.json", "a/b.json", "..", ".hidden"] {
            let m = manifest_for(&k, "canon".into(), job());
            let files = vec![(bad.to_string(), Vec::new())];
            assert!(store.publish(m, &files).is_err(), "name `{bad}` must be rejected");
        }
    }

    #[test]
    fn probe_of_unknown_key_is_a_plain_miss() {
        let store = tmp_store("unknown");
        assert!(store.probe(&key()).is_none());
    }

    #[test]
    fn stale_staging_dirs_are_reaped_on_open() {
        let root = tmp_root("reap");
        std::fs::create_dir_all(&root).unwrap();
        // Plant litter from this process (a simulated earlier crash)
        // and from a pid that cannot be alive.
        let mine = root.join(format!(".tmp-{}-{}", key().as_str(), std::process::id()));
        std::fs::create_dir_all(&mine).unwrap();
        std::fs::write(mine.join("manifest.json"), b"{partial").unwrap();
        let dead = root.join(format!(".tmp-{}-4294967294", key().as_str()));
        std::fs::create_dir_all(&dead).unwrap();
        let malformed = root.join(".tmp-garbage");
        std::fs::create_dir_all(&malformed).unwrap();

        let store = ResultStore::new(&root).unwrap();
        assert!(!mine.exists(), "own-pid staging litter must be reaped");
        assert!(!dead.exists(), "dead-pid staging litter must be reaped");
        assert!(!malformed.exists(), "malformed staging names must be reaped");
        assert_eq!(store.counters().staging_reaped, 3);
        assert!(store.is_empty(), "staging litter must not surface as entries");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_foreign_staging_dirs_survive_open() {
        let root = tmp_root("reap-live");
        std::fs::create_dir_all(&root).unwrap();
        // pid 1 is always alive on Linux.
        let live = root.join(format!(".tmp-{}-1", key().as_str()));
        std::fs::create_dir_all(&live).unwrap();
        let store = ResultStore::new(&root).unwrap();
        assert!(live.exists(), "a live publisher's staging dir must survive");
        assert_eq!(store.counters().staging_reaped, 0);
    }

    #[test]
    fn bad_manifests_are_quarantined_on_open() {
        let root = tmp_root("openq");
        {
            let store = ResultStore::new(&root).unwrap();
            publish_one(&store);
        }
        // Mangle the manifest between store lifetimes.
        let k = key();
        std::fs::write(root.join(k.as_str()).join("manifest.json"), b"junk").unwrap();
        let store = ResultStore::new(&root).unwrap();
        assert_eq!(store.counters().quarantined, 1);
        assert!(store.is_empty());
        assert!(store.probe(&k).is_none());
    }

    #[test]
    fn sequence_numbers_resume_across_lifetimes() {
        let root = tmp_root("seq");
        {
            let store = ResultStore::new(&root).unwrap();
            publish_n(&store, 1);
            publish_n(&store, 2);
        }
        let store = ResultStore::new(&root).unwrap();
        let k3 = publish_n(&store, 3);
        assert_eq!(
            store.probe(&k3).unwrap().manifest.seq,
            3,
            "seq must resume past the highest stored value"
        );
    }

    #[test]
    fn gc_evicts_in_publication_order_until_bounds_fit() {
        let store = tmp_store("gc");
        let k1 = publish_n(&store, 1);
        let k2 = publish_n(&store, 2);
        let k3 = publish_n(&store, 3);
        // Hold a reader on the oldest entry across its eviction.
        let held = store.probe(&k1).unwrap();

        // Count bound: keep 2 entries → the oldest publication goes.
        let report = store.gc(None, Some(2));
        assert_eq!(report.evicted, vec![k1.clone()]);
        assert_eq!(report.entries_before, 3);
        assert!(store.probe(&k1).is_none());
        assert!(store.probe(&k2).is_some());
        assert!(store.probe(&k3).is_some());
        assert_eq!(held.files[0].1, b"{\"x\":1}".to_vec(), "reader copy survives");

        // Byte bound: shrink to one entry's size → k2 (now oldest) goes.
        let one = report.bytes_after / 2;
        let report = store.gc(Some(one), None);
        assert_eq!(report.evicted, vec![k2]);
        assert!(report.bytes_after <= one);
        assert_eq!(store.keys(), vec![k3]);
        assert_eq!(store.counters().evicted, 2);

        // Within bounds: a no-op.
        let report = store.gc(Some(u64::MAX), Some(10));
        assert!(report.evicted.is_empty());
    }

    #[test]
    fn publish_clears_its_own_stale_staging_dir() {
        // A publish of this process that died mid-stage (the manifest
        // staged, no payload) left its `.tmp-*` directory behind; the
        // next publish of the same key through a live store overwrites
        // it and lands a complete entry.
        let root = tmp_root("stale-own");
        let store = ResultStore::new(&root).unwrap();
        let k = key();
        let tmp = root.join(format!(".tmp-{}-{}", k.as_str(), std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        std::fs::write(tmp.join("manifest.json"), b"{partial").unwrap();
        let k = publish_one(&store);
        assert_eq!(store.probe(&k).unwrap().files[0].1, b"{\"x\":1}".to_vec());
        assert!(!tmp.exists(), "the stale staging dir must not survive");
    }

    /// Tamper with the payload of `k`'s entry under `root` (same length,
    /// flipped byte).
    fn flip_payload(root: &Path, k: &JobKey) {
        let payload = root.join(k.as_str()).join("fig3.json");
        let mut bytes = std::fs::read(&payload).unwrap();
        bytes[2] ^= 0xFF;
        std::fs::write(&payload, &bytes).unwrap();
    }

    #[test]
    fn quarantines_from_two_lifetimes_keep_both_copies() {
        let root = tmp_root("requarantine");
        for lifetime in 1..=2u64 {
            let store = ResultStore::new(&root).unwrap();
            let k = publish_one(&store);
            flip_payload(&root, &k);
            assert!(store.probe(&k).is_none(), "lifetime {lifetime}: tamper caught");
            assert_eq!(store.counters().quarantined, 1, "lifetime {lifetime}");
        }
        let k = key();
        let mut held: Vec<String> = std::fs::read_dir(root.join(".quarantine"))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        held.sort();
        assert_eq!(held, vec![format!("{k}.1"), format!("{k}.2")]);
        for name in &held {
            let manifest = root.join(".quarantine").join(name).join("manifest.json");
            assert!(manifest.is_file(), "{name} must keep the damaged entry whole");
        }
    }

    #[test]
    fn entries_written_with_a_cache_hit_field_still_parse() {
        // Manifests from older builds carry fields since dropped — the
        // `cache_hit` flag, the graph `fingerprints` table and the
        // execution telemetry (`wall_ms`, `rss_*`); fields are read by
        // name, so recovery, probe and GC keep them.
        let root = tmp_root("legacy-field");
        let k = {
            let store = ResultStore::new(&root).unwrap();
            publish_one(&store)
        };
        let path = root.join(k.as_str()).join("manifest.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let body = text.trim_end().strip_suffix('}').unwrap().trim_end();
        let legacy = format!(
            "{body},\n  \"cache_hit\": false,\n  \"fingerprints\": [{{\"spec\": \
             \"urand8(deg32)@0x1\", \"fingerprint\": 7}}],\n  \"wall_ms\": 12.5,\n  \
             \"rss_semantics\": \"process-peak-delta\",\n  \"rss_peak_kb\": 4096,\n  \
             \"rss_delta_kb\": 512\n}}"
        );
        std::fs::write(&path, legacy).unwrap();
        let store = ResultStore::new(&root).unwrap();
        assert_eq!(store.counters().quarantined, 0, "recover keeps the entry");
        assert_eq!(store.probe(&k).unwrap().manifest.seq, 1);
        assert_eq!(store.gc(None, Some(0)).evicted, vec![k]);
    }
}
