//! The job model: one experiment of a cached campaign, and the
//! deterministic key that names its result in the content-addressed
//! store.
//!
//! A [`Job`] is one experiment at one `(scale, seed, threads)`
//! configuration. Its [`JobKey`] is an FNV-64 hash over a canonical
//! string of those fields and **the build identity of the code that
//! runs it**, so the key changes — and the cache misses — whenever the
//! experiment identity, its parameters, or the program itself change.
//! Those are all a result depends on: an experiment's datasets are a
//! function of `(scale, seed)` and of the generator code, which the
//! build identity already covers, so deriving a key never builds a
//! graph. `threads` is part of the key because every result JSON
//! records the pool size in its header; byte-identical replay requires
//! keying on it. (Result *series* are thread-count invariant by the
//! ci.sh byte-diff gate; only the header line differs.) The graph
//! storage backend is not: results are storage-invariant by the same
//! gate and no result file records it.

use serde::{Deserialize, Serialize};

/// One cacheable unit: an experiment at a fixed configuration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Job {
    /// Registered experiment name (`fig3`, `table1`, …).
    pub experiment: String,
    /// log2 of the vertex count.
    pub scale: u32,
    /// Generator seed shared by the job's datasets.
    pub seed: u64,
    /// Worker-pool size recorded in every result header.
    pub threads: usize,
}

/// Content-addressed name of a job's result: 16 lowercase hex digits of
/// an FNV-64 over the job's canonical description.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey(String);

impl JobKey {
    /// Derive the key for `job` run by code of identity `build_id`.
    pub fn derive(job: &Job, build_id: &str) -> Self {
        JobKey(fnv64_hex(&canonical(job, build_id)))
    }

    /// Wrap an already-derived key (a store directory name). Accepts
    /// exactly 16 lowercase hex digits.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()) {
            Ok(JobKey(s.to_string()))
        } else {
            Err(format!("malformed job key `{s}` (want 16 lowercase hex digits)"))
        }
    }

    /// The key as a hex string (the CAS directory name).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The canonical description a key hashes, in a fixed field order.
/// Stored in the CAS manifest so an operator can audit what a key
/// binds.
pub fn canonical(job: &Job, build_id: &str) -> String {
    format!(
        "build={build_id};experiment={};scale={};seed={:#x};threads={}",
        job.experiment, job.scale, job.seed, job.threads
    )
}

/// FNV-1a 64-bit over a byte slice — the same construction
/// `Csr::fingerprint` uses, kept dependency-free here because the store
/// also checksums payload bytes with it.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv64_hex(s: &str) -> String {
    format!("{:016x}", fnv64(s.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: &str = "0123456789abcdef";

    fn job() -> Job {
        Job {
            experiment: "fig3".to_string(),
            scale: 10,
            seed: 0x5EED,
            threads: 2,
        }
    }

    #[test]
    fn key_is_stable_and_order_independent() {
        // A key is a pure function of its job: deriving other keys in
        // between (a campaign's run order) never moves it.
        let a = JobKey::derive(&job(), B);
        let mut other = job();
        other.experiment = "fig4".into();
        let _ = JobKey::derive(&other, B);
        assert_eq!(JobKey::derive(&job(), B), a, "run order must not move the key");
        assert_eq!(a.as_str().len(), 16);
        assert!(a.as_str().bytes().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn every_field_moves_the_key() {
        let base = JobKey::derive(&job(), B);
        let mut j = job();
        j.experiment = "fig4".into();
        assert_ne!(JobKey::derive(&j, B), base);
        let mut j = job();
        j.scale = 11;
        assert_ne!(JobKey::derive(&j, B), base);
        let mut j = job();
        j.seed = 1;
        assert_ne!(JobKey::derive(&j, B), base);
        let mut j = job();
        j.threads = 4;
        assert_ne!(JobKey::derive(&j, B), base);
    }

    #[test]
    fn parse_round_trips_and_rejects_junk() {
        let k = JobKey::derive(&job(), B);
        assert_eq!(JobKey::parse(k.as_str()).unwrap(), k);
        assert!(JobKey::parse("short").is_err());
        assert!(JobKey::parse("0123456789ABCDEF").is_err(), "uppercase rejected");
        assert!(JobKey::parse("0123456789abcdeg").is_err());
    }

    #[test]
    fn canonical_names_every_input() {
        assert_eq!(
            canonical(&job(), B),
            "build=0123456789abcdef;experiment=fig3;scale=10;seed=0x5eed;threads=2"
        );
    }

    #[test]
    fn two_build_identities_give_two_keys_for_the_same_job() {
        let a = JobKey::derive(&job(), "0123456789abcdef");
        let b = JobKey::derive(&job(), "fedcba9876543210");
        assert_ne!(a, b, "a store written by other code must miss");
        assert_eq!(a, JobKey::derive(&job(), "0123456789abcdef"));
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
