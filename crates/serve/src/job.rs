//! The job model: one experiment of a cached campaign, and the
//! deterministic key that names its result in the content-addressed
//! store.
//!
//! A [`Job`] is one experiment at one `(scale, seed, threads)`
//! configuration. Its [`JobKey`] is an FNV-64 hash over a canonical
//! string of those fields, **the graph fingerprints of every dataset
//! the experiment consumes** (`Csr::fingerprint`), and **the build
//! identity of the code that runs it**, so the key changes — and the
//! cache misses — whenever the experiment identity, its parameters,
//! the actual bytes of its input graphs, or the program itself change.
//! `threads` is part of the key because every result JSON records the
//! pool size in its header; byte-identical replay requires keying on
//! it. (Result *series* are thread-count invariant by the ci.sh
//! byte-diff gate; only the header line differs.)

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
    /// Derive the key for `job` given the `(dataset label, fingerprint)`
    /// pairs of every graph it consumes and the `build_id` of the code
    /// that runs it. The pairs are sorted by label before hashing so
    /// declaration order never changes the key.
    pub fn derive(job: &Job, fingerprints: &[(String, u64)], build_id: &str) -> Self {
        JobKey(fnv64_hex(&canonical(job, fingerprints, build_id)))
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

/// The canonical description a key hashes: stable across field
/// reordering and fingerprint declaration order. Stored in the CAS
/// manifest so an operator can audit what a key binds.
pub fn canonical(job: &Job, fingerprints: &[(String, u64)], build_id: &str) -> String {
    let mut fps: Vec<&(String, u64)> = fingerprints.iter().collect();
    fps.sort();
    let fp_part: Vec<String> = fps
        .iter()
        .map(|(label, fp)| format!("{label}={fp:#018x}"))
        .collect();
    format!(
        "build={build_id};experiment={};scale={};seed={:#x};threads={};graphs=[{}]",
        job.experiment,
        job.scale,
        job.seed,
        job.threads,
        fp_part.join(",")
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
        let a = JobKey::derive(&job(), &[("urand10".into(), 7), ("kron10".into(), 9)], B);
        let b = JobKey::derive(&job(), &[("kron10".into(), 9), ("urand10".into(), 7)], B);
        assert_eq!(a, b, "fingerprint declaration order must not move the key");
        assert_eq!(a.as_str().len(), 16);
        assert!(a.as_str().bytes().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn every_field_moves_the_key() {
        let base = JobKey::derive(&job(), &[("urand10".into(), 7)], B);
        let mut j = job();
        j.experiment = "fig4".into();
        assert_ne!(JobKey::derive(&j, &[("urand10".into(), 7)], B), base);
        let mut j = job();
        j.scale = 11;
        assert_ne!(JobKey::derive(&j, &[("urand10".into(), 7)], B), base);
        let mut j = job();
        j.seed = 1;
        assert_ne!(JobKey::derive(&j, &[("urand10".into(), 7)], B), base);
        let mut j = job();
        j.threads = 4;
        assert_ne!(JobKey::derive(&j, &[("urand10".into(), 7)], B), base);
        // A changed graph fingerprint (same label) also misses.
        assert_ne!(JobKey::derive(&job(), &[("urand10".into(), 8)], B), base);
    }

    #[test]
    fn parse_round_trips_and_rejects_junk() {
        let k = JobKey::derive(&job(), &[], B);
        assert_eq!(JobKey::parse(k.as_str()).unwrap(), k);
        assert!(JobKey::parse("short").is_err());
        assert!(JobKey::parse("0123456789ABCDEF").is_err(), "uppercase rejected");
        assert!(JobKey::parse("0123456789abcdeg").is_err());
    }

    #[test]
    fn canonical_names_every_input() {
        let c = canonical(&job(), &[("urand10(deg32)@0x5eed".into(), 0xAB)], B);
        assert!(c.contains("build=0123456789abcdef"));
        assert!(c.contains("experiment=fig3"));
        assert!(c.contains("scale=10"));
        assert!(c.contains("seed=0x5eed"));
        assert!(c.contains("threads=2"));
        assert!(c.contains("urand10(deg32)@0x5eed=0x00000000000000ab"));
    }

    #[test]
    fn two_build_identities_give_two_keys_for_the_same_job() {
        let fps = [("urand10".to_string(), 7)];
        let a = JobKey::derive(&job(), &fps, "0123456789abcdef");
        let b = JobKey::derive(&job(), &fps, "fedcba9876543210");
        assert_ne!(a, b, "a store written by other code must miss");
        assert_eq!(a, JobKey::derive(&job(), &fps, "0123456789abcdef"));
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
