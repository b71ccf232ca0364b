//! Cached-campaign statistics: the `service-stats.json` snapshot a
//! `cxlg run --cached` campaign leaves beside its results.
//!
//! The snapshot is **byte-stable** for a given sequence of campaign
//! events — fixed field order, counters only, no wall-clock or RSS
//! fields. A chaos run replayed from the same `(seed, plan)` must
//! reproduce every byte of this snapshot — that identity is ci.sh's
//! replay gate.

use serde::Value;

/// Counters of the result store's recovery machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Stale `.tmp-*` staging directories reaped on open.
    pub staging_reaped: u64,
    /// Entries quarantined after failing verification.
    pub quarantined: u64,
    /// Entries evicted by GC.
    pub evicted: u64,
    /// Entries currently in the store.
    pub entries: u64,
}

/// Counters of one cached campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Experiments served from the result store.
    pub cache_hits: u64,
    /// Experiments that missed the store and executed.
    pub cache_misses: u64,
    /// Failed execution attempts retried under the attempt budget.
    pub retries: u64,
    /// Experiments that exhausted their attempt budget (or stayed
    /// poisoned through every heal round).
    pub failed: u64,
    /// Faults fired by the attached injector (0 without one).
    pub faults_injected: u64,
    /// Result-store recovery counters.
    pub store: StoreStats,
}

impl Stats {
    /// Fraction of experiments served from cache (0 when none ran).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The snapshot as a JSON value with fixed key order.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("cache_hits".to_string(), Value::U64(self.cache_hits)),
            ("cache_misses".to_string(), Value::U64(self.cache_misses)),
            ("retries".to_string(), Value::U64(self.retries)),
            ("failed".to_string(), Value::U64(self.failed)),
            (
                "faults_injected".to_string(),
                Value::U64(self.faults_injected),
            ),
            ("hit_ratio".to_string(), Value::F64(self.hit_ratio())),
            (
                "store".to_string(),
                Value::Map(vec![
                    (
                        "staging_reaped".to_string(),
                        Value::U64(self.store.staging_reaped),
                    ),
                    (
                        "quarantined".to_string(),
                        Value::U64(self.store.quarantined),
                    ),
                    ("evicted".to_string(), Value::U64(self.store.evicted)),
                    ("entries".to_string(), Value::U64(self.store.entries)),
                ]),
            ),
        ])
    }

    /// Pretty-rendered JSON snapshot.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("serialize stats")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Stats {
        Stats {
            cache_hits: 4,
            cache_misses: 1,
            retries: 2,
            failed: 1,
            faults_injected: 3,
            store: StoreStats {
                staging_reaped: 1,
                quarantined: 1,
                evicted: 2,
                entries: 4,
            },
        }
    }

    #[test]
    fn hit_ratio_handles_zero_and_mixes() {
        let mut s = sample();
        assert!((s.hit_ratio() - 0.8).abs() < 1e-12);
        s.cache_hits = 0;
        s.cache_misses = 0;
        assert_eq!(s.hit_ratio(), 0.0);
    }

    #[test]
    fn rendering_is_byte_stable_modulo_telemetry_fields() {
        let a = sample().render_json();
        // Rendering the same snapshot twice is bytewise stable.
        assert_eq!(a, sample().render_json());
        // The snapshot carries no telemetry: the strip ci.sh's chaos
        // replay gate applies removes nothing, so every byte is compared.
        let stripped: Vec<&str> = a
            .lines()
            .filter(|l| !l.contains("wall_ms") && !l.contains("rss_"))
            .collect();
        assert_eq!(stripped.join("\n"), a);
        // Any counter change shows.
        let mut other = sample();
        other.retries += 1;
        assert_ne!(a, other.render_json());
    }

    #[test]
    fn value_field_order_is_pinned() {
        let Value::Map(m) = sample().to_value() else {
            panic!("stats must render a map")
        };
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "cache_hits",
                "cache_misses",
                "retries",
                "failed",
                "faults_injected",
                "hit_ratio",
                "store"
            ]
        );
        let Some((_, Value::Map(store))) = m.iter().find(|(k, _)| k == "store") else {
            panic!("store must render a map")
        };
        let store_keys: Vec<&str> = store.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            store_keys,
            vec!["staging_reaped", "quarantined", "evicted", "entries"]
        );
    }
}
