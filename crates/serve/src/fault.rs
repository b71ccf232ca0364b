//! Deterministic fault injection for the cached campaign.
//!
//! The paper's campaigns run for hours against real storage hardware,
//! where crashed runs, torn writes, and stuck jobs are routine. This
//! module makes those failures *schedulable*: a [`FaultPlan`] names
//! which occurrence of which internal event should misbehave, and a
//! [`FaultInjector`] threads that schedule behind the campaign's
//! execute step and the store's publish path. Because faults key on
//! **deterministic event counters** (the Nth execution attempt, the Nth
//! publication) rather than wall-clock or entropy, a chaos run is
//! replayable byte-for-byte from its `(seed, plan)` pair — every chaos
//! test doubles as a regression test.
//!
//! Fault sites and kinds:
//!
//! | kind            | site            | effect |
//! |-----------------|-----------------|--------|
//! | `panic@N`       | Nth execution   | the experiment run panics (exercises `catch_unwind` containment + retry) |
//! | `error@N`       | Nth execution   | the attempt fails with an execute-time error |
//! | `delay@N:MS`    | Nth execution   | the attempt starts `MS` ms late (a stuck job that still completes) |
//! | `torn@N`        | Nth publication | the publish dies mid-stage: a partial `.tmp-*` staging dir is left behind and the publish fails |
//! | `corrupt@N`     | Nth publication | the publish lands, then one payload byte is flipped (exercises checksum quarantine + re-execution) |
//!
//! The corruption target byte and XOR mask are drawn from a
//! [`SplitMix64`] stream **constructed from the plan seed** (lint rule
//! D3: seeded construction only), so even the damage itself replays.

use cxlg_sim::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a scheduled fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Panic inside the experiment run (a crashed attempt).
    Panic,
    /// Fail the attempt with an execute-time error.
    Error,
    /// Sleep this many milliseconds before executing (stuck job).
    DelayMs(u64),
    /// Fail the publish mid-stage, leaving `.tmp-*` litter.
    Torn,
    /// Land the publish, then flip one payload byte.
    Corrupt,
}

impl FaultKind {
    /// Wire/plan name of the kind.
    fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Error => "error",
            FaultKind::DelayMs(_) => "delay",
            FaultKind::Torn => "torn",
            FaultKind::Corrupt => "corrupt",
        }
    }

    /// Whether the kind fires at the execute site (vs the publish site).
    fn is_execute_site(self) -> bool {
        matches!(
            self,
            FaultKind::Panic | FaultKind::Error | FaultKind::DelayMs(_)
        )
    }
}

/// One scheduled fault: `kind` fires on the `nth` (1-based) event at
/// its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultRule {
    /// What happens.
    kind: FaultKind,
    /// 1-based occurrence index at the kind's site.
    nth: u64,
}

/// A parsed, deterministic fault schedule.
///
/// The plan grammar is a comma-separated rule list, each rule
/// `kind@occurrence` with an optional `:ms` suffix for delays:
///
/// ```text
/// panic@2,error@5,torn@3,corrupt@4,delay@6:25
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled rules, in declaration order.
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parse a plan spec. Empty specs yield an empty (no-fault) plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind_str, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("fault rule `{part}` lacks `@occurrence`"))?;
            let (nth_str, ms_str) = match rest.split_once(':') {
                Some((n, ms)) => (n, Some(ms)),
                None => (rest, None),
            };
            let nth: u64 = nth_str
                .parse()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| format!("fault rule `{part}`: bad occurrence `{nth_str}` (want >= 1)"))?;
            let kind = match (kind_str, ms_str) {
                ("panic", None) => FaultKind::Panic,
                ("error", None) => FaultKind::Error,
                ("torn", None) => FaultKind::Torn,
                ("corrupt", None) => FaultKind::Corrupt,
                ("delay", Some(ms)) => FaultKind::DelayMs(
                    ms.parse()
                        .map_err(|_| format!("fault rule `{part}`: bad delay ms `{ms}`"))?,
                ),
                ("delay", None) => {
                    return Err(format!("fault rule `{part}`: delay needs `:ms` (delay@N:MS)"))
                }
                (other, _) => {
                    return Err(format!(
                        "unknown fault kind `{other}` (panic|error|delay|torn|corrupt)"
                    ))
                }
            };
            rules.push(FaultRule { kind, nth });
        }
        Ok(FaultPlan { rules })
    }

    /// Render the plan back to its spec string (parse∘render = id).
    pub fn render(&self) -> String {
        self.rules
            .iter()
            .map(|r| match r.kind {
                FaultKind::DelayMs(ms) => format!("delay@{}:{ms}", r.nth),
                kind => format!("{}@{}", kind.as_str(), r.nth),
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// What the execute site should do for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecFault {
    /// Proceed normally.
    None,
    /// Panic (the campaign's `catch_unwind` contains it).
    Panic,
    /// Fail with an injected error.
    Error,
    /// Sleep this many milliseconds, then proceed.
    DelayMs(u64),
}

/// What the publish site should do for one publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishFault {
    /// Proceed normally.
    None,
    /// Abort mid-stage, leaving the staging directory behind.
    Torn,
    /// Publish, then flip one payload byte.
    Corrupt,
}

/// The live injector: a [`FaultPlan`] plus the per-site event counters
/// and a count of fired faults. Shared by the campaign's execute step and
/// the store ([`crate::store::ResultStore::with_faults`]); absent an
/// injector, both paths are fault-free.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    plan: FaultPlan,
    exec_seen: AtomicU64,
    publish_seen: AtomicU64,
    fired: AtomicU64,
}

impl FaultInjector {
    /// An injector for `(seed, plan)`. The seed only feeds the
    /// corruption byte stream; the schedule itself is the plan.
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        FaultInjector {
            seed,
            plan,
            exec_seen: AtomicU64::new(0),
            publish_seen: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// Advance the execute counter and report what this attempt should
    /// do. First matching rule wins.
    pub fn on_execute(&self) -> ExecFault {
        let n = self.exec_seen.fetch_add(1, Ordering::SeqCst) + 1;
        for r in &self.plan.rules {
            if r.nth == n && r.kind.is_execute_site() {
                self.fired.fetch_add(1, Ordering::SeqCst);
                return match r.kind {
                    FaultKind::Panic => ExecFault::Panic,
                    FaultKind::Error => ExecFault::Error,
                    FaultKind::DelayMs(ms) => ExecFault::DelayMs(ms),
                    _ => unreachable!(),
                };
            }
        }
        ExecFault::None
    }

    /// Advance the publish counter and report what this publication
    /// should do. First matching rule wins.
    pub fn on_publish(&self) -> PublishFault {
        let n = self.publish_seen.fetch_add(1, Ordering::SeqCst) + 1;
        for r in &self.plan.rules {
            if r.nth == n && !r.kind.is_execute_site() {
                self.fired.fetch_add(1, Ordering::SeqCst);
                return match r.kind {
                    FaultKind::Torn => PublishFault::Torn,
                    FaultKind::Corrupt => PublishFault::Corrupt,
                    _ => unreachable!(),
                };
            }
        }
        PublishFault::None
    }

    /// Deterministic corruption for a payload of `len` bytes: the byte
    /// offset to damage and a non-zero XOR mask, both drawn from a
    /// SplitMix64 stream keyed by `(seed, publication index)` so the
    /// same `(seed, plan)` damages the same byte the same way.
    pub fn corrupt_pick(&self, len: u64) -> (u64, u8) {
        let n = self.publish_seen.load(Ordering::SeqCst);
        let mut rng = SplitMix64::new(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let offset = if len == 0 { 0 } else { rng.next_u64() % len };
        let mask = ((rng.next_u64() % 255) + 1) as u8;
        (offset, mask)
    }

    /// How many faults have fired so far.
    pub fn fired_count(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parses_and_round_trips() {
        let spec = "panic@2,error@5,torn@3,corrupt@4,delay@6:25";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.rules.len(), 5);
        assert_eq!(plan.rules[0], FaultRule { kind: FaultKind::Panic, nth: 2 });
        assert_eq!(plan.rules[4], FaultRule { kind: FaultKind::DelayMs(25), nth: 6 });
        assert_eq!(plan.render(), spec);
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ").unwrap().is_empty());
    }

    #[test]
    fn plan_rejects_malformed_rules() {
        for bad in [
            "panic",          // no occurrence
            "panic@0",        // occurrence must be >= 1
            "panic@x",        // bad number
            "frob@1",         // unknown kind
            "delay@1",        // delay without ms
            "delay@1:xs",     // bad ms
            "torn@2:5",       // ms suffix on a non-delay kind
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn injector_fires_on_the_scheduled_occurrence_only() {
        let plan = FaultPlan::parse("panic@2,error@4,delay@5:7").unwrap();
        let inj = FaultInjector::new(1, plan);
        assert_eq!(inj.on_execute(), ExecFault::None);
        assert_eq!(inj.on_execute(), ExecFault::Panic);
        assert_eq!(inj.on_execute(), ExecFault::None);
        assert_eq!(inj.on_execute(), ExecFault::Error);
        assert_eq!(inj.on_execute(), ExecFault::DelayMs(7));
        assert_eq!(inj.on_execute(), ExecFault::None);
        assert_eq!(inj.fired_count(), 3);
    }

    #[test]
    fn publish_and_execute_counters_are_independent() {
        let plan = FaultPlan::parse("panic@1,torn@1,corrupt@2").unwrap();
        let inj = FaultInjector::new(1, plan);
        // The publish site ignores execute-site rules and vice versa.
        assert_eq!(inj.on_publish(), PublishFault::Torn);
        assert_eq!(inj.on_execute(), ExecFault::Panic);
        assert_eq!(inj.on_publish(), PublishFault::Corrupt);
        assert_eq!(inj.on_publish(), PublishFault::None);
        assert_eq!(inj.fired_count(), 3);
    }

    #[test]
    fn corruption_is_deterministic_and_in_bounds() {
        let plan = FaultPlan::parse("corrupt@1").unwrap();
        let a = FaultInjector::new(42, plan.clone());
        let b = FaultInjector::new(42, plan.clone());
        assert_eq!(a.on_publish(), PublishFault::Corrupt);
        assert_eq!(b.on_publish(), PublishFault::Corrupt);
        for len in [1u64, 7, 4096] {
            assert_eq!(a.corrupt_pick(len), b.corrupt_pick(len), "len {len}");
            let (off, mask) = a.corrupt_pick(len);
            assert!(off < len);
            assert_ne!(mask, 0, "a zero mask would be a no-op corruption");
        }
        // A different seed damages differently (overwhelmingly likely).
        let c = FaultInjector::new(43, plan);
        c.on_publish();
        assert_ne!(a.corrupt_pick(4096), c.corrupt_pick(4096));
    }
}
