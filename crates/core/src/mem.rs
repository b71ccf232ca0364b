//! Peak-RSS instrumentation for the campaign manifest.
//!
//! Peak resident set size is the campaign's binding constraint (the
//! shared graph cache keeps every built dataset alive), so the driver
//! records the process high-water mark after every experiment and the
//! `cxlg graph-mem` probe turns it into a bytes-per-arc figure that CI
//! budgets against.
//!
//! Sources, in order:
//!
//! 1. `VmHWM` from `/proc/self/status` — the kernel's high-water RSS.
//! 2. `getrusage(RUSAGE_SELF).ru_maxrss` via a raw syscall — some
//!    sandboxed kernels (gVisor among them) omit `VmHWM` from
//!    `/proc/self/status` but still account `ru_maxrss` faithfully.
//! 3. `0` — non-Linux or non-x86_64 fallback; consumers treat zero as
//!    "not measured", never as "zero bytes".

use std::sync::atomic::{AtomicU64, Ordering};

/// Running maximum across calls: some sandboxed kernels let `VmHWM`
/// *decrease* after large frees, which would break the manifest's
/// monotone peak accounting, so the process keeps its own high water.
static PEAK_SEEN_KB: AtomicU64 = AtomicU64::new(0);

/// Peak resident set size of this process in kilobytes, or 0 when no
/// source is available on this platform. Monotone non-decreasing over
/// the life of the process regardless of kernel quirks.
pub fn peak_rss_kb() -> u64 {
    let kb = vm_hwm_kb().or_else(ru_maxrss_kb).unwrap_or(0);
    PEAK_SEEN_KB.fetch_max(kb, Ordering::Relaxed).max(kb)
}

/// Peak-RSS readings bracketing one unit of work — the honest answer
/// to "how much memory did this job add?".
///
/// [`peak_rss_kb`] is **process-global and monotone**: under a shared
/// process (a campaign runs many experiments in one), every job
/// sampling it at completion reports the same campaign high-water
/// mark, which misattributes the largest job's footprint to everyone.
/// A span records the mark before and after instead; the delta is the
/// growth of the process high-water mark *during* the span, with two
/// documented caveats: under concurrency it is an upper bound on the
/// span's own footprint (a neighbour's allocations land in whichever
/// span is open), and it is 0 whenever the process peak predates the
/// span — never a per-job absolute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssSpan {
    /// Process high-water mark (kB) when the span opened.
    pub before_kb: u64,
    /// Process high-water mark (kB) when the span closed.
    pub after_kb: u64,
}

impl RssSpan {
    /// Growth of the process high-water mark across the span (kB).
    /// 0 when the peak predates the span or no source exists.
    pub fn delta_kb(&self) -> u64 {
        self.after_kb.saturating_sub(self.before_kb)
    }
}

/// Run `f`, bracketing it with peak-RSS samples. Both samples come from
/// the monotone [`peak_rss_kb`], so `after_kb >= before_kb` always.
pub fn rss_span<R>(f: impl FnOnce() -> R) -> (R, RssSpan) {
    let before_kb = peak_rss_kb();
    let r = f();
    let after_kb = peak_rss_kb();
    (r, RssSpan { before_kb, after_kb })
}

/// Parse `VmHWM:  <n> kB` out of `/proc/self/status`.
fn vm_hwm_kb() -> Option<u64> {
    proc_status_kb("VmHWM:")
}

/// Parse one `<prefix>  <n> kB` line out of `/proc/self/status`.
fn proc_status_kb(prefix: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(prefix) {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok();
        }
    }
    None
}

/// `getrusage(RUSAGE_SELF)` through a raw syscall (no libc dependency is
/// vendored). `ru_maxrss` is already in kilobytes on Linux.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn ru_maxrss_kb() -> Option<u64> {
    // struct rusage begins { timeval ru_utime; timeval ru_stime;
    // long ru_maxrss; ... } — ru_maxrss sits after two 16-byte timevals.
    // The full struct is 16 longs beyond the timevals; round up generously.
    let mut rusage = [0i64; 36];
    let ret: i64;
    // SAFETY: SYS_getrusage only writes within the caller-provided
    // buffer; `rusage` is a live, 288-byte stack array comfortably
    // larger than the 144-byte kernel struct, and the asm clobbers
    // (rcx/r11) are exactly the registers the syscall ABI tramples.
    unsafe {
        std::arch::asm!(
            "syscall",
            in("rax") 98i64, // SYS_getrusage
            in("rdi") 0i64,  // RUSAGE_SELF
            in("rsi") rusage.as_mut_ptr(),
            lateout("rax") ret,
            out("rcx") _,
            out("r11") _,
        );
    }
    if ret == 0 {
        u64::try_from(rusage[4]).ok().filter(|&kb| kb > 0)
    } else {
        None
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn ru_maxrss_kb() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn linux_reports_a_positive_high_water_mark() {
        // Either source must see this very test binary's RSS.
        let kb = peak_rss_kb();
        assert!(kb > 0, "no peak-RSS source found on Linux");
        // A test process maps at least a few hundred kB and far less
        // than 1 TB; anything outside that is a parsing bug.
        assert!(kb > 100 && kb < (1u64 << 30), "implausible VmHWM {kb} kB");
    }

    #[test]
    fn rss_span_brackets_work_and_never_goes_negative() {
        let (value, span) = rss_span(|| {
            // Touch ~16 MB inside the span.
            let v = vec![3u8; 16 << 20];
            v[1 << 20] as u64
        });
        assert_eq!(value, 3);
        assert!(span.after_kb >= span.before_kb, "span must be monotone");
        assert_eq!(span.delta_kb(), span.after_kb - span.before_kb);
    }

    #[test]
    fn rss_span_delta_saturates() {
        // delta_kb never underflows even on a hand-built inverted span
        // (can only arise from a buggy caller, but must not panic).
        let span = RssSpan { before_kb: 10, after_kb: 4 };
        assert_eq!(span.delta_kb(), 0);
    }

    #[test]
    fn high_water_mark_is_monotone() {
        let before = peak_rss_kb();
        // Touch ~32 MB so the high-water mark must not decrease (and, on
        // any working source, strictly covers the allocation).
        let v = vec![1u8; 32 << 20];
        let after = peak_rss_kb();
        assert!(after >= before, "high-water mark decreased: {before} -> {after}");
        drop(v);
        let released = peak_rss_kb();
        assert!(released >= after, "high-water mark fell after free");
    }
}
