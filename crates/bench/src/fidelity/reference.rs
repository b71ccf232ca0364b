//! Machine-readable reference data for every paper series the campaign
//! reproduces — the numbers conf_sc_SanoBHKSNTKS23 actually reports,
//! transcribed with units, axes, tolerance bands, and the scale at
//! which each comparison becomes meaningful.
//!
//! ## Transcription policy
//!
//! Only numbers the paper states in text or tables are encoded as
//! absolute references (Eq. 4/6 values, Table 1 degrees, the Fig. 10
//! DRAM-channel cap, the Fig. 6 geometric means, Fig. 9's host-DRAM
//! latency range). Where the paper communicates a *shape* rather than a
//! tabulated value (Fig. 3 monotonicity, Fig. 11 parity-then-rise), the
//! reference is a band or monotonicity requirement derived from the
//! claim, with the claim quoted in the check's note.
//!
//! ## Scale gating
//!
//! The repo runs the campaign at `CXLG_SCALE` ≤ 27 while the paper used
//! scale 27, and several series track scale (RAF grows with graph size,
//! kron's isolated-vertex fraction grows, normalized runtimes approach
//! parity only once graphs dwarf caches). Each check carries a
//! `min_scale`: below it the residual is still computed and reported,
//! but the verdict is SKIP (scale-gated) instead of FLAG. Checks with
//! `min_scale: 0` hold at any scale — either the quantity is scale-free
//! (model closed forms, device microbenchmarks, urand's fixed degree) or
//! the check is a shape/trend property.

/// What a check compares, and how tight the band is.
pub enum Expect {
    /// Measured scalar within `tol_pct` percent of the paper's value.
    Scalar {
        /// The paper's reported value.
        paper: f64,
        /// Allowed |residual| in percent.
        tol_pct: f64,
    },
    /// Measured scalar within `[lo, hi]`; `paper` (may be NaN when the
    /// paper gives no single number) is reported alongside for context.
    Band {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
        /// The paper's indicative value, or NaN when none is stated.
        paper: f64,
    },
    /// Measured series interpolated onto the paper's x grid; every
    /// point's |residual| must stay within `tol_pct` percent.
    Series {
        /// The paper's `(x, y)` points.
        paper: &'static [(f64, f64)],
        /// Allowed per-point |residual| in percent.
        tol_pct: f64,
        /// Interpolate in `ln x` (log-spaced axes like alignments).
        log_x: bool,
    },
    /// Measured series must be monotone nondecreasing in x — the shape
    /// check for figures whose absolute level tracks scale or hardware.
    /// (Hardware-absolute axes are handled this way or by normalizing
    /// to a series' own baseline before a band check, never by
    /// comparing raw hardware values.)
    MonotoneNondecreasing,
}

/// One fidelity check: a measured quantity, its paper reference, and
/// the tolerance/scale regime where the comparison is enforceable.
pub struct Check {
    /// Figure/table this check belongs to (`fig3`, `table1`, `eq6`, …).
    pub figure: &'static str,
    /// Key into the figure's extracted scalars or series.
    pub key: &'static str,
    /// Measurement units (and the x axis for series checks).
    pub units: &'static str,
    /// What is expected, and how tightly.
    pub expect: Expect,
    /// Scale below which the verdict is SKIP rather than FLAG (0 = any).
    pub min_scale: u32,
    /// Paper section/claim the reference was transcribed from.
    pub note: &'static str,
}

/// The figures/tables `cxlg validate` covers, in report order. `eq6`
/// is recomputed from `cxlg-model` (the paper's closed forms) rather
/// than loaded from a campaign result file.
pub const FIGURES: &[&str] = &[
    "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11", "eq6",
];

/// Paper Fig. 4 / §3.2 example throughput profile
/// `T = min(100·d, 48·d, 24000)` sampled away from the d = 500 B kink
/// so linear interpolation of the measured log-spaced grid is exact.
const FIG4_T_PROFILE: &[(f64, f64)] = &[
    (64.0, 3_072.0),
    (128.0, 6_144.0),
    (256.0, 12_288.0),
    (1024.0, 24_000.0),
    (4096.0, 24_000.0),
];

/// Paper Fig. 11 normalized-runtime reference through the Gen3 latency
/// allowance (1.91 µs): the parity claim ("identical performance while
/// the CXL latency stays under ~2 µs"), transcribed as ≈1.0 below the
/// allowance. The paper tabulates no values past the allowance, so the
/// rise is checked separately as a trend.
const FIG11_PARITY_PROFILE: &[(f64, f64)] = &[
    (0.0, 1.0),
    (0.5, 1.0),
    (1.0, 1.02),
    (1.5, 1.08),
];

macro_rules! fig3_series_checks {
    ($($key:literal),+ $(,)?) => {
        &[$(
            Check {
                figure: "fig3",
                key: concat!($key, " RAF(a)"),
                units: "RAF vs alignment [B]",
                expect: Expect::MonotoneNondecreasing,
                min_scale: 0,
                note: "§3.1/Fig. 3: RAFs are increasing functions of the alignment size",
            },
            Check {
                figure: "fig3",
                key: concat!($key, " RAF@8B"),
                units: "RAF",
                expect: Expect::Band { lo: 0.9, hi: 1.1, paper: 1.0 },
                min_scale: 0,
                note: "Fig. 3: at the 8 B ID size there is (almost) no wasted fetch; \
                       SSSP dips slightly below 1 from cached revisits",
            },
            Check {
                figure: "fig3",
                key: concat!($key, " RAF@4kB"),
                units: "RAF",
                expect: Expect::Band { lo: 1.0, hi: 4.5, paper: 4.0 },
                min_scale: 0,
                note: "Fig. 3: up to ~4 at the 4 kB SSD-block alignment at scale 27; \
                       RAF grows toward that ceiling with scale",
            },
        )+]
    };
}

/// Every fidelity check, grouped by figure in [`FIGURES`] order.
static CHECKS: &[&[Check]] = &[
    // ---------------------------------------------------------- table1
    &[
        Check {
            figure: "table1",
            key: "urand avg degree",
            units: "edges/vertex (non-isolated)",
            expect: Expect::Scalar { paper: 32.0, tol_pct: 2.0 },
            min_scale: 0,
            note: "Table 1: urand has average degree 32.0 by construction at any scale",
        },
        Check {
            figure: "table1",
            key: "urand avg sublist",
            units: "B",
            expect: Expect::Scalar { paper: 256.0, tol_pct: 2.0 },
            min_scale: 0,
            note: "Table 1: 32.0 × 8 B IDs = 256.0 B sublists",
        },
        Check {
            figure: "table1",
            key: "friendster avg degree",
            units: "edges/vertex (non-isolated)",
            expect: Expect::Scalar { paper: 55.1, tol_pct: 5.0 },
            min_scale: 20,
            note: "Table 1: Friendster averages 55.1; the Chung–Lu stand-in converges \
                   to it from below as scale grows",
        },
        Check {
            figure: "table1",
            key: "kron avg degree",
            units: "edges/vertex (non-isolated)",
            expect: Expect::Scalar { paper: 67.0, tol_pct: 10.0 },
            min_scale: 27,
            note: "Table 1: kron averages 67.0 at scale 27; the isolated-vertex \
                   fraction (excluded from the average) grows with scale, so smaller \
                   scales sit well below — 48.6 measured at scale 20",
        },
    ],
    // ---------------------------------------------------------- table2
    &[Check {
        figure: "table2",
        key: "peak frontier / Gen4 Nmax",
        units: "ratio (Nmax = 768)",
        expect: Expect::Band { lo: 10.0, hi: f64::INFINITY, paper: f64::NAN },
        min_scale: 16,
        note: "Table 2/§3.5.1: most depths hold tens of thousands of vertices — \
               concurrency is never algorithm-limited; needs enough vertices for \
               the mid-BFS frontier to dwarf Nmax",
    }],
    // ------------------------------------------------------------ fig3
    fig3_series_checks!(
        "BFS/urand",
        "SSSP/urand",
        "BFS/kron",
        "SSSP/kron",
        "BFS/friendster",
        "SSSP/friendster",
    ),
    // ------------------------------------------------------------ fig4
    &[
        Check {
            figure: "fig4",
            key: "T(d)",
            units: "MB/s vs transfer size [B]",
            expect: Expect::Series { paper: FIG4_T_PROFILE, tol_pct: 1.0, log_x: false },
            min_scale: 0,
            note: "§3.2 example profile T = min(100d, 48d, 24000), scale-free",
        },
        Check {
            figure: "fig4",
            key: "D(d)",
            units: "MB vs transfer size [B]",
            expect: Expect::MonotoneNondecreasing,
            min_scale: 0,
            note: "Fig. 4: total data D = E·RAF(d) grows with d",
        },
        Check {
            figure: "fig4",
            key: "runtime-optimal d",
            units: "B",
            expect: Expect::Band { lo: 350.0, hi: 700.0, paper: 500.0 },
            min_scale: 0,
            note: "§3.3.2: best runtime at the smallest d that saturates W \
                   (s·d_opt = W ⇒ 500 B for the example profile)",
        },
    ],
    // ------------------------------------------------------------ fig5
    &[
        Check {
            figure: "fig5",
            key: "XLFDD/EMOGI (a)",
            units: "normalized runtime vs alignment [B]",
            expect: Expect::MonotoneNondecreasing,
            min_scale: 0,
            note: "Fig. 5: smaller alignments run faster (runtime tracks RAF)",
        },
        Check {
            figure: "fig5",
            key: "XLFDD/EMOGI @16B",
            units: "normalized runtime",
            expect: Expect::Band { lo: 0.7, hi: 1.3, paper: 1.0 },
            min_scale: 20,
            note: "§4.1.2: at 16–32 B alignment XLFDD approaches host-DRAM speed; \
                   parity needs graphs that dwarf the software cache",
        },
        Check {
            figure: "fig5",
            key: "XLFDD 4kB/16B ratio",
            units: "ratio",
            expect: Expect::Band { lo: 1.8, hi: f64::INFINITY, paper: 3.0 },
            min_scale: 20,
            note: "Fig. 5: the 4 kB alignment pays the RAF tax (~3× at scale 27)",
        },
        Check {
            figure: "fig5",
            key: "BaM(4kB) / XLFDD(4kB)",
            units: "ratio",
            expect: Expect::Band { lo: 0.75, hi: 1.35, paper: 1.0 },
            min_scale: 20,
            note: "Fig. 5: BaM's 4 kB lines and XLFDD at a 4 kB alignment pay the \
                   same granularity penalty",
        },
    ],
    // ------------------------------------------------------------ fig6
    &[
        Check {
            figure: "fig6",
            key: "XLFDD geomean",
            units: "normalized runtime (geomean of 6 pairs)",
            expect: Expect::Band { lo: 0.7, hi: 1.5, paper: 1.13 },
            min_scale: 20,
            note: "Fig. 6: XLFDD runs 1.13× EMOGI on average at scale 27 — \
                   near-parity; the gap tracks sublist sizes, which grow with scale",
        },
        Check {
            figure: "fig6",
            key: "BaM geomean",
            units: "normalized runtime (geomean of 6 pairs)",
            expect: Expect::Band { lo: 1.3, hi: 3.3, paper: 2.76 },
            min_scale: 20,
            note: "Fig. 6: BaM runs 2.76× EMOGI at scale 27; the 4 kB RAF tax \
                   grows with scale, so smaller scales sit below",
        },
        Check {
            figure: "fig6",
            key: "pairs with BaM slower than XLFDD",
            units: "count of 6",
            expect: Expect::Band { lo: 6.0, hi: 6.0, paper: 6.0 },
            min_scale: 0,
            note: "Fig. 6: BaM trails XLFDD on every (workload × dataset) pair — \
                   the paper's granularity ordering, scale-free",
        },
    ],
    // ------------------------------------------------------------ fig9
    &[
        Check {
            figure: "fig9",
            key: "DRAM near-socket latency",
            units: "µs",
            expect: Expect::Scalar { paper: 1.1, tol_pct: 15.0 },
            min_scale: 0,
            note: "Fig. 9/Appendix B: GPU-observed pointer-chase latency of host \
                   DRAM is ~1.1–1.2 µs",
        },
        Check {
            figure: "fig9",
            key: "DRAM far-socket latency",
            units: "µs",
            expect: Expect::Scalar { paper: 1.2, tol_pct: 15.0 },
            min_scale: 0,
            note: "Fig. 9: the far socket adds an interconnect hop",
        },
        Check {
            figure: "fig9",
            key: "CXL(+0) over DRAM",
            units: "µs",
            expect: Expect::Scalar { paper: 0.5, tol_pct: 40.0 },
            min_scale: 0,
            note: "Fig. 9: the CXL.mem path adds ~0.5 µs over host DRAM",
        },
        Check {
            figure: "fig9",
            key: "CXL step dev from 1 µs",
            units: "µs (mean |step − 1|, +1→+3 µs)",
            expect: Expect::Band { lo: 0.0, hi: 0.05, paper: 0.0 },
            min_scale: 0,
            note: "Fig. 9: each +1 µs of injected bridge latency shifts the \
                   observed bar by exactly +1 µs once past the bridge floor",
        },
        Check {
            figure: "fig9",
            key: "far-socket penalty",
            units: "µs",
            expect: Expect::Band { lo: 0.0, hi: 0.3, paper: 0.1 },
            min_scale: 0,
            note: "Fig. 9: far-socket devices are marginally slower",
        },
    ],
    // ----------------------------------------------------------- fig10
    &[
        Check {
            figure: "fig10",
            key: "throughput @+0µs",
            units: "MB/s",
            expect: Expect::Scalar { paper: 5_700.0, tol_pct: 5.0 },
            min_scale: 0,
            note: "§4.2.2/Fig. 10: the prototype caps at ~5,700 MB/s — the single \
                   DRAM channel, not the CXL link",
        },
        Check {
            figure: "fig10",
            key: "T(+1µs)/T(+0µs)",
            units: "ratio",
            expect: Expect::Band { lo: 0.95, hi: 1.001, paper: 1.0 },
            min_scale: 0,
            note: "Fig. 10: bandwidth is flat through +1 µs — latency is absorbed \
                   while the 128 device tags last",
        },
        Check {
            figure: "fig10",
            key: "T(+10µs)/T(+0µs)",
            units: "ratio",
            expect: Expect::Band { lo: 0.05, hi: 0.3, paper: 0.14 },
            min_scale: 0,
            note: "Fig. 10: once tags bind, throughput decays as Little's law \
                   T = Nmax·d/L predicts",
        },
        Check {
            figure: "fig10",
            key: "outstanding @+10µs",
            units: "requests",
            expect: Expect::Scalar { paper: 128.0, tol_pct: 5.0 },
            min_scale: 0,
            note: "Fig. 10: outstanding reads saturate at the 128 device tags",
        },
    ],
    // ----------------------------------------------------------- fig11
    &[
        Check {
            figure: "fig11",
            key: "max normalized @+0µs",
            units: "normalized runtime (worst of 6 series)",
            expect: Expect::Band { lo: 0.9, hi: 1.1, paper: 1.0 },
            min_scale: 20,
            note: "Fig. 11: CXL at no added latency matches host DRAM (Gen3 ×16, \
                   5 expanders)",
        },
        Check {
            figure: "fig11",
            key: "max normalized @+0.5µs",
            units: "normalized runtime (worst of 6 series)",
            expect: Expect::Band { lo: 0.9, hi: 1.15, paper: 1.0 },
            min_scale: 20,
            note: "Fig. 11 (Observation 2): identical performance while CXL \
                   latency stays under the allowance",
        },
        Check {
            figure: "fig11",
            key: "min rise (+3µs / +0.5µs)",
            units: "ratio (best of 6 series)",
            expect: Expect::Band { lo: 1.2, hi: f64::INFINITY, paper: f64::NAN },
            min_scale: 0,
            note: "Fig. 11: runtime rises once added latency passes the Gen3 \
                   allowance of 1.91 µs (Eq. 6)",
        },
        Check {
            figure: "fig11",
            key: "BFS/urand normalized(L)",
            units: "normalized runtime vs added latency [µs]",
            expect: Expect::Series { paper: FIG11_PARITY_PROFILE, tol_pct: 10.0, log_x: false },
            min_scale: 27,
            note: "Fig. 11 parity profile below the allowance, transcribed from \
                   the claim (no tabulated values in the paper); normalized \
                   runtimes approach it from above as scale grows",
        },
        Check {
            figure: "fig11",
            key: "BFS/urand monotone",
            units: "normalized runtime vs added latency [µs]",
            expect: Expect::MonotoneNondecreasing,
            min_scale: 0,
            note: "Fig. 11: added latency never speeds a traversal up",
        },
        Check {
            figure: "fig11",
            key: "SSSP/friendster monotone",
            units: "normalized runtime vs added latency [µs]",
            expect: Expect::MonotoneNondecreasing,
            min_scale: 0,
            note: "Fig. 11: the same holds for the heaviest workload/dataset pair",
        },
    ],
    // ------------------------------------------------------------- eq6
    &[
        Check {
            figure: "eq6",
            key: "Gen4 min S",
            units: "MIOPS",
            expect: Expect::Scalar { paper: 268.0, tol_pct: 1.0 },
            min_scale: 0,
            note: "§3.4 (Eq. 6): Gen4 ×16 with d = 89.6 B requires S ≥ 268 MIOPS",
        },
        Check {
            figure: "eq6",
            key: "Gen4 max L",
            units: "µs",
            expect: Expect::Scalar { paper: 2.87, tol_pct: 1.0 },
            min_scale: 0,
            note: "§3.4 (Eq. 6): Gen4 tolerates L ≤ 2.87 µs — microseconds, not \
                   nanoseconds",
        },
        Check {
            figure: "eq6",
            key: "Gen3 min S",
            units: "MIOPS",
            expect: Expect::Scalar { paper: 134.0, tol_pct: 1.0 },
            min_scale: 0,
            note: "§4.2.2: Gen3 ×16 requires S ≥ 12,000/89.6 = 134 MIOPS",
        },
        Check {
            figure: "eq6",
            key: "Gen3 max L",
            units: "µs",
            expect: Expect::Scalar { paper: 1.91, tol_pct: 1.0 },
            min_scale: 0,
            note: "§4.2.2: Gen3 tolerates L ≤ 256 × 89.6 / 12,000 = 1.91 µs",
        },
        Check {
            figure: "eq6",
            key: "XLFDD d=256B min S",
            units: "MIOPS",
            expect: Expect::Scalar { paper: 93.75, tol_pct: 1.0 },
            min_scale: 0,
            note: "§4.1.1: sublist-sized transfers (d = 256 B) relax the IOPS \
                   requirement to 93.75 MIOPS (16 drives provide 176)",
        },
    ],
];

/// All checks for one figure, or an empty slice for an unknown name.
pub fn checks_for(figure: &str) -> &'static [Check] {
    FIGURES
        .iter()
        .position(|f| *f == figure)
        .map(|i| CHECKS[i])
        .unwrap_or(&[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_has_checks_and_vice_versa() {
        assert_eq!(FIGURES.len(), CHECKS.len());
        for (i, figure) in FIGURES.iter().enumerate() {
            assert!(!CHECKS[i].is_empty(), "{figure} has no checks");
            for c in CHECKS[i] {
                assert_eq!(c.figure, *figure, "misfiled check {}", c.key);
            }
        }
    }

    #[test]
    fn check_keys_are_unique_within_a_figure() {
        for group in CHECKS {
            let mut keys: Vec<&str> = group.iter().map(|c| c.key).collect();
            keys.sort_unstable();
            let n = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), n, "duplicate key in {}", group[0].figure);
        }
    }

    #[test]
    fn paper_series_are_sorted_by_x() {
        for group in CHECKS {
            for c in *group {
                if let Expect::Series { paper, .. } = c.expect {
                    for w in paper.windows(2) {
                        assert!(w[0].0 < w[1].0, "{}/{} unsorted", c.figure, c.key);
                    }
                }
            }
        }
    }

    #[test]
    fn eq6_references_match_the_model_crate_tests() {
        // The same numbers cxlg-model asserts in its unit tests.
        let gen4 = cxlg_model::requirements::emogi_requirements(cxlg_link::pcie::PcieGen::Gen4);
        assert!((gen4.min_miops - 268.0).abs() / 268.0 < 0.01);
        assert!((gen4.max_latency_us - 2.87).abs() / 2.87 < 0.01);
    }
}
