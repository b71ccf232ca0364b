//! Differential tests between the two CSR storage backends.
//!
//! The spill backend must be an *exact* stand-in for the in-memory CSR:
//! same fingerprint, same neighbor slices, same degree statistics — for
//! every generator family, at any page/segment granularity, built on
//! any thread count. These tests sweep that space with proptest.
//!
//! This is the bottom rung of the scale ladder toward the paper's
//! scale 27: ci.sh extends the same fingerprint gate to scales 18–22
//! through `cxlg graph-mem --storage=`.

use cxlg_graph::stats::DegreeStats;
use cxlg_graph::{Csr, CsrView, GraphSpec, SpillConfig, SpillCsr, StorageMode};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cxlg-storage-diff-{tag}-{}", std::process::id()))
}

fn cfg(tag: &str, page_len: usize, cache_pages: usize, segment_arcs: u64) -> SpillConfig {
    let mut cfg = SpillConfig::new(tmp_dir(tag));
    cfg.page_len = page_len;
    cfg.cache_pages = cache_pages;
    cfg.segment_arcs = segment_arcs;
    cfg
}

/// The full agreement contract: global shape, fingerprint, per-vertex
/// degree and neighbor slice (reassembled across page boundaries), and
/// the derived degree statistics.
fn assert_backends_agree(label: &str, mem: &Csr, spill: &SpillCsr) {
    assert_eq!(spill.num_vertices(), mem.num_vertices(), "{label}: vertex count");
    assert_eq!(spill.num_edges(), mem.num_edges(), "{label}: edge count");
    assert_eq!(spill.fingerprint(), mem.fingerprint(), "{label}: fingerprint");
    for v in 0..mem.num_vertices() as u32 {
        assert_eq!(
            CsrView::degree(spill, v),
            mem.degree(v),
            "{label}: degree of {v}"
        );
        assert_eq!(
            spill.neighbors_vec(v),
            mem.neighbors(v),
            "{label}: neighbor slice of {v}"
        );
    }
    assert_eq!(
        DegreeStats::compute(spill),
        DegreeStats::compute(mem),
        "{label}: degree stats"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random graphs × every family × random page/segment granularity ×
    /// 1/2/8 build threads all agree with the mem-built reference.
    #[test]
    fn spill_matches_mem_across_chunking_and_threads(
        family in 0u8..3,
        scale in 5u32..9,
        seed in 0u64..1_000_000,
        page_pow in 3u32..9,        // 8..=256 targets per page
        segment_arcs in 32u64..4096, // forces multi-segment builds
    ) {
        let spec = match family {
            0 => GraphSpec::urand(scale),
            1 => GraphSpec::kron(scale),
            _ => GraphSpec::friendster_like(scale),
        }
        .seed(seed);
        let mem = spec.build();
        let cfg = cfg("prop", 1 << page_pow, 2, segment_arcs);
        for threads in [1usize, 2, 8] {
            let spill = rayon::with_num_threads(threads, || {
                SpillCsr::build(&spec, &cfg).expect("spill build")
            });
            assert_backends_agree(
                &format!("{} t{threads} p{page_pow} s{segment_arcs}", spec.name()),
                &mem,
                &spill,
            );
        }
    }

    /// The enum front end routes to the same bytes as the backends it
    /// wraps, whichever mode is selected.
    #[test]
    fn storage_enum_is_mode_invariant(scale in 5u32..8, seed in 0u64..1_000_000) {
        let spec = GraphSpec::urand(scale).seed(seed);
        let cfg = cfg("enum", 64, 2, 512);
        let mem = spec.build_with(StorageMode::Mem, &cfg);
        let spill = spec.build_with(StorageMode::Spill, &cfg);
        prop_assert_eq!(mem.fingerprint(), spill.fingerprint());
        prop_assert_eq!(mem.num_vertices(), spill.num_vertices());
        prop_assert_eq!(mem.num_edges(), spill.num_edges());
        // Round-tripping the spill graph back to memory reproduces the
        // mem build exactly.
        let rebuilt = spill.to_mem();
        prop_assert_eq!(mem.as_mem().expect("mem mode holds a Csr"), &rebuilt);
    }
}
