//! Golden fingerprints of the generator output.
//!
//! Every experiment's numbers start from these graphs, so a change to
//! the random stream behind a generator (the PRNG, its seeding, range
//! reduction or shuffle) silently moves every result. These pins catch
//! such a drift at the graph layer: they must not change unless the
//! datasets are meant to change.

use cxlg_graph::{reorder, GraphSpec};

#[test]
fn generator_fingerprints_are_pinned() {
    let cases = [
        (GraphSpec::urand(12).seed(0x5EED), 0x8075_a3df_e78e_46d8u64),
        (GraphSpec::kron(12).seed(0x5EED), 0x4c8e_2fa8_4452_1cd5),
        (GraphSpec::friendster_like(12).seed(0x5EED), 0x9aa6_353b_07c2_2b03),
    ];
    for (spec, want) in cases {
        let got = spec.build().fingerprint();
        assert_eq!(got, want, "{}: fingerprint {got:#018x}", spec.name());
    }
}

#[test]
fn random_relabel_fingerprint_is_pinned() {
    let g = GraphSpec::kron(10).build();
    let got = reorder::random(&g, 7).fingerprint();
    assert_eq!(got, 0x1fb3_21fa_f694_32fa, "fingerprint {got:#018x}");
}
