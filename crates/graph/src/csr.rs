//! Compressed Sparse Row representation (Figure 1 of the paper).
//!
//! The vertex list stores, per vertex, the start index of its *edge
//! sublist* in the edge list; vertex `v`'s sublist is
//! `targets[offsets[v] .. offsets[v + 1]]`. Edge weights for SSSP are not
//! stored: they are derived deterministically from the endpoint pair
//! ([`Csr::edge_weight`]), which keeps the external edge-list layout
//! exactly as the paper describes (8 bytes per neighbor ID, nothing else).

use crate::VertexId;
use serde::{Deserialize, Serialize};

/// A directed graph in CSR form. For undirected inputs both arc directions
/// are stored explicitly, matching how GAP/EMOGI materialize their
/// datasets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets`; length `n + 1`.
    offsets: Vec<u64>,
    /// Neighbor IDs, grouped by source vertex.
    targets: Vec<VertexId>,
}

impl Csr {
    /// Build directly from the two arrays. Validates monotonicity and
    /// bounds; panics on malformed input (construction is not a hot path).
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n + 1 >= 1");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as u64,
            "last offset must equal edge count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        let n = offsets.len() - 1;
        assert!(n <= VertexId::MAX as usize, "too many vertices for u32 IDs");
        assert!(
            targets.iter().all(|&t| (t as usize) < n),
            "target out of range"
        );
        Csr { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (arcs).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Edge-list index range of `v`'s sublist.
    #[inline]
    pub fn sublist_range(&self, v: VertexId) -> (u64, u64) {
        (self.offsets[v as usize], self.offsets[v as usize + 1])
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, e) = self.sublist_range(v);
        &self.targets[s as usize..e as usize]
    }

    /// Raw offsets array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Number of vertices with degree zero (excluded from the paper's
    /// average-degree figures, per the Table 1 footnote).
    pub fn num_isolated(&self) -> usize {
        (0..self.num_vertices())
            .filter(|&v| self.degree(v as VertexId) == 0)
            .count()
    }

    /// Deterministic edge weight for SSSP, in `[1, max_weight]`. Derived
    /// from the endpoints by a 64-bit mix so the same logical graph always
    /// carries the same weights without storing them.
    #[inline]
    pub fn edge_weight(&self, u: VertexId, v: VertexId, max_weight: u32) -> u32 {
        edge_weight(u, v, max_weight)
    }

    /// FNV-1a hash over the raw offsets and targets arrays — a compact
    /// identity for the whole graph. Two `Csr`s are equal iff their
    /// arrays are equal, so fingerprint equality across builders,
    /// storage backends, or thread counts is (collision-negligible)
    /// evidence of bit-identical construction; the determinism tests,
    /// the spill backend's differential gates, and the `cxlg graph-mem`
    /// probe all rely on it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for &o in &self.offsets {
            h.update(&o.to_le_bytes());
        }
        for &t in &self.targets {
            h.update(&t.to_le_bytes());
        }
        h.finish()
    }

    /// The vertex with the largest out-degree (first such on ties);
    /// `None` for an edgeless graph. Useful as a traversal source that is
    /// guaranteed to reach a large component in power-law graphs.
    pub fn max_degree_vertex(&self) -> Option<VertexId> {
        (0..self.num_vertices() as VertexId)
            .max_by_key(|&v| (self.degree(v), std::cmp::Reverse(v)))
            .filter(|&v| self.degree(v) > 0)
    }

    /// Structural sanity check used by tests and the builders: offsets
    /// monotone, targets in range. Returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("empty offsets".into());
        }
        if *self.offsets.last().unwrap() != self.targets.len() as u64 {
            return Err("last offset != edge count".into());
        }
        for (i, w) in self.offsets.windows(2).enumerate() {
            if w[0] > w[1] {
                return Err(format!("offsets decrease at vertex {i}"));
            }
        }
        let n = self.num_vertices();
        for (i, &t) in self.targets.iter().enumerate() {
            if t as usize >= n {
                return Err(format!("target {t} out of range at index {i}"));
            }
        }
        Ok(())
    }
}

/// Deterministic edge weight for SSSP, in `[1, max_weight]` — the free
/// function behind [`Csr::edge_weight`], shared by every storage backend
/// (weights are a pure function of the endpoints, so no backend needs to
/// store them).
///
/// `max_weight` must be at least 1; the SSSP entry points assert it once
/// rather than per edge (0 would divide by zero here). A power-of-two
/// range reduces with a mask, which equals the `%` it replaces and spares
/// a 64-bit division on every relaxation.
#[inline]
pub fn edge_weight(u: VertexId, v: VertexId, max_weight: u32) -> u32 {
    let mut z = ((u as u64) << 32 | v as u64).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    let m = max_weight as u64;
    let r = if max_weight.is_power_of_two() {
        z & (m - 1)
    } else {
        z % m
    };
    1 + r as u32
}

/// Incremental FNV-1a 64, the workspace's graph-identity hash. The spill
/// build streams its fingerprint from disk with this exact state
/// machine, so it is bit-comparable with [`Csr::fingerprint`].
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    /// Fresh hash state.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorb bytes.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// Current hash value (the state is usable after finishing).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::csr_from_edges;

    /// The worked example from Figure 1 of the paper: vertex 1 points to
    /// five vertices whose IDs occupy edge-list indices 4..9.
    fn figure1() -> Csr {
        // Vertex list (start indices): 0, 4, 9, 10, ... (we close with 11)
        let offsets = vec![0, 4, 9, 10, 11];
        let targets = vec![3, 1, 2, 1, 3, 1, 2, 0, 2, 3, 0];
        Csr::from_parts(offsets, targets)
    }

    #[test]
    fn figure1_sublists() {
        let g = figure1();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 11);
        assert_eq!(g.sublist_range(1), (4, 9));
        assert_eq!(g.degree(1), 5);
        assert_eq!(g.neighbors(1), &[3, 1, 2, 0, 2]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn empty_graph() {
        let g = csr_from_edges(10, &[], false, false);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_isolated(), 10);
        assert_eq!(g.max_degree_vertex(), None);
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn rejects_mismatched_edge_count() {
        Csr::from_parts(vec![0, 5], vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_offsets() {
        Csr::from_parts(vec![0, 3, 1, 3], vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_target() {
        Csr::from_parts(vec![0, 1], vec![5]);
    }

    #[test]
    fn isolated_vertex_count() {
        let g = Csr::from_parts(vec![0, 0, 2, 2, 3], vec![0, 2, 1]);
        assert_eq!(g.num_isolated(), 2);
        assert_eq!(g.max_degree_vertex(), Some(1));
    }

    #[test]
    fn edge_weights_are_deterministic_and_bounded() {
        let g = figure1();
        for u in 0..4u32 {
            for v in 0..4u32 {
                let w = g.edge_weight(u, v, 64);
                assert!((1..=64).contains(&w));
                assert_eq!(w, g.edge_weight(u, v, 64), "non-deterministic");
            }
        }
        // Direction matters.
        assert_ne!(g.edge_weight(0, 1, 1 << 20), g.edge_weight(1, 0, 1 << 20));
    }

    /// The hash behind [`edge_weight`], reduced with a plain `%`.
    fn modulo_weight(u: VertexId, v: VertexId, max_weight: u32) -> u32 {
        let mut z = ((u as u64) << 32 | v as u64).wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        1 + (z % max_weight as u64) as u32
    }

    #[test]
    fn weight_reduction_equals_modulo() {
        // A few thousand endpoint pairs (small IDs, scrambled IDs across
        // the `u32` range, the extremes) at every power-of-two range,
        // which takes the mask, and at 3 and 100, which keep `%`.
        let mut pairs = Vec::new();
        for u in 0..40u32 {
            for v in 0..40u32 {
                pairs.push((u, v));
                pairs.push((
                    u.wrapping_mul(0x9E37_79B9),
                    v.wrapping_mul(0x85EB_CA6B) ^ 0xFFFF_0000,
                ));
            }
        }
        pairs.extend([(u32::MAX, u32::MAX), (u32::MAX, 0), (0, u32::MAX)]);
        for m in (0..=31).map(|k| 1u32 << k).chain([3, 100]) {
            for &(u, v) in &pairs {
                let w = edge_weight(u, v, m);
                assert_eq!(w, modulo_weight(u, v, m), "({u}, {v}) at {m}");
                assert!((1..=m).contains(&w));
            }
        }
    }

    #[test]
    fn fingerprint_tracks_content() {
        let g = figure1();
        assert_eq!(g.fingerprint(), figure1().fingerprint());
        // Any structural change moves the fingerprint.
        let other = Csr::from_parts(vec![0, 4, 9, 10, 11], vec![3, 1, 2, 1, 3, 1, 2, 0, 2, 3, 1]);
        assert_ne!(g.fingerprint(), other.fingerprint());
        let empty = |n| csr_from_edges(n, &[], false, false);
        assert_ne!(empty(3).fingerprint(), empty(4).fingerprint());
    }

    #[test]
    fn validate_spots_corruption() {
        let g = figure1();
        assert!(g.validate().is_ok());
        let bad = Csr {
            offsets: vec![0, 2, 1],
            targets: vec![0],
        };
        assert!(bad.validate().is_err());
    }
}
