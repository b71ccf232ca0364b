//! Degree statistics — the quantities reported in Table 1 of the paper:
//! vertex count, edge count (and edge-list size in bytes), and average
//! degree / sublist size computed over non-isolated vertices.

use crate::layout::BYTES_PER_ID;
use crate::storage::CsrView;
use serde::{Deserialize, Serialize};

/// Summary statistics for one dataset (one row of Table 1, plus extras).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: u64,
    /// Number of directed edges.
    pub num_edges: u64,
    /// Edge-list size in bytes at 8 bytes per neighbor ID.
    pub edge_list_bytes: u64,
    /// Vertices with degree zero (excluded from the averages, per the
    /// Table 1 footnote).
    pub num_isolated: u64,
    /// Average degree over non-isolated vertices.
    pub avg_degree_nonzero: f64,
    /// Average edge-sublist size in bytes over non-isolated vertices
    /// (`avg_degree_nonzero * 8`).
    pub avg_sublist_bytes: f64,
    /// Largest out-degree.
    pub max_degree: u64,
    /// Median out-degree over non-isolated vertices.
    pub median_degree_nonzero: u64,
}

impl DegreeStats {
    /// Compute statistics for a CSR in any storage backend (only the
    /// resident offsets are consulted — no edge data is paged in).
    pub fn compute<G: CsrView + ?Sized>(g: &G) -> Self {
        let n = g.num_vertices() as u64;
        let m = g.num_edges();
        let mut nonzero: Vec<u64> = (0..g.num_vertices())
            .map(|v| g.degree(v as u32))
            .filter(|&d| d > 0)
            .collect();
        nonzero.sort_unstable();
        let isolated = n - nonzero.len() as u64;
        let avg = if nonzero.is_empty() {
            0.0
        } else {
            m as f64 / nonzero.len() as f64
        };
        let median = if nonzero.is_empty() {
            0
        } else {
            nonzero[nonzero.len() / 2]
        };
        DegreeStats {
            num_vertices: n,
            num_edges: m,
            edge_list_bytes: m * BYTES_PER_ID,
            num_isolated: isolated,
            avg_degree_nonzero: avg,
            avg_sublist_bytes: avg * BYTES_PER_ID as f64,
            max_degree: nonzero.last().copied().unwrap_or(0),
            median_degree_nonzero: median,
        }
    }

    /// Format as a Table 1-style row:
    /// `name | vertices | edges (size) | avg degree (sublist bytes)`.
    pub fn table1_row(&self, name: &str) -> String {
        format!(
            "{:<14} {:>12} {:>14} ({:>9}) {:>7.1} ({:>7.1} B)",
            name,
            self.num_vertices,
            self.num_edges,
            human_bytes(self.edge_list_bytes),
            self.avg_degree_nonzero,
            self.avg_sublist_bytes,
        )
    }
}

/// Render a byte count with a binary-ish decimal suffix as the paper does
/// (GB = 10^9 B).
fn human_bytes(b: u64) -> String {
    const UNITS: [(&str, u64); 4] = [
        ("GB", 1_000_000_000),
        ("MB", 1_000_000),
        ("kB", 1_000),
        ("B", 1),
    ];
    for (suffix, div) in UNITS {
        if b >= div {
            return format!("{:.1} {}", b as f64 / div as f64, suffix);
        }
    }
    "0 B".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::csr_from_edges;
    use crate::csr::Csr;
    use crate::spec::GraphSpec;

    #[test]
    fn stats_on_known_graph() {
        // 4 vertices, degrees 4, 5, 1, 1, one isolated would change counts.
        let g = Csr::from_parts(vec![0, 4, 9, 10, 11], vec![3, 1, 2, 1, 3, 1, 2, 0, 2, 3, 0]);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 11);
        assert_eq!(s.edge_list_bytes, 88);
        assert_eq!(s.num_isolated, 0);
        assert!((s.avg_degree_nonzero - 11.0 / 4.0).abs() < 1e-12);
        assert!((s.avg_sublist_bytes - 22.0).abs() < 1e-12);
        assert_eq!(s.max_degree, 5);
    }

    #[test]
    fn isolated_vertices_excluded_from_average() {
        // Table 1 footnote: "0-degree vertices are excluded from the average".
        let g = Csr::from_parts(vec![0, 0, 0, 4], vec![0, 1, 2, 0]);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.num_isolated, 2);
        assert!((s.avg_degree_nonzero - 4.0).abs() < 1e-12);
    }

    #[test]
    fn urand_average_sublist_matches_table1_shape() {
        // Table 1: urand has avg degree 32.0 => 256.0 B sublists.
        let g = GraphSpec::urand(12).seed(1).build();
        let s = DegreeStats::compute(&g);
        assert!((s.avg_degree_nonzero - 32.0).abs() < 0.5, "{}", s.avg_degree_nonzero);
        assert!((s.avg_sublist_bytes - 256.0).abs() < 4.0, "{}", s.avg_sublist_bytes);
    }

    #[test]
    fn empty_graph_stats() {
        let g = csr_from_edges(5, &[], false, false);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.num_edges, 0);
        assert_eq!(s.num_isolated, 5);
        assert_eq!(s.avg_degree_nonzero, 0.0);
        assert_eq!(s.max_degree, 0);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(999), "999.0 B");
        assert_eq!(human_bytes(35_200_000_000), "35.2 GB");
        assert_eq!(human_bytes(268_000_000), "268.0 MB");
    }

    #[test]
    fn table1_row_contains_key_figures() {
        let g = GraphSpec::urand(10).seed(1).build();
        let s = DegreeStats::compute(&g);
        let row = s.table1_row("urand10");
        assert!(row.contains("urand10"));
        assert!(row.contains("1024"));
    }
}
