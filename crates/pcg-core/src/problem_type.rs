//! The twelve computational problem types of PCGBench (paper Table 1).

use serde::{Deserialize, Serialize};

/// A category of computational problems. Each type has five problems, and
/// each problem has a prompt for all seven execution models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProblemType {
    /// Sort an array or sub-array of values; in-place and out-of-place.
    Sort,
    /// Scan operations, such as prefix sum, over an array of values.
    Scan,
    /// Dense matrix algebra functions from all 3 levels of BLAS.
    DenseLinearAlgebra,
    /// Sparse matrix algebra functions from all 3 levels of BLAS.
    SparseLinearAlgebra,
    /// Search for an element or property in an array of values.
    Search,
    /// Reduction over an array dimension, such as computing a sum.
    Reduce,
    /// Binning values based on a property of the data.
    Histogram,
    /// One iteration of 1D and 2D stencil problems, such as Jacobi.
    Stencil,
    /// Graph algorithms, such as component counting.
    Graph,
    /// Geometric properties, such as convex hull.
    Geometry,
    /// Standard and inverse Fourier transforms.
    FourierTransform,
    /// Map a constant function to each element of an array.
    Transform,
}

impl ProblemType {
    /// All twelve problem types, in Table 1 order.
    pub const ALL: [ProblemType; 12] = [
        ProblemType::Sort,
        ProblemType::Scan,
        ProblemType::DenseLinearAlgebra,
        ProblemType::SparseLinearAlgebra,
        ProblemType::Search,
        ProblemType::Reduce,
        ProblemType::Histogram,
        ProblemType::Stencil,
        ProblemType::Graph,
        ProblemType::Geometry,
        ProblemType::FourierTransform,
        ProblemType::Transform,
    ];

    /// Short figure label (matches the paper's Figure 3 axis labels).
    pub fn label(self) -> &'static str {
        match self {
            ProblemType::Sort => "sort",
            ProblemType::Scan => "scan",
            ProblemType::DenseLinearAlgebra => "dense_la",
            ProblemType::SparseLinearAlgebra => "sparse_la",
            ProblemType::Search => "search",
            ProblemType::Reduce => "reduce",
            ProblemType::Histogram => "histogram",
            ProblemType::Stencil => "stencil",
            ProblemType::Graph => "graph",
            ProblemType::Geometry => "geometry",
            ProblemType::FourierTransform => "fft",
            ProblemType::Transform => "transform",
        }
    }

    /// Table 1 description text.
    pub fn description(self) -> &'static str {
        match self {
            ProblemType::Sort => "Sort an array or sub-array of values; in-place and out-of-place.",
            ProblemType::Scan => "Scan operations, such as prefix sum, over an array of values.",
            ProblemType::DenseLinearAlgebra => {
                "Dense matrix algebra functions from all 3 levels of BLAS."
            }
            ProblemType::SparseLinearAlgebra => {
                "Sparse matrix algebra functions from all 3 levels of BLAS."
            }
            ProblemType::Search => "Search for an element or property in an array of values.",
            ProblemType::Reduce => {
                "Reduction operation over an array dimension, such as computing a sum."
            }
            ProblemType::Histogram => "Binning values based on a property of the data.",
            ProblemType::Stencil => {
                "1 iteration of 1D and 2D stencil problems, such as Jacobi stencil."
            }
            ProblemType::Graph => "Graph algorithms, such as component counting.",
            ProblemType::Geometry => "Compute geometric properties, such as convex hull.",
            ProblemType::FourierTransform => "Compute standard and inverse Fourier transforms.",
            ProblemType::Transform => "Map a constant function to each element of an array.",
        }
    }

    /// Stable index (Table 1 order).
    pub fn index(self) -> usize {
        ProblemType::ALL.iter().position(|t| *t == self).unwrap()
    }

    /// Inverse of [`ProblemType::index`].
    pub fn from_index(i: usize) -> Option<ProblemType> {
        ProblemType::ALL.get(i).copied()
    }

    /// Parse a figure label.
    pub fn parse(s: &str) -> Option<ProblemType> {
        ProblemType::ALL.into_iter().find(|t| t.label() == s)
    }
}

impl std::fmt::Display for ProblemType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_types() {
        assert_eq!(ProblemType::ALL.len(), 12);
    }

    #[test]
    fn index_roundtrip() {
        for (i, t) in ProblemType::ALL.into_iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(ProblemType::from_index(i), Some(t));
            assert_eq!(ProblemType::parse(t.label()), Some(t));
        }
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = ProblemType::ALL.iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 12);
    }

    #[test]
    fn descriptions_nonempty() {
        for t in ProblemType::ALL {
            assert!(!t.description().is_empty());
        }
    }
}
