//! Arena-backed row-major feature matrix.
//!
//! [`FeatureMatrix`] holds `rows × cols` values in one contiguous
//! `Vec<f64>`, with rows exposed as contiguous slices. Forest scoring
//! reads it one row at a time (`RandomForest::predict_proba_matrix` is
//! a pool map of the per-row descent, the same call serving makes);
//! nothing on the serving path builds one.

/// A dense `rows × cols` matrix in one contiguous row-major allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl FeatureMatrix {
    /// An all-zero `rows × cols` matrix (one allocation).
    pub fn zeros(rows: usize, cols: usize) -> FeatureMatrix {
        FeatureMatrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Copy a ragged-vector matrix into the arena. Every row must have
    /// the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> FeatureMatrix {
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows cannot form a matrix");
            data.extend_from_slice(r);
        }
        FeatureMatrix {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice (in-place fill).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole arena, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_contiguous_views() {
        let mut m = FeatureMatrix::zeros(3, 4);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(0), &[0.0; 4]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&m.data()[4..8], m.row(1));
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = FeatureMatrix::from_rows(&rows);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(m.row(i), r.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "ragged rows cannot form a matrix")]
    fn ragged_rows_are_rejected() {
        FeatureMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
