//! Dense FP32 matrices and the reference operator implementations.
//!
//! These are the "golden" computations the simulated RSN-XNN datapath is
//! validated against — the reproduction's equivalent of the paper artifact's
//! `python_gold` reference outputs.

use serde::{Deserialize, Serialize};

/// Deterministic 64-bit SplitMix generator used for reproducible test data.
///
/// Implemented inline (rather than via the `rand` crate) so the workspace
/// builds in offline environments; the sequence is fixed by the seed and
/// identical on every platform.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A dense, row-major FP32 matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix with uniformly random entries in `[-1, 1)`, seeded
    /// deterministically so tests and benches are reproducible.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut state = seed;
        let data = (0..rows * cols)
            .map(|_| {
                // 24 high bits give a uniform FP32 in [0, 1); map to [-1, 1).
                let unit = (splitmix64(&mut state) >> 40) as f32 / (1u64 << 24) as f32;
                2.0 * unit - 1.0
            })
            .collect();
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }

    /// Row-major data slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major data slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Extracts the sub-matrix starting at `(r0, c0)` with `rows × cols`
    /// elements, zero-padding past the edge (used for tiling).
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        let mut out = Matrix::zeros(rows, cols);
        self.copy_block_into(r0, c0, cols, &mut out.data);
        out
    }

    /// Copies the `rows × cols` block at `(r0, c0)` into `out` (row-major,
    /// `cols` wide, `rows = out.len() / cols`); elements past the edge are
    /// written as zero.  The allocation-free form of [`block`](Self::block).
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero or does not divide `out.len()`.
    pub fn copy_block_into(&self, r0: usize, c0: usize, cols: usize, out: &mut [f32]) {
        assert!(
            cols > 0 && out.len().is_multiple_of(cols),
            "block buffer length mismatch"
        );
        let inside = cols.min(self.cols.saturating_sub(c0));
        for (r, out_row) in out.chunks_exact_mut(cols).enumerate() {
            let (copied, padding) = out_row.split_at_mut(inside);
            if r0 + r < self.rows && inside > 0 {
                let start = (r0 + r) * self.cols + c0;
                copied.copy_from_slice(&self.data[start..start + inside]);
            } else {
                copied.fill(0.0);
            }
            padding.fill(0.0);
        }
    }

    /// Writes `block` into this matrix at `(r0, c0)`, ignoring elements past
    /// the edge.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        self.set_block_from_slice(r0, c0, block.cols, &block.data);
    }

    /// [`set_block`](Self::set_block) from a row-major slice `cols` wide.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero or does not divide `block.len()`.
    pub fn set_block_from_slice(&mut self, r0: usize, c0: usize, cols: usize, block: &[f32]) {
        assert!(
            cols > 0 && block.len().is_multiple_of(cols),
            "block buffer length mismatch"
        );
        let inside = cols.min(self.cols.saturating_sub(c0));
        for (r, row) in block.chunks_exact(cols).enumerate() {
            if r0 + r >= self.rows || inside == 0 {
                break;
            }
            let start = (r0 + r) * self.cols + c0;
            self.data[start..start + inside].copy_from_slice(&row[..inside]);
        }
    }

    /// Dense matrix product `self × rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let row_out = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                let row_rhs = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, b) in row_out.iter_mut().zip(row_rhs.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "add shape mismatch");
        assert_eq!(self.cols, rhs.cols, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Adds a bias row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_bias(&self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        out
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|v| v * s).collect(),
        )
    }

    /// Row-wise softmax (the attention-score normalisation).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(self.cols) {
            softmax_in_place(row);
        }
        out
    }

    /// Element-wise GELU using the tanh approximation (what the PL-side
    /// MemC FUs implement).
    pub fn gelu(&self) -> Matrix {
        let data = self.data.iter().map(|&x| gelu_scalar(x)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Row-wise LayerNorm with learned scale (`gamma`) and shift (`beta`).
    ///
    /// # Panics
    ///
    /// Panics if `gamma` or `beta` length differs from the column count.
    pub fn layer_norm(&self, gamma: &[f32], beta: &[f32], eps: f32) -> Matrix {
        assert_eq!(gamma.len(), self.cols, "gamma length mismatch");
        assert_eq!(beta.len(), self.cols, "beta length mismatch");
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(self.cols) {
            layer_norm_in_place(row, gamma, beta, eps);
        }
        out
    }

    /// Maximum absolute difference against another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f32, f32::max)
    }

    /// Consumes the matrix, returning the row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

/// Scalar GELU (tanh approximation).
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + ((2.0 / std::f32::consts::PI).sqrt() * (x + 0.044_715 * x * x * x)).tanh())
}

/// Softmax of one row, in place — [`Matrix::softmax_rows`]'s per-row step,
/// shared with datapath FUs that transform tiles without copying them.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// LayerNorm of one row, in place — [`Matrix::layer_norm`]'s per-row step.
///
/// # Panics
///
/// Panics if `gamma` or `beta` is shorter than the row.
pub fn layer_norm_in_place(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    for (c, v) in row.iter_mut().enumerate() {
        *v = (*v - mean) * inv * gamma[c] + beta[c];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::random(5, 5, 1);
        let mut eye = Matrix::zeros(5, 5);
        for i in 0..5 {
            *eye.at_mut(i, i) = 1.0;
        }
        assert!(a.matmul(&eye).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::random(3, 7, 2);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::random(4, 6, 3);
        let s = a.softmax_rows();
        for r in 0..4 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn layer_norm_zero_mean_unit_variance() {
        let a = Matrix::random(3, 64, 4);
        let gamma = vec![1.0; 64];
        let beta = vec![0.0; 64];
        let n = a.layer_norm(&gamma, &beta, 1e-5);
        for r in 0..3 {
            let mean: f32 = n.row(r).iter().sum::<f32>() / 64.0;
            let var: f32 = n
                .row(r)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 64.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn gelu_known_values() {
        assert!((gelu_scalar(0.0)).abs() < 1e-7);
        assert!((gelu_scalar(100.0) - 100.0).abs() < 1e-3);
        assert!(gelu_scalar(-100.0).abs() < 1e-3);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn bias_and_add_and_scale() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = a.add_bias(&[10.0, 20.0]);
        assert_eq!(b.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        let c = a.add(&a);
        assert_eq!(c.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        let d = a.scale(0.5);
        assert_eq!(d.as_slice(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn block_and_set_block_roundtrip() {
        let a = Matrix::random(6, 6, 5);
        let blk = a.block(2, 2, 3, 3);
        let mut b = Matrix::zeros(6, 6);
        b.set_block(2, 2, &blk);
        assert_eq!(b.at(3, 3), a.at(3, 3));
        assert_eq!(b.at(0, 0), 0.0);
        // Padding past the edge is zero.
        let edge = a.block(5, 5, 3, 3);
        assert_eq!(edge.at(2, 2), 0.0);
        assert_eq!(edge.at(0, 0), a.at(5, 5));
        // Blocks entirely past the edge read as zeros and write nothing.
        assert!(a.block(7, 9, 2, 2).as_slice().iter().all(|&v| v == 0.0));
        b.set_block(6, 6, &blk);
        assert_eq!(b.at(3, 3), a.at(3, 3));
    }

    #[test]
    fn slice_block_copies_match_element_wise_definition() {
        let a = Matrix::random(5, 7, 6);
        for (r0, c0, rows, cols) in [(0, 0, 5, 7), (1, 2, 3, 4), (3, 5, 4, 4), (4, 6, 1, 1)] {
            let mut out = vec![9.0; rows * cols];
            a.copy_block_into(r0, c0, cols, &mut out);
            for r in 0..rows {
                for c in 0..cols {
                    let expected = if r0 + r < 5 && c0 + c < 7 {
                        a.at(r0 + r, c0 + c)
                    } else {
                        0.0
                    };
                    assert_eq!(out[r * cols + c], expected, "({r0},{c0}) [{r},{c}]");
                }
            }
            let mut b = Matrix::zeros(5, 7);
            b.set_block_from_slice(r0, c0, cols, &out);
            for r in 0..5 {
                for c in 0..7 {
                    let inside = (r0..r0 + rows).contains(&r) && (c0..c0 + cols).contains(&c);
                    let expected = if inside { a.at(r, c) } else { 0.0 };
                    assert_eq!(b.at(r, c), expected);
                }
            }
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(Matrix::random(4, 4, 9), Matrix::random(4, 4, 9));
        assert_ne!(Matrix::random(4, 4, 9), Matrix::random(4, 4, 10));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }
}
