//! Data tokens carried on RSN streams.
//!
//! In the physical design a stream edge is a wide wire bundle (the paper's
//! MeshB routes 9 Kbit per cycle).  The functional simulator abstracts one
//! transfer as a [`Token`]: either a scalar, a two-dimensional [`Tile`] of
//! FP32 values, or an opaque control flag.  Moving whole tiles keeps the
//! simulation cost proportional to the number of *transfers*, not the number
//! of scalars, mirroring how the hardware moves a full row of a tile per
//! cycle.

use serde::{Deserialize, Serialize};

/// A dense, row-major FP32 tile streamed between functional units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tile {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tile {
    /// Creates a tile filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tile dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a zero-filled tile in `buffer`'s allocation (its contents are
    /// discarded).
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros_in(rows: usize, cols: usize, buffer: Vec<f32>) -> Self {
        let mut tile = Self {
            rows,
            cols,
            data: buffer,
        };
        tile.reset_zeroed(rows, cols);
        tile
    }

    /// Creates a tile from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "tile dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "tile data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of FP32 elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tile holds no elements (never true for a
    /// constructed tile, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "tile index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "tile index out of bounds");
        &mut self.data[r * self.cols + c]
    }

    /// Row-major view of the underlying data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tile and returns its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reuses this tile's buffer as a zero-filled `rows × cols` tile; no
    /// allocation when the buffer already has the capacity.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "tile dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns the transposed tile.
    pub fn transposed(&self) -> Tile {
        let mut out = Tile::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose of `self` into `out`, which is reshaped to
    /// `cols × rows`.
    pub fn transpose_into(&self, out: &mut Tile) {
        out.reset_zeroed(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// `self * rhs` dense matrix product.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Tile) -> Tile {
        let mut out = Tile::zeros(self.rows, rhs.cols);
        out.matmul_accumulate(self, rhs);
        out
    }

    /// `self += lhs * rhs`, summing over the inner dimension in order (so on
    /// a zeroed tile it yields exactly [`matmul`](Self::matmul)'s values).
    ///
    /// # Panics
    ///
    /// Panics if `lhs.cols() != rhs.rows()` or `self` is not
    /// `lhs.rows() × rhs.cols()`.
    pub fn matmul_accumulate(&mut self, lhs: &Tile, rhs: &Tile) {
        assert_eq!(lhs.cols, rhs.rows, "matmul dimension mismatch");
        assert!(
            self.rows == lhs.rows && self.cols == rhs.cols,
            "matmul output shape mismatch"
        );
        let n = rhs.cols;
        for (out_row, lhs_row) in self
            .data
            .chunks_exact_mut(n)
            .zip(lhs.data.chunks_exact(lhs.cols))
        {
            for (&a, rhs_row) in lhs_row.iter().zip(rhs.data.chunks_exact(n)) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Overwrites this tile with a copy of `src` (shape included), reusing
    /// the buffer.
    pub fn copy_from(&mut self, src: &Tile) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Element-wise accumulation `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, rhs: &Tile) {
        assert_eq!(self.rows, rhs.rows, "accumulate row mismatch");
        assert_eq!(self.cols, rhs.cols, "accumulate col mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Maximum absolute difference against another tile of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, rhs: &Tile) -> f32 {
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f32, f32::max)
    }
}

/// One token transferred over a stream edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Token {
    /// A single FP32 value.
    Scalar(f32),
    /// A dense FP32 tile.
    Tile(Tile),
    /// An opaque control word (used e.g. for end-of-stream markers).
    Flag(u64),
}

impl Token {
    /// Returns the scalar value, if this token is a scalar.
    pub fn as_scalar(&self) -> Option<f32> {
        match self {
            Token::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns a reference to the tile, if this token is a tile.
    pub fn as_tile(&self) -> Option<&Tile> {
        match self {
            Token::Tile(t) => Some(t),
            _ => None,
        }
    }

    /// Consumes the token and returns the tile, if it is a tile.
    pub fn into_tile(self) -> Option<Tile> {
        match self {
            Token::Tile(t) => Some(t),
            _ => None,
        }
    }

    /// Number of FP32-equivalent words this token occupies on the wire.
    ///
    /// Used by the engine for bandwidth statistics.
    pub fn word_count(&self) -> usize {
        match self {
            Token::Scalar(_) => 1,
            Token::Tile(t) => t.len(),
            Token::Flag(_) => 1,
        }
    }
}

impl From<f32> for Token {
    fn from(v: f32) -> Self {
        Token::Scalar(v)
    }
}

impl From<Tile> for Token {
    fn from(t: Tile) -> Self {
        Token::Tile(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_roundtrip_and_indexing() {
        let t = Tile::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at(0, 0), 1.0);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn tile_transpose_involution() {
        let t = Tile::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.transposed().transposed(), t);
        assert_eq!(t.transposed().at(2, 1), 6.0);
    }

    #[test]
    fn tile_matmul_identity() {
        let a = Tile::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut eye = Tile::zeros(2, 2);
        *eye.at_mut(0, 0) = 1.0;
        *eye.at_mut(1, 1) = 1.0;
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn tile_matmul_known_values() {
        let a = Tile::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tile::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.at(0, 0), 58.0);
        assert_eq!(c.at(0, 1), 64.0);
        assert_eq!(c.at(1, 0), 139.0);
        assert_eq!(c.at(1, 1), 154.0);
    }

    #[test]
    fn matmul_accumulate_adds_onto_existing_values() {
        let a = Tile::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tile::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut c = Tile::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        c.matmul_accumulate(&a, &b);
        assert_eq!(c.as_slice(), &[59.0, 65.0, 140.0, 155.0]);
    }

    #[test]
    fn buffer_reuse_reshapes_and_copies() {
        let a = Tile::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut t = Tile::zeros(8, 8);
        a.transpose_into(&mut t);
        assert_eq!(t, a.transposed());
        t.reset_zeroed(1, 2);
        assert_eq!(t.as_slice(), &[0.0, 0.0]);
        t.copy_from(&a);
        assert_eq!(t, a);
    }

    #[test]
    fn tile_accumulate_adds_elementwise() {
        let mut a = Tile::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Tile::from_vec(1, 2, vec![10.0, 20.0]);
        a.accumulate(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn token_word_count_matches_payload() {
        assert_eq!(Token::Scalar(1.0).word_count(), 1);
        assert_eq!(Token::Flag(7).word_count(), 1);
        assert_eq!(Token::Tile(Tile::zeros(4, 8)).word_count(), 32);
    }

    #[test]
    fn token_conversions() {
        let t: Token = 3.5_f32.into();
        assert_eq!(t.as_scalar(), Some(3.5));
        let tile: Token = Tile::zeros(2, 2).into();
        assert!(tile.as_tile().is_some());
        assert!(tile.clone().into_tile().is_some());
        assert_eq!(Token::Flag(1).as_scalar(), None);
    }

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let a = Tile::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.max_abs_diff(&a.clone()), 0.0);
        let mut b = a.clone();
        *b.at_mut(1, 1) = 4.5;
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn tile_matmul_shape_mismatch_panics() {
        let a = Tile::zeros(2, 3);
        let b = Tile::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
