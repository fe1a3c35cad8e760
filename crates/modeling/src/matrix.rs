//! Small dense row-major matrices.
//!
//! Only the operations ordinary least squares needs are provided; this is
//! deliberately not a general linear-algebra library. Matrices in this
//! workspace are tiny (the largest is `n_samples × n_features` with a
//! handful of features), so simple `O(n³)` algorithms are the right tool.
//! The row-sweep inner loops ([`matmul`](Matrix::matmul),
//! [`gram`](Matrix::gram), [`transpose_vec_mul`](Matrix::transpose_vec_mul))
//! accumulate through the workspace-wide [`tdp_simd::axpy`] kernel —
//! elementwise, so its scalar and AVX2 flavours produce bit-identical results.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use tdp_modeling::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(a[(0, 1)], 2.0);
/// assert_eq!(a.transpose()[(1, 0)], 2.0);
/// let b = a.matmul(&Matrix::identity(2));
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a single-column matrix from a slice.
    pub fn column(values: &[f64]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
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

    /// Borrow of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                tdp_simd::axpy(out_row, a, rhs.row(k));
            }
        }
        out
    }

    /// Computes `selfᵀ · self` (the Gram matrix) without materialising the
    /// transpose.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let v = row[i];
                if v == 0.0 {
                    continue;
                }
                tdp_simd::axpy(&mut out.row_mut(i)[i..], v, &row[i..]);
            }
        }
        // mirror the upper triangle
        for i in 0..self.cols {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// Computes `selfᵀ · y` where `y` has one value per row of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()`.
    pub fn transpose_vec_mul(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "vector length must match row count");
        let mut out = vec![0.0; self.cols];
        for (r, &w) in y.iter().enumerate() {
            tdp_simd::axpy(&mut out, w, self.row(r));
        }
        out
    }

    /// Solves `self · x = b` by Gaussian elimination with partial
    /// pivoting. Returns `None` if the matrix is singular (pivot below
    /// `1e-12` of the largest row scale).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `b.len()` mismatches.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length must match");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        // scale factors for pivoting robustness
        let mut scale = vec![0.0f64; n];
        for (i, s) in scale.iter_mut().enumerate() {
            *s = a[i * n..(i + 1) * n]
                .iter()
                .fold(0.0f64, |m, &v| m.max(v.abs()));
            if *s == 0.0 {
                return None;
            }
        }

        for col in 0..n {
            // find pivot
            let mut pivot_row = col;
            let mut best = 0.0;
            for (r, s) in scale.iter().enumerate().take(n).skip(col) {
                let candidate = (a[r * n + col] / s).abs();
                if candidate > best {
                    best = candidate;
                    pivot_row = r;
                }
            }
            if a[pivot_row * n + col].abs() < 1e-12 * scale[pivot_row] {
                return None;
            }
            if pivot_row != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
                x.swap(col, pivot_row);
                scale.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for r in col + 1..n {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }

        // back-substitution
        for col in (0..n).rev() {
            let mut sum = x[col];
            for c in col + 1..n {
                sum -= a[col * n + c] * x[c];
            }
            x[col] = sum / a[col * n + col];
        }
        Some(x)
    }

    /// Multiplies every diagonal element by `factor` (relative ridge
    /// damping), in place.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn scale_diagonal(&mut self, factor: f64) {
        assert_eq!(self.rows, self.cols);
        for i in 0..self.rows {
            self[(i, i)] *= factor;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.6}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn solve_known_3x3() {
        // x + 2y + 3z = 14; 2x + 5y + 2z = 18; 3x + y + 5z = 20 → (1,2,3)
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![2.0, 5.0, 2.0],
            vec![3.0, 1.0, 5.0],
        ]);
        let x = a.solve(&[14.0, 18.0, 20.0]).unwrap();
        assert_close(&x, &[1.0, 2.0, 3.0], 1e-9);
    }

    #[test]
    fn solve_requires_pivoting() {
        // leading zero pivot forces a row swap
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[5.0, 7.0]).unwrap();
        assert_close(&x, &[7.0, 5.0], 1e-12);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
        let zero = Matrix::zeros(2, 2);
        assert!(zero.solve(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, -1.0],
            vec![0.5, -3.0, 2.0],
            vec![4.0, 0.0, 1.0],
            vec![-1.0, 1.5, 0.25],
        ]);
        let explicit = a.transpose().matmul(&a);
        let gram = a.gram();
        for i in 0..3 {
            for j in 0..3 {
                assert!((explicit[(i, j)] - gram[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_vec_mul_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let y = [1.0, -1.0, 2.0];
        let v = a.transpose_vec_mul(&y);
        let m = a.transpose().matmul(&Matrix::column(&y));
        assert_close(&v, &[m[(0, 0)], m[(1, 0)]], 1e-12);
    }

    #[test]
    fn identity_solve_is_identity() {
        let i = Matrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_close(&i.solve(&b).unwrap(), &b, 1e-15);
    }

    #[test]
    fn display_contains_all_entries() {
        let m = Matrix::from_rows(&[vec![1.5, 2.5]]);
        let s = m.to_string();
        assert!(s.contains("1.5") && s.contains("2.5"));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
