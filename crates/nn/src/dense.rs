//! A single fully connected layer.

use crate::activation::Activation;
use crate::init;
use crate::kernel::Epilogue;
use crate::matrix::Matrix;
use rand::Rng;

/// A dense layer `z = W·x + b` with `W: out × in`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weight matrix, `out_dim × in_dim`.
    pub w: Matrix,
    /// Bias vector, `out_dim`.
    pub b: Vec<f64>,
}

impl Dense {
    /// He-uniform initialized layer (suits the ReLU stacks of §VI-A).
    pub fn he_init<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let bound = init::he_bound(in_dim);
        Self {
            w: Matrix::uniform(out_dim, in_dim, bound, rng),
            b: vec![0.0; out_dim],
        }
    }

    /// Zero-initialized layer (placeholder shape for parameter loading).
    pub fn zeros(in_dim: usize, out_dim: usize) -> Self {
        Self {
            w: Matrix::zeros(out_dim, in_dim),
            b: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Number of scalar parameters (`w` then `b` in the flat layout).
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Forward pass: `z = W·x + b`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut z = Vec::new();
        self.forward_into(x, &mut z);
        z
    }

    /// [`Dense::forward`] into a reused buffer, which is resized to
    /// `out_dim()` and overwritten.
    pub(crate) fn forward_into(&self, x: &[f64], z: &mut Vec<f64>) {
        z.resize(self.out_dim(), 0.0);
        self.w.matvec_into(x, z);
        for (zi, bi) in z.iter_mut().zip(&self.b) {
            *zi += bi;
        }
    }

    /// Batched forward pass: `Z = X·Wᵀ + b` with one input tuple per row of
    /// `x` (`batch × in_dim`), the bias added in the kernel epilogue. Each
    /// output row agrees with [`Dense::forward`] on the corresponding input
    /// row **bitwise** (the batch kernel sums each output over the inputs
    /// in the same index order, then adds the bias; see
    /// [`Matrix::matmul_nt_ep`]) and depends only on that input row, never
    /// on the rest of the batch.
    ///
    /// ```
    /// use lte_nn::{Dense, Matrix};
    ///
    /// let mut layer = Dense::zeros(3, 2);
    /// layer.b = vec![1.0, -1.0];
    /// let batch = Matrix::from_rows(&[vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]], 3);
    /// let z = layer.forward_batch(&batch);
    /// assert_eq!(z.rows(), 2);
    /// assert_eq!(z.row(0), layer.forward(&[0.1, 0.2, 0.3]).as_slice());
    /// ```
    ///
    /// # Panics
    /// Panics when `x.cols() != in_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        self.forward_batch_act(x, Activation::Identity)
    }

    /// [`Dense::forward_batch`] followed by `act`, fused into the same
    /// kernel epilogue: `act(X·Wᵀ + b)`.
    pub(crate) fn forward_batch_act(&self, x: &Matrix, act: Activation) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "batch input width mismatch");
        x.matmul_nt_ep(&self.w, Epilogue::new(&self.b, act))
    }

    /// Backward pass. Given `dL/dz` and the cached input `x`, accumulates
    /// `dL/dW` and `dL/db` into the provided flat gradient slice (laid out
    /// `w` row-major then `b`) and returns `dL/dx`.
    pub fn backward(&self, x: &[f64], dz: &[f64], grad: &mut [f64]) -> Vec<f64> {
        let (rows, cols) = (self.w.rows(), self.w.cols());
        debug_assert_eq!(x.len(), cols);
        debug_assert_eq!(dz.len(), rows);
        debug_assert_eq!(grad.len(), self.param_count());

        // dW[r][c] += dz[r] * x[c]; db[r] += dz[r].
        for r in 0..rows {
            let d = dz[r];
            if d != 0.0 {
                let row = &mut grad[r * cols..(r + 1) * cols];
                for (g, &xv) in row.iter_mut().zip(x) {
                    *g += d * xv;
                }
            }
        }
        let b_off = rows * cols;
        for (r, &d) in dz.iter().enumerate() {
            grad[b_off + r] += d;
        }

        // dx = Wᵀ·dz.
        self.w.matvec_t(dz)
    }

    /// Batched [`Dense::backward`] over one example per row: `x` holds the
    /// inputs (`batch × in_dim`) and `dz` each example's `dL/dz`
    /// (`batch × out_dim`). **Overwrites** `grad` (flat, `w` row-major then
    /// `b`) with the gradient summed over the batch, as two kernel
    /// products: `dW = dZᵀ·X` ([`Matrix::matmul_tn`]) and `db` the column
    /// sums of `dZ`. When `want_dx`, returns `dX = dZ·W`
    /// ([`Matrix::matmul_nn`]), one example's `dL/dx` per row.
    ///
    /// For finite operands, `grad` equals `backward` of each row in turn
    /// into a zeroed buffer, and each row of `dX` equals that row's
    /// returned `dL/dx`, **bit for bit**. Each entry is the same sum: it
    /// starts from `+0.0` and adds `d·x` (or `d·w`) in example (or output)
    /// order, one multiply then one add. `backward` skips rows whose `d` is
    /// zero, and the products here add their `±0` instead. A sum that
    /// starts from `+0.0` is never `−0.0`, so adding `±0` changes no bit.
    /// That holds only while the other operand is finite: `0·∞` is NaN.
    /// Bias sums add every `d`, as `backward` does.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn backward_batch(
        &self,
        x: &Matrix,
        dz: &Matrix,
        grad: &mut [f64],
        want_dx: bool,
    ) -> Option<Matrix> {
        let (rows, cols) = (self.w.rows(), self.w.cols());
        assert_eq!(x.cols(), cols, "batch input width mismatch");
        assert_eq!(dz.cols(), rows, "batch output-gradient width mismatch");
        assert_eq!(x.rows(), dz.rows(), "batch size mismatch");
        assert_eq!(grad.len(), self.param_count(), "flat size mismatch");
        let (gw, gb) = grad.split_at_mut(rows * cols);
        gw.copy_from_slice(dz.matmul_tn(x).data());
        gb.fill(0.0);
        for e in 0..dz.rows() {
            for (g, &d) in gb.iter_mut().zip(dz.row(e)) {
                *g += d;
            }
        }
        want_dx.then(|| dz.matmul_nn(&self.w))
    }

    /// Copy parameters into a flat slice (`w` row-major then `b`).
    pub fn write_params(&self, out: &mut [f64]) {
        let wn = self.w.rows() * self.w.cols();
        out[..wn].copy_from_slice(self.w.data());
        out[wn..wn + self.b.len()].copy_from_slice(&self.b);
    }

    /// Load parameters from a flat slice (`w` row-major then `b`).
    pub fn read_params(&mut self, src: &[f64]) {
        let wn = self.w.rows() * self.w.cols();
        let bn = self.b.len();
        self.w.data_mut().copy_from_slice(&src[..wn]);
        self.b.copy_from_slice(&src[wn..wn + bn]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_hand_computation() {
        let mut layer = Dense::zeros(2, 2);
        layer.w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        layer.b = vec![0.5, -0.5];
        assert_eq!(layer.forward(&[1.0, 1.0]), vec![3.5, 6.5]);
    }

    #[test]
    fn param_round_trip() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::he_init(3, 2, &mut rng);
        let mut flat = vec![0.0; layer.param_count()];
        layer.write_params(&mut flat);
        let mut other = Dense::zeros(3, 2);
        other.read_params(&flat);
        assert_eq!(layer, other);
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::he_init(3, 2, &mut rng);
        let x = [0.3, -0.7, 1.1];
        // Scalar loss L = sum(z).
        let dz = [1.0, 1.0];
        let mut grad = vec![0.0; layer.param_count()];
        let dx = layer.backward(&x, &dz, &mut grad);

        let h = 1e-6;
        let loss = |l: &Dense, x: &[f64]| -> f64 { l.forward(x).iter().sum() };

        // Check dW and db numerically.
        let mut flat = vec![0.0; layer.param_count()];
        layer.write_params(&mut flat);
        for i in 0..flat.len() {
            let mut plus = layer.clone();
            let mut fp = flat.clone();
            fp[i] += h;
            plus.read_params(&fp);
            let mut minus = layer.clone();
            let mut fm = flat.clone();
            fm[i] -= h;
            minus.read_params(&fm);
            let numeric = (loss(&plus, &x) - loss(&minus, &x)) / (2.0 * h);
            assert!(
                (numeric - grad[i]).abs() < 1e-5,
                "param {i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }

        // Check dx numerically.
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let numeric = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * h);
            assert!((numeric - dx[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_batch_rows_match_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Dense::he_init(5, 4, &mut rng);
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..5).map(|j| ((i * 5 + j) as f64 * 0.3).sin()).collect())
            .collect();
        let batch = layer.forward_batch(&Matrix::from_rows(&rows, 5));
        assert_eq!(batch.rows(), 9);
        assert_eq!(batch.cols(), 4);
        for (i, row) in rows.iter().enumerate() {
            for (a, b) in batch.row(i).iter().zip(&layer.forward(row)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}: {a} vs {b}");
            }
        }
        // Empty batch keeps the output width.
        let empty = layer.forward_batch(&Matrix::from_rows(&[], 5));
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.cols(), 4);
    }

    #[test]
    fn he_init_bounds_scale_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(2);
        let wide = Dense::he_init(1000, 4, &mut rng);
        let bound = crate::init::he_bound(1000);
        assert!(wide.w.data().iter().all(|v| v.abs() <= bound));
        assert!(wide.b.iter().all(|&v| v == 0.0));
    }
}
