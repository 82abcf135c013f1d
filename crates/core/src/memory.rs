//! Memory-augmented optimization (§VI-B).
//!
//! Plain MAML assigns the *same* learned initialization to every task, which
//! makes it easy to slip into local optima. LTE (following MAMO) adds two
//! memories that turn the initialization task-wise:
//!
//! * **UIS-feature memory** — `MvR ∈ R^{m×ku}` stores `m` implicit *modes*
//!   of UIS feature vectors; attention `aR = softmax(cos(vR, MvR))` (Eq. 7)
//!   retrieves a bias `ωR = aRᵀ·MR` (Eq. 8) from the parameter matrix
//!   `MR ∈ R^{m×|θR|}`, and the task-wise initialization is
//!   `θR ⇐ φR − σ·ωR` (Eq. 6).
//! * **Embedding-conversion memory** — `MCP ∈ R^{m×Ne×2Ne}` stores mode-wise
//!   conversion parameters; the task-wise `Mcp = aRᵀ·MCP` (Eq. 10) is
//!   fine-tuned locally by backprop and written back attentively.
//!
//! Writes blend new information at rates η/β/γ (Eqs. 14–16).

use lte_nn::matrix::{cosine, softmax_inplace};
use lte_nn::Matrix;
use rand::Rng;

/// Row-wise attentive convex blend: `row_i ⇐ (1−rate·a_i)·row_i +
/// rate·a_i·content`.
fn blend_rows(matrix: &mut Matrix, attention: &[f64], content: &[f64], rate: f64) {
    assert_eq!(attention.len(), matrix.rows(), "attention width mismatch");
    assert_eq!(content.len(), matrix.cols(), "content width mismatch");
    for (i, &ai) in attention.iter().enumerate() {
        let r = (rate * ai).clamp(0.0, 1.0);
        if r == 0.0 {
            continue;
        }
        let row = matrix.row_mut(i);
        for (m, &c) in row.iter_mut().zip(content) {
            *m = (1.0 - r) * *m + r * c;
        }
    }
}

/// The two memories of the meta-learner.
#[derive(Debug, Clone)]
pub struct Memories {
    /// `MvR`: `m × ku` UIS-feature mode matrix.
    pub mvr: Matrix,
    /// `MR`: `m × |θR|` embedding-block parameter memory.
    pub mr: Matrix,
    /// `MCP`: `m` mode slices of `Ne × 2Ne` conversion parameters.
    pub mcp: Vec<Matrix>,
}

impl Memories {
    /// Randomly initialized memories (`§VI-C`: random init, updated during
    /// the global phase).
    pub fn init<R: Rng + ?Sized>(
        m: usize,
        ku: usize,
        theta_r_len: usize,
        ne: usize,
        rng: &mut R,
    ) -> Self {
        assert!(m >= 1, "at least one memory mode required");
        Self {
            mvr: Matrix::uniform(m, ku, 0.5, rng),
            mr: Matrix::uniform(m, theta_r_len, 0.01, rng),
            mcp: (0..m)
                .map(|_| {
                    // Same near-identity layout as the classifier's fresh
                    // conversion: modes start as balanced embedding mixers.
                    let mut slice = Matrix::uniform(ne, 2 * ne, 0.02, rng);
                    for i in 0..ne {
                        slice.set(i, i, slice.get(i, i) + 0.5);
                        slice.set(i, ne + i, slice.get(i, ne + i) + 0.5);
                    }
                    slice
                })
                .collect(),
        }
    }

    /// Number of modes `m`.
    pub fn n_modes(&self) -> usize {
        self.mvr.rows()
    }

    /// Attention over modes for a UIS feature vector (Eq. 7):
    /// softmax of cosine similarities against the rows of `MvR`.
    pub fn attention(&self, v_r: &[f64]) -> Vec<f64> {
        assert_eq!(v_r.len(), self.mvr.cols(), "vR width mismatch");
        let mut a: Vec<f64> = (0..self.mvr.rows())
            .map(|i| cosine(v_r, self.mvr.row(i)))
            .collect();
        softmax_inplace(&mut a);
        a
    }

    /// Parameter bias `ωR = aRᵀ·MR` (Eq. 8).
    pub fn omega_r(&self, attention: &[f64]) -> Vec<f64> {
        self.mr.matvec_t(attention)
    }

    /// Task-wise conversion matrix `Mcp = Σ_i aR[i]·MCP[i]` (Eq. 10).
    pub fn read_mcp(&self, attention: &[f64]) -> Matrix {
        assert_eq!(attention.len(), self.mcp.len(), "attention width mismatch");
        let (rows, cols) = (self.mcp[0].rows(), self.mcp[0].cols());
        let mut out = Matrix::zeros(rows, cols);
        for (ai, slice) in attention.iter().zip(&self.mcp) {
            out.add_scaled(slice, *ai);
        }
        out
    }

    /// Eq. 14: `MvR ⇐ η·(aR × vRᵀ) + (1−η)·MvR`, realized as a row-wise
    /// convex blend at rate `η·aR[i]`.
    ///
    /// A literal reading of Eqs. 14–16 decays *unattended* rows towards zero
    /// on every write (the decay factor applies to the whole matrix but the
    /// attentive write only tops up attended rows), which collapses memory
    /// scale over thousands of tasks. Blending each row `i` at rate
    /// `η·aR[i]` keeps the attentive semantics — rows move towards the new
    /// content proportionally to their attention — while preserving scale;
    /// this matches MAMO's behaviour.
    pub fn update_mvr(&mut self, attention: &[f64], v_r: &[f64], eta: f64) {
        blend_rows(&mut self.mvr, attention, v_r, eta);
    }

    /// Eq. 15: `MR ⇐ β·(aR × ∇θR Lᵀ) + (1−β)·MR` (row-wise convex blend;
    /// see [`Memories::update_mvr`]).
    pub fn update_mr(&mut self, attention: &[f64], grad_r: &[f64], beta: f64) {
        blend_rows(&mut self.mr, attention, grad_r, beta);
    }

    /// Eq. 16: `MCP[i] ⇐ γ·aR[i]·Mcp + (1−γ)·MCP[i]` (per-slice convex
    /// blend at rate `γ·aR[i]`; see [`Memories::update_mvr`]).
    pub fn update_mcp(&mut self, attention: &[f64], mcp_local: &Matrix, gamma: f64) {
        for (ai, slice) in attention.iter().zip(&mut self.mcp) {
            let rate = (gamma * ai).clamp(0.0, 1.0);
            slice.scale(1.0 - rate);
            slice.add_scaled(mcp_local, rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_data::rng::seeded;

    fn mems() -> Memories {
        let mut rng = seeded(0);
        Memories::init(4, 8, 20, 5, &mut rng)
    }

    #[test]
    fn shapes_are_consistent() {
        let m = mems();
        assert_eq!(m.n_modes(), 4);
        assert_eq!(m.mvr.cols(), 8);
        assert_eq!(m.mr.cols(), 20);
        assert_eq!(m.mcp.len(), 4);
        assert_eq!(m.mcp[0].rows(), 5);
        assert_eq!(m.mcp[0].cols(), 10);
    }

    #[test]
    fn attention_is_a_distribution() {
        let m = mems();
        let a = m.attention(&[1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        assert_eq!(a.len(), 4);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(a.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn attention_prefers_similar_modes() {
        let mut m = mems();
        // Plant a mode aligned with a probe vector.
        let probe = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        for (c, &v) in probe.iter().enumerate() {
            m.mvr.set(2, c, v * 10.0);
        }
        let a = m.attention(&probe);
        let max_idx = (0..4)
            .max_by(|&i, &j| a[i].partial_cmp(&a[j]).unwrap())
            .unwrap();
        assert_eq!(max_idx, 2, "{a:?}");
    }

    #[test]
    fn omega_is_attention_weighted_row_mix() {
        let mut m = mems();
        // Make MR rows constant per row for a hand-checkable read.
        for r in 0..4 {
            for c in 0..20 {
                m.mr.set(r, c, r as f64);
            }
        }
        let omega = m.omega_r(&[0.0, 0.0, 1.0, 0.0]);
        assert!(omega.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn read_mcp_blends_slices() {
        let mut m = mems();
        for (i, slice) in m.mcp.iter_mut().enumerate() {
            *slice = Matrix::from_fn(5, 10, |_, _| i as f64);
        }
        let read = m.read_mcp(&[0.5, 0.5, 0.0, 0.0]);
        assert!((read.get(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn updates_blend_towards_new_information() {
        let mut m = mems();
        let a = vec![1.0, 0.0, 0.0, 0.0];
        let v = vec![1.0; 8];
        let before = m.mvr.get(0, 0);
        m.update_mvr(&a, &v, 0.5);
        let after = m.mvr.get(0, 0);
        assert!((after - (0.5 * before + 0.5)).abs() < 1e-12);
        // Unattended rows are untouched (scale-preserving attentive write).
        let r3_before = m.mvr.get(3, 0);
        m.update_mvr(&a, &v, 0.5);
        assert!((m.mvr.get(3, 0) - r3_before).abs() < 1e-12);
    }

    #[test]
    fn update_mr_and_mcp_mirror_equations() {
        let mut m = mems();
        let a = vec![0.0, 1.0, 0.0, 0.0];
        let g = vec![2.0; 20];
        let before = m.mr.get(1, 7);
        m.update_mr(&a, &g, 0.25);
        assert!((m.mr.get(1, 7) - (0.75 * before + 0.25 * 2.0)).abs() < 1e-12);

        let local = Matrix::from_fn(5, 10, |_, _| 4.0);
        let before = m.mcp[1].get(2, 2);
        m.update_mcp(&a, &local, 0.5);
        assert!((m.mcp[1].get(2, 2) - (0.5 * before + 0.5 * 4.0)).abs() < 1e-12);
        // Unattended slice is untouched (scale-preserving attentive write).
        let b0 = m.mcp[0].get(0, 0);
        m.update_mcp(&a, &local, 0.5);
        assert!((m.mcp[0].get(0, 0) - b0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "vR width mismatch")]
    fn attention_checks_width() {
        mems().attention(&[0.0; 3]);
    }
}
