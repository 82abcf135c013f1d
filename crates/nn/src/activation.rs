//! Element-wise activations.
//!
//! The paper uses ReLU between all layers of the UIS classifier (§VIII-A);
//! `Identity` serves final logit layers, and `Sigmoid`/`Tanh` are provided
//! for completeness and ablations.

/// Supported element-wise activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)` — the paper's default hidden activation.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through (used for logit outputs).
    Identity,
}

impl Activation {
    /// Apply the activation to a pre-activation value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative with respect to the pre-activation value `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }

    /// Apply in place over a slice.
    pub fn apply_slice(self, xs: &mut [f64]) {
        // One loop per activation, so the ReLU and identity loops
        // vectorize.
        match self {
            Activation::Relu => xs.iter_mut().for_each(|x| *x = x.max(0.0)),
            Activation::Identity => {}
            _ => xs.iter_mut().for_each(|x| *x = self.apply(*x)),
        }
    }

    /// Backpropagate through the activation in place: `d[i] *=
    /// derivative(z[i])`, turning `dL/da` into `dL/dz` for the
    /// pre-activations `z`.
    pub fn mul_derivative(self, d: &mut [f64], z: &[f64]) {
        debug_assert_eq!(d.len(), z.len());
        match self {
            Activation::Relu => {
                for (d, &z) in d.iter_mut().zip(z) {
                    *d *= if z > 0.0 { 1.0 } else { 0.0 };
                }
            }
            _ => {
                for (d, &z) in d.iter_mut().zip(z) {
                    *d *= self.derivative(z);
                }
            }
        }
    }

    /// Apply the activation to a single-precision pre-activation value
    /// (the pool-scoring fast path). Matches [`Activation::apply`] to
    /// within `f32` round-off.
    #[inline]
    pub fn apply_f32(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => sigmoid_f32(x),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Apply in place over an `f32` slice.
    pub fn apply_slice_f32(self, xs: &mut [f32]) {
        for x in xs {
            *x = self.apply_f32(*x);
        }
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable single-precision logistic sigmoid.
#[inline]
pub fn sigmoid_f32(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(!sigmoid(-745.0).is_nan());
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            for &x in &[-1.7, -0.3, 0.4, 2.2] {
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn apply_slice_transforms_all() {
        let mut xs = [-1.0, 0.5, 2.0];
        Activation::Relu.apply_slice(&mut xs);
        assert_eq!(xs, [0.0, 0.5, 2.0]);
    }

    #[test]
    fn f32_activations_track_f64() {
        for act in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            for &x in &[-100.0f64, -1.7, -0.3, 0.0, 0.4, 2.2, 100.0] {
                let exact = act.apply(x);
                let fast = act.apply_f32(x as f32) as f64;
                assert!(
                    (exact - fast).abs() < 1e-6,
                    "{act:?} at {x}: {exact} vs {fast}"
                );
            }
        }
        assert!(!sigmoid_f32(-100.0).is_nan());
        let mut xs = [-1.0f32, 0.5, 2.0];
        Activation::Relu.apply_slice_f32(&mut xs);
        assert_eq!(xs, [0.0f32, 0.5, 2.0]);
    }
}
