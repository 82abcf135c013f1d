//! One-dimensional Gaussian mixture models fitted by EM.
//!
//! Per §VII-A, a GMM with `|g|` components captures the feature of a peaked
//! numeric attribute: given a value, the component maximizing the posterior
//! likelihood is its *mode*, and the value is re-expressed relative to that
//! component's mean and spread. 1-D suffices because encoding is always
//! per-attribute.

/// One Gaussian component.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Mixture weight (sums to 1 across components).
    pub weight: f64,
    /// Component mean µ.
    pub mean: f64,
    /// Component standard deviation (σ, not variance), floored for
    /// numerical stability.
    pub std: f64,
}

/// A fitted 1-D Gaussian mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct Gmm {
    components: Vec<Component>,
    log_likelihood: f64,
    iterations: usize,
}

/// The value-independent terms of one component's log joint density:
/// `ln w` (the weight floored at `1e-300`), `ln σ` and `½·ln 2π`, computed
/// once per component instead of once per value.
struct LogTerms {
    ln_w: f64,
    mean: f64,
    std: f64,
    ln_std: f64,
    half_ln_2pi: f64,
}

impl LogTerms {
    fn new(c: &Component) -> Self {
        Self {
            ln_w: c.weight.max(1e-300).ln(),
            mean: c.mean,
            std: c.std,
            ln_std: c.std.ln(),
            half_ln_2pi: 0.5 * (2.0 * std::f64::consts::PI).ln(),
        }
    }

    /// `ln w + ln N(x; µ, σ²)`.
    fn log_joint(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        self.ln_w + (-0.5 * z * z - self.ln_std - self.half_ln_2pi)
    }
}

impl Gmm {
    /// Fit a mixture with `k` components by EM.
    ///
    /// Initialization is deterministic: means at evenly spaced quantiles,
    /// uniform weights, pooled standard deviation. EM runs until the average
    /// log-likelihood improves by less than `1e-6` or 100 iterations.
    ///
    /// Each E-step computes every component's `ln w`, `ln σ` and `½·ln 2π`
    /// once, before its pass over the values, so the pass takes one `exp`
    /// per value and component and one `ln` per value, and no other
    /// logarithm. Each value's log joint density is still
    /// `ln w + (−½·z² − ln σ − ½·ln 2π)` with `z = (x − µ)/σ`, evaluated in
    /// that order, so the fit is the same, bit for bit, as evaluating the
    /// logarithms for every value.
    ///
    /// # Panics
    /// Panics when `values` is empty or `k == 0`.
    pub fn fit(values: &[f64], k: usize) -> Self {
        assert!(!values.is_empty(), "GMM needs at least one value");
        assert!(k > 0, "k must be positive");
        let n = values.len();
        let k = k.min(n);

        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        let mean_all = values.iter().sum::<f64>() / n as f64;
        let var_all = values
            .iter()
            .map(|v| (v - mean_all) * (v - mean_all))
            .sum::<f64>()
            / n as f64;
        let std_floor = (var_all.sqrt() * 1e-3).max(1e-9);
        let init_std = (var_all.sqrt() / k as f64).max(std_floor);

        let mut comps: Vec<Component> = (0..k)
            .map(|j| {
                // Quantile-based means: (j + 0.5) / k.
                let q = ((j as f64 + 0.5) / k as f64 * (n - 1) as f64).round() as usize;
                Component {
                    weight: 1.0 / k as f64,
                    mean: sorted[q.min(n - 1)],
                    std: init_std,
                }
            })
            .collect();

        let mut resp = vec![0.0; n * k];
        let mut last_ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut terms = Vec::with_capacity(k);
        for it in 0..100 {
            iterations = it + 1;
            // E-step: responsibilities via log-sum-exp.
            terms.clear();
            terms.extend(comps.iter().map(LogTerms::new));
            let mut ll = 0.0;
            for (i, &x) in values.iter().enumerate() {
                let row = &mut resp[i * k..(i + 1) * k];
                let mut max_log = f64::NEG_INFINITY;
                for (r, t) in row.iter_mut().zip(&terms) {
                    *r = t.log_joint(x);
                    max_log = max_log.max(*r);
                }
                let mut sum = 0.0;
                for r in row.iter_mut() {
                    *r = (*r - max_log).exp();
                    sum += *r;
                }
                for r in row.iter_mut() {
                    *r /= sum;
                }
                ll += max_log + sum.ln();
            }
            // M-step.
            for (j, c) in comps.iter_mut().enumerate() {
                let nj: f64 = (0..n).map(|i| resp[i * k + j]).sum();
                if nj <= 1e-12 {
                    // Dead component: keep its parameters, zero weight.
                    c.weight = 1e-12;
                    continue;
                }
                let mu = (0..n).map(|i| resp[i * k + j] * values[i]).sum::<f64>() / nj;
                let var = (0..n)
                    .map(|i| resp[i * k + j] * (values[i] - mu) * (values[i] - mu))
                    .sum::<f64>()
                    / nj;
                c.weight = nj / n as f64;
                c.mean = mu;
                c.std = var.sqrt().max(std_floor);
            }
            // Renormalize weights (dead components were floored).
            let wsum: f64 = comps.iter().map(|c| c.weight).sum();
            for c in &mut comps {
                c.weight /= wsum;
            }

            let avg_ll = ll / n as f64;
            if (avg_ll - last_ll).abs() < 1e-6 {
                last_ll = avg_ll;
                break;
            }
            last_ll = avg_ll;
        }

        Self {
            components: comps,
            log_likelihood: last_ll,
            iterations,
        }
    }

    /// Reconstruct a mixture from previously fitted components (model
    /// persistence). Weights are stored as given, so a reloaded mixture
    /// re-encodes to the same bytes; stds are floored at `1e-12`.
    ///
    /// # Panics
    /// Panics when `components` is empty.
    pub fn from_components(mut components: Vec<Component>) -> Self {
        assert!(!components.is_empty(), "GMM needs at least one component");
        for c in &mut components {
            c.std = c.std.max(1e-12);
        }
        Self {
            components,
            log_likelihood: f64::NAN,
            iterations: 0,
        }
    }

    /// The fitted components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.len()
    }

    /// Final average log-likelihood.
    pub fn avg_log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// EM iterations executed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Index of the component maximizing the posterior for `x`
    /// (`k = argmax_κ p_κ` in Algorithm 3).
    pub fn predict_component(&self, x: f64) -> usize {
        let mut best = (0usize, f64::NEG_INFINITY);
        for (j, c) in self.components.iter().enumerate() {
            let lp = LogTerms::new(c).log_joint(x);
            if lp > best.1 {
                best = (j, lp);
            }
        }
        best.0
    }

    /// Mode-specific normalized value: `(x − µk) / (2·σk)` per Algorithm 3,
    /// clamped to `[-1, 1]` for bounded classifier inputs.
    pub fn normalize_in_component(&self, x: f64, component: usize) -> f64 {
        let c = &self.components[component];
        ((x - c.mean) / (2.0 * c.std)).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight blobs at 0 and 10.
    fn bimodal() -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..200 {
            let jitter = ((i * 37) % 100) as f64 / 100.0 - 0.5;
            v.push(0.0 + jitter * 0.8);
            v.push(10.0 + jitter * 0.8);
        }
        v
    }

    #[test]
    fn recovers_bimodal_means() {
        let gmm = Gmm::fit(&bimodal(), 2);
        let mut means: Vec<f64> = gmm.components().iter().map(|c| c.mean).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(means[0].abs() < 0.5, "{means:?}");
        assert!((means[1] - 10.0).abs() < 0.5, "{means:?}");
        // Balanced data → roughly equal weights.
        for c in gmm.components() {
            assert!((c.weight - 0.5).abs() < 0.1, "{:?}", c.weight);
        }
    }

    #[test]
    fn predict_component_separates_modes() {
        let gmm = Gmm::fit(&bimodal(), 2);
        let c_low = gmm.predict_component(0.1);
        let c_high = gmm.predict_component(9.9);
        assert_ne!(c_low, c_high);
        assert_eq!(gmm.predict_component(-1.0), c_low);
        assert_eq!(gmm.predict_component(11.0), c_high);
    }

    #[test]
    fn normalize_is_centered_and_clamped() {
        let gmm = Gmm::fit(&bimodal(), 2);
        let c = gmm.predict_component(10.0);
        let at_mean = gmm.normalize_in_component(gmm.components()[c].mean, c);
        assert!(at_mean.abs() < 1e-9);
        assert_eq!(gmm.normalize_in_component(1e9, c), 1.0);
        assert_eq!(gmm.normalize_in_component(-1e9, c), -1.0);
    }

    #[test]
    fn k_clamped_to_sample_size() {
        let gmm = Gmm::fit(&[1.0, 2.0], 10);
        assert_eq!(gmm.k(), 2);
    }

    #[test]
    fn constant_column_is_stable() {
        let gmm = Gmm::fit(&vec![5.0; 100], 3);
        assert!(gmm.components().iter().all(|c| c.std > 0.0));
        let c = gmm.predict_component(5.0);
        // The std floor amplifies float accumulation error; "close to the
        // component center" is the property that matters.
        assert!(gmm.normalize_in_component(5.0, c).abs() < 1e-3);
    }

    #[test]
    fn loglik_not_worse_with_more_components() {
        let data = bimodal();
        let g1 = Gmm::fit(&data, 1);
        let g2 = Gmm::fit(&data, 2);
        assert!(
            g2.avg_log_likelihood() >= g1.avg_log_likelihood() - 1e-9,
            "k=2 ll {} < k=1 ll {}",
            g2.avg_log_likelihood(),
            g1.avg_log_likelihood()
        );
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_input_panics() {
        Gmm::fit(&[], 2);
    }
}
