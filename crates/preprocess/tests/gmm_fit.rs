//! Pins `Gmm::fit` bit for bit to a copy of the EM loop it ran before the
//! E-step computed each component's logarithms once per iteration: every
//! component's weight, mean and std, the final average log-likelihood and
//! the iteration count, on inputs that reach each branch of the loop.

use lte_preprocess::Gmm;
use proptest::prelude::*;

/// Log-density of N(µ, σ²) at x, with every logarithm taken per call.
fn log_normal_pdf(x: f64, mean: f64, std: f64) -> f64 {
    let z = (x - mean) / std;
    -0.5 * z * z - std.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
}

/// The fit's output as raw bits: `(weight, mean, std)` per component, the
/// average log-likelihood and the iteration count.
type FitBits = (Vec<[u64; 3]>, u64, usize);

/// The EM loop `Gmm::fit` ran before, with `ln w`, `ln σ` and `½·ln 2π`
/// evaluated for every value. Also returns how many times a component was
/// found dead (zero responsibility mass).
fn reference_fit(values: &[f64], k: usize) -> (FitBits, usize) {
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
    // (weight, mean, std)
    let mut comps: Vec<(f64, f64, f64)> = (0..k)
        .map(|j| {
            let q = ((j as f64 + 0.5) / k as f64 * (n - 1) as f64).round() as usize;
            (1.0 / k as f64, sorted[q.min(n - 1)], init_std)
        })
        .collect();
    let mut resp = vec![0.0; n * k];
    let mut last_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut dead = 0;
    for it in 0..100 {
        iterations = it + 1;
        let mut ll = 0.0;
        for (i, &x) in values.iter().enumerate() {
            let row = &mut resp[i * k..(i + 1) * k];
            let mut max_log = f64::NEG_INFINITY;
            for (j, c) in comps.iter().enumerate() {
                row[j] = c.0.max(1e-300).ln() + log_normal_pdf(x, c.1, c.2);
                max_log = max_log.max(row[j]);
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
        for (j, c) in comps.iter_mut().enumerate() {
            let nj: f64 = (0..n).map(|i| resp[i * k + j]).sum();
            if nj <= 1e-12 {
                c.0 = 1e-12;
                dead += 1;
                continue;
            }
            let mu = (0..n).map(|i| resp[i * k + j] * values[i]).sum::<f64>() / nj;
            let var = (0..n)
                .map(|i| resp[i * k + j] * (values[i] - mu) * (values[i] - mu))
                .sum::<f64>()
                / nj;
            *c = (nj / n as f64, mu, var.sqrt().max(std_floor));
        }
        let wsum: f64 = comps.iter().map(|c| c.0).sum();
        for c in &mut comps {
            c.0 /= wsum;
        }
        let avg_ll = ll / n as f64;
        if (avg_ll - last_ll).abs() < 1e-6 {
            last_ll = avg_ll;
            break;
        }
        last_ll = avg_ll;
    }
    let comps = comps
        .iter()
        .map(|c| [c.0.to_bits(), c.1.to_bits(), c.2.to_bits()])
        .collect();
    ((comps, last_ll.to_bits(), iterations), dead)
}

fn fit_bits(values: &[f64], k: usize) -> FitBits {
    let g = Gmm::fit(values, k);
    let comps = g
        .components()
        .iter()
        .map(|c| [c.weight.to_bits(), c.mean.to_bits(), c.std.to_bits()])
        .collect();
    (comps, g.avg_log_likelihood().to_bits(), g.iterations())
}

/// Asserts the fit equals the reference and returns the reference's
/// dead-component count.
fn assert_fit_matches(values: &[f64], k: usize) -> usize {
    let (want, dead) = reference_fit(values, k);
    assert!(
        f64::from_bits(want.1).is_finite(),
        "k = {k}: non-finite reference log-likelihood"
    );
    assert_eq!(fit_bits(values, k), want, "k = {k}, values {values:?}");
    dead
}

/// Two tight blobs at 0 and 10.
fn bimodal() -> Vec<f64> {
    (0..200)
        .flat_map(|i| {
            let jitter = ((i * 37) % 100) as f64 / 100.0 - 0.5;
            [jitter * 0.8, 10.0 + jitter * 0.8]
        })
        .collect()
}

#[test]
fn bimodal_fit_is_unchanged() {
    for k in 1..=4 {
        assert_fit_matches(&bimodal(), k);
    }
}

#[test]
fn tight_unimodal_fit_is_unchanged() {
    let values: Vec<f64> = (0..300)
        .map(|i| 5.0 + ((i * 13) % 29) as f64 * 1e-7)
        .collect();
    for k in [1, 3, 5] {
        assert_fit_matches(&values, k);
    }
}

/// A constant column has zero variance, so every std sits on the floor.
#[test]
fn constant_fit_is_unchanged() {
    let (comps, _, _) = fit_bits(&[5.0; 100], 3);
    assert!(comps.iter().all(|c| f64::from_bits(c[2]) == 1e-9));
    assert_fit_matches(&[5.0; 100], 3);
}

/// Inputs on which a component loses all responsibility mass and is
/// floored to weight `1e-12`: once in a single iteration, and in every
/// iteration of a long fit.
#[test]
fn dead_component_fit_is_unchanged() {
    let once = [
        -9.41788412633225,
        738.3999946183418,
        738.6400157520296,
        737.7415779347798,
        742.7508112310419,
    ];
    assert!(assert_fit_matches(&once, 3) > 0, "no component died");
    let often = [
        271.8674390378381,
        -2.265800035603536,
        -2.08361757155933,
        -2.0142244368128464,
        -2.5253827584112147,
        -2.5530934345200054,
        -1.9480045369549301,
        -1.8300647595473936,
    ];
    assert!(
        assert_fit_matches(&often, 6) > 10,
        "components did not stay dead"
    );
}

/// `k > n` clamps to one component per value.
#[test]
fn more_components_than_values_fit_is_unchanged() {
    assert_fit_matches(&[1.0, 2.0], 10);
    assert_fit_matches(&[3.0, -1.0, 7.5], 5);
    assert_fit_matches(&[42.0], 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_fits_are_unchanged(
        values in proptest::collection::vec(-1e4..1e4f64, 1..120),
        k in 1usize..8,
    ) {
        let (want, _) = reference_fit(&values, k);
        prop_assert_eq!(fit_bits(&values, k), want);
    }
}
