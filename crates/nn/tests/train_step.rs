//! Pins the per-sample SGD step (`lte_nn::step`), through
//! `Mlp::train_step_with` and `StepLayer`, to its reference bit for bit:
//! `forward_cache` → `backward` into zeroed gradients → `sgd_step`, over
//! random architectures whose widths straddle every kernel's lane count,
//! every activation, random inputs and learning rates, several steps on
//! one reused cache, and every kernel the CPU supports.

use lte_nn::{Activation, KernelKind, Matrix, Mlp, MlpCache, MlpStep, StepLayer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ACTIVATIONS: [Activation; 4] = [
    Activation::Relu,
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Identity,
];

/// Raw bit patterns, so equality checks are bitwise.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn uniform(rng: &mut StdRng, n: usize, a: f64) -> Vec<f64> {
    (0..n).map(|_| rng.random_range(-a..a)).collect()
}

const KERNELS: [KernelKind; 3] = [
    KernelKind::Avx512f,
    KernelKind::Avx2Fma,
    KernelKind::Portable,
];

/// Every kernel the running CPU supports.
fn kernels() -> impl Iterator<Item = KernelKind> {
    KERNELS.into_iter().filter(|k| k.supported())
}

/// Layer widths: the small ones (1–8), widths that straddle the lane
/// counts (4 and 8) and the 4-vector blocks (16 and 32 lanes) of the
/// step's kernels, and any width up to 70.
fn width() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 14] = [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 33, 64, 70];
    (0usize..3, 1usize..9, 0..EDGES.len(), 1usize..71).prop_map(|(pick, small, edge, any)| {
        match pick {
            0 => small,
            1 => EDGES[edge],
            _ => any,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every weight and bias, the input gradient when requested, and the
    /// gradient added into the tap equal the reference's after each of
    /// three consecutive steps; the forward output does too, and the step
    /// leaves it as it was. The same three steps on one `MlpStep` layout,
    /// as local adaptation runs them, match too. Cases whose kernel the
    /// CPU lacks pass vacuously.
    #[test]
    fn train_step_matches_backward_then_sgd_step_bitwise(
        dims in proptest::collection::vec(width(), 2..6),
        acts in (0usize..4, 0usize..4),
        seed in 0u64..100_000,
        lr in 0.0f64..1.5,
        want_input in proptest::bool::ANY,
        want_tap in proptest::bool::ANY,
        kernel in 0usize..3,
    ) {
        let kernel = KERNELS[kernel];
        if !kernel.supported() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let (hidden, out) = (ACTIVATIONS[acts.0], ACTIVATIONS[acts.1]);
        let mut fused = Mlp::new(&dims, hidden, out, &mut rng);
        let mut reference = fused.clone();
        let mut tap = uniform(&mut rng, fused.param_count(), 1.0);
        let mut ref_tap = tap.clone();
        let mut cache = MlpCache::default();
        let mut layout = MlpStep::new(&fused, want_input, want_tap.then_some(tap.as_slice()), kernel);
        let mut layout_cache = MlpCache::default();
        for step in 0..3 {
            let x = uniform(&mut rng, dims[0], 2.0);
            let grad_out = uniform(&mut rng, fused.out_dim(), 2.0);

            let ref_cache = reference.forward_cache(&x);
            let mut grad = vec![0.0; reference.param_count()];
            let ref_dx = reference.backward(&ref_cache, &grad_out, &mut grad);
            reference.sgd_step(&grad, lr);
            for (t, g) in ref_tap.iter_mut().zip(&grad) {
                *t += g;
            }

            fused.forward_into(&x, &mut cache);
            prop_assert_eq!(bits(cache.output()), bits(ref_cache.output()), "step {}", step);
            let mut dx = vec![f64::NAN; dims[0]];
            fused.train_step_with(
                &mut cache,
                &grad_out,
                lr,
                want_tap.then_some(tap.as_mut_slice()),
                want_input.then_some(dx.as_mut_slice()),
                kernel,
            );
            prop_assert_eq!(bits(cache.output()), bits(ref_cache.output()), "cache, step {}", step);
            prop_assert_eq!(bits(&fused.params()), bits(&reference.params()), "step {}", step);
            if want_input {
                prop_assert_eq!(bits(&dx), bits(&ref_dx), "input gradient, step {}", step);
            }
            if want_tap {
                prop_assert_eq!(bits(&tap), bits(&ref_tap), "tap, step {}", step);
            }

            layout.forward_into(&x, &mut layout_cache);
            prop_assert_eq!(bits(layout_cache.output()), bits(ref_cache.output()), "layout, step {}", step);
            let mut dx = vec![f64::NAN; dims[0]];
            layout.step(&layout_cache, &grad_out, lr, want_input.then_some(dx.as_mut_slice()));
            if want_input {
                prop_assert_eq!(bits(&dx), bits(&ref_dx), "layout input gradient, step {}", step);
            }
        }
        // Write back over NaN parameters, so every one must be written.
        let mut written = fused.clone();
        written.read_params(&vec![f64::NAN; written.param_count()]);
        let mut layout_tap = vec![f64::NAN; written.param_count()];
        layout.write_back(&mut written, want_tap.then_some(layout_tap.as_mut_slice()));
        prop_assert_eq!(bits(&written.params()), bits(&reference.params()), "layout");
        if want_tap {
            prop_assert_eq!(bits(&layout_tap), bits(&ref_tap), "layout tap");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A bias-free identity `StepLayer`, the form the classifier's
    /// conversion `Mcp` takes, against the conversion's reference: the
    /// forward pass against `matvec`, and one step with its input gradient
    /// against `matvec_t`, `add_outer` into a zeroed gradient and
    /// `add_scaled(·, −lr)`, with some deltas exactly zero.
    #[test]
    fn bias_free_layer_matches_the_conversion_reference_bitwise(
        shape in (width(), width()),
        seed in 0u64..100_000,
        lr in 0.0f64..1.5,
        zeros in 0usize..4,
        kernel in 0usize..3,
    ) {
        let kernel = KERNELS[kernel];
        if !kernel.supported() {
            return Ok(());
        }
        let (m, k) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Matrix::from_vec(m, k, uniform(&mut rng, m * k, 1.0));
        let x = uniform(&mut rng, k, 2.0);
        let mut d = uniform(&mut rng, m, 2.0);
        if zeros > 0 {
            for j in (0..m).step_by(zeros + 1) {
                d[j] = if j % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let mut layer = StepLayer::new(&w, None, true, kernel);
        let mut z = vec![f64::NAN; m];
        layer.forward(&x, &mut z);
        prop_assert_eq!(bits(&z), bits(&w.matvec(&x)));

        let mut dx = vec![f64::NAN; k];
        layer.step(&x, &d, lr, Some(&mut dx));
        let ref_dx = w.matvec_t(&d);
        let mut g = Matrix::zeros(m, k);
        g.add_outer(&d, &x, 1.0);
        w.add_scaled(&g, -lr);
        let mut out = Matrix::zeros(m, k);
        layer.write_back(&mut out, None);
        prop_assert_eq!(bits(&dx), bits(&ref_dx));
        prop_assert_eq!(bits(out.data()), bits(w.data()));
    }
}

/// A layer input that holds `+inf`, with some deltas exactly zero: the
/// reference skips the zero rows, so they must come out untouched, bit
/// for bit, on every kernel and in both layouts. Without the `d != 0`
/// mask the transposed update would write `W − lr·(0.0 + 0·∞)`, a NaN,
/// into them.
#[test]
fn zero_delta_rows_stay_untouched_when_an_input_is_infinite() {
    for kernel in kernels() {
        for (k, m) in [(3, 2), (9, 17), (33, 8), (40, 32), (12, 65)] {
            for want_input in [false, true] {
                let mut rng = StdRng::seed_from_u64((k * 100 + m) as u64);
                let mut fused = Mlp::new(
                    &[k, m],
                    Activation::Identity,
                    Activation::Identity,
                    &mut rng,
                );
                let before = fused.params();
                let mut reference = fused.clone();
                let mut x = uniform(&mut rng, k, 1.0);
                x[k / 2] = f64::INFINITY;
                // Every third delta is zero, alternating `+0.0` and `-0.0`.
                let grad_out: Vec<f64> = (0..m)
                    .map(|j| match (j % 3, j % 2) {
                        (0, 0) => 0.0,
                        (0, _) => -0.0,
                        _ => rng.random_range(-2.0..2.0),
                    })
                    .collect();
                let lr = 0.25;
                let mut tap = uniform(&mut rng, fused.param_count(), 1.0);
                let mut ref_tap = tap.clone();

                let ref_cache = reference.forward_cache(&x);
                let mut grad = vec![0.0; reference.param_count()];
                let ref_dx = reference.backward(&ref_cache, &grad_out, &mut grad);
                reference.sgd_step(&grad, lr);
                for (t, g) in ref_tap.iter_mut().zip(&grad) {
                    *t += g;
                }

                let mut cache = MlpCache::default();
                fused.forward_into(&x, &mut cache);
                let mut dx = vec![f64::NAN; k];
                fused.train_step_with(
                    &mut cache,
                    &grad_out,
                    lr,
                    Some(&mut tap),
                    want_input.then_some(dx.as_mut_slice()),
                    kernel,
                );
                let case = format!("{kernel} {k}x{m} input gradient {want_input}");
                let after = fused.params();
                assert_eq!(bits(&after), bits(&reference.params()), "{case}");
                assert_eq!(bits(&tap), bits(&ref_tap), "tap, {case}");
                if want_input {
                    assert_eq!(bits(&dx), bits(&ref_dx), "input gradient, {case}");
                }
                for j in (0..m).step_by(3) {
                    let row = j * k..(j + 1) * k;
                    assert_eq!(
                        bits(&after[row.clone()]),
                        bits(&before[row]),
                        "row {j}, {case}"
                    );
                    let bias = m * k + j;
                    assert_eq!(
                        after[bias].to_bits(),
                        before[bias].to_bits(),
                        "bias {j}, {case}"
                    );
                }
                assert!(
                    after.iter().any(|v| v.is_infinite()),
                    "{case}: no row saw the +inf"
                );
            }
        }
    }
}
