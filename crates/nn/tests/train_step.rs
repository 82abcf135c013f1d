//! Pins the fused per-sample SGD step, `Mlp::train_step`, to its
//! reference bit for bit: `forward_cache` → `backward` into zeroed
//! gradients → `sgd_step`, over random architectures, every activation,
//! random inputs and learning rates, and several steps on one reused
//! cache.

use lte_nn::{Activation, Mlp, MlpCache};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every weight and bias, the input gradient when requested, and the
    /// gradient added into the tap equal the reference's after each of
    /// three consecutive steps; the forward output does too.
    #[test]
    fn train_step_matches_backward_then_sgd_step_bitwise(
        dims in proptest::collection::vec(1usize..9, 2..6),
        acts in (0usize..4, 0usize..4),
        seed in 0u64..100_000,
        lr in 0.0f64..1.5,
        want_input in proptest::bool::ANY,
        want_tap in proptest::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (hidden, out) = (ACTIVATIONS[acts.0], ACTIVATIONS[acts.1]);
        let mut fused = Mlp::new(&dims, hidden, out, &mut rng);
        let mut reference = fused.clone();
        let mut tap = uniform(&mut rng, fused.param_count(), 1.0);
        let mut ref_tap = tap.clone();
        let mut cache = MlpCache::default();
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
            fused.train_step(
                &mut cache,
                &grad_out,
                lr,
                want_tap.then_some(tap.as_mut_slice()),
                want_input.then_some(dx.as_mut_slice()),
            );
            prop_assert_eq!(bits(&fused.params()), bits(&reference.params()), "step {}", step);
            if want_input {
                prop_assert_eq!(bits(&dx), bits(&ref_dx), "input gradient, step {}", step);
            }
            if want_tap {
                prop_assert_eq!(bits(&tap), bits(&ref_tap), "tap, step {}", step);
            }
        }
    }
}
