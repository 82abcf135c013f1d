//! Minimal neural-network substrate for LTE's meta-learned UIS classifiers.
//!
//! The paper's classifier (§VI-A) is a composition of small fully connected
//! blocks trained in a few-shot regime: support sets of ~30 tuples, a few
//! local gradient steps, and first-order global (meta) updates over
//! thousands of tasks. Mature autograd frameworks are unnecessary (and the
//! Rust ML ecosystem is immature for few-shot training); what
//! meta-learning *does* require, and what this crate provides, is:
//!
//! * exact gradients through fixed dense architectures ([`Mlp::backward`]),
//!   the same gradients summed over a batch in one pass of kernel products
//!   ([`Mlp::backward_batch`]), and a per-sample SGD step that applies each
//!   gradient as it is formed ([`Mlp::train_step`]),
//! * parameters as *flat vectors* that can be copied, blended, and updated
//!   arithmetically — the `θ ⇐ φ − σ·ωR` initialization (Eq. 6), local SGD
//!   (Eq. 12) and one-step global updates (Eq. 13) are all flat-vector
//!   operations,
//! * numerically stable binary-cross-entropy on logits ([`loss`]),
//! * [`Matrix`] arithmetic for the memory modules (attention reads,
//!   outer-product writes; Eqs. 7–10, 14–16).
//!
//! Gradient correctness is verified against finite differences in the test
//! suite ([`gradcheck`]).

pub mod activation;
pub mod dense;
pub mod gradcheck;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod matrix32;
pub mod mlp;

pub use activation::Activation;
pub use dense::Dense;
pub use matrix::Matrix;
pub use matrix32::{cpu_features, Epilogue, KernelKind, Matrix32};
pub use mlp::{Mlp, Mlp32, MlpBatchCache, MlpCache};
