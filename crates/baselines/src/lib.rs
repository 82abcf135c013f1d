//! Explore-by-example baselines the paper compares LTE against (§VIII-A).
//!
//! * **AL-SVM** (Dimitriadou et al., TKDE 2016 / AIDE lineage): an SVM
//!   classifier over the user-interest space trained with *active learning*
//!   — each round the most uncertain tuple (smallest |decision value|) is
//!   selected for the user to label.
//! * **DSM** (Huang et al., PVLDB 2018): improves AL-SVM under subspatial
//!   convexity + conjunctivity assumptions with a *dual-space model*: a
//!   certain-positive convex polytope and certain-negative cones per
//!   subspace (geometry in [`lte_geom::polytope`]), which both prune the
//!   active-learning pool and bound accuracy via the three-set metric.
//! * **SVM / SVMr** (§VIII-C): plain SVMs on raw min-max features and on
//!   LTE's preprocessed features respectively, trained on the same initial
//!   tuples as LTE — the degenerate form DSM takes when its convexity
//!   assumption is dropped.
//!
//! The SVM itself is a from-scratch SMO implementation ([`svm`]) with linear
//! and RBF kernels, sized for the few-hundred-example training sets these
//! explorers see.

pub mod active;
pub mod alsvm;
pub mod dsm;
pub mod kernel;
pub mod svm;

pub use alsvm::AlSvmExplorer;
pub use dsm::DsmExplorer;
pub use kernel::Kernel;
pub use svm::{Svm, SvmConfig};
