//! Hot-swap cell for the shared pipeline: replace the meta-trained model
//! under live sessions without draining them.
//!
//! An `ArcSwap`-style primitive, hand-rolled on the standard library (the
//! workspace takes no new dependencies): a [`Mutex`] guarding an
//! `(Arc<LtePipeline>, epoch)` pair. [`SwapCell::load`] clones the `Arc`
//! and reads the epoch **under one lock acquisition**, so a reader can
//! never observe a new pipeline with an old epoch or vice versa — the
//! epoch is the torn-read detector the hot-swap tests assert on. Writers
//! ([`SwapCell::swap`]) replace the `Arc` and bump the epoch atomically in
//! the same sense.
//!
//! The lock is held only for the pointer copy (no scoring work happens
//! under it), so contention is negligible next to a labelling round. The
//! scoring service loads each shard's cell **once per tick**, giving every
//! round of every session exactly one pipeline epoch (see
//! `docs/SERVING.md`).
//!
//! A cell serves one subspace decomposition for life: in-flight sessions
//! hold ground truths over it, so [`SwapCell::swap`] refuses a pipeline
//! over other subspaces when the swap happens, not at the next tick.

use lte_core::pipeline::LtePipeline;
use lte_data::subspace::Subspace;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A shared, swappable pipeline slot with an epoch counter.
///
/// Epoch 0 is the pipeline the cell was created with; every
/// [`SwapCell::swap`] bumps it by one. Readers get a consistent
/// `(pipeline, epoch)` snapshot from [`SwapCell::load`].
#[derive(Debug)]
pub struct SwapCell {
    inner: Mutex<(Arc<LtePipeline>, u64)>,
    subspaces: Vec<Subspace>,
}

/// The error of [`SwapCell::swap`]: the pipeline explores another subspace
/// decomposition than the cell's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompositionMismatch;

impl fmt::Display for DecompositionMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("hot-swapped pipeline changed the subspace decomposition")
    }
}

impl std::error::Error for DecompositionMismatch {}

impl SwapCell {
    /// A cell starting at epoch 0 with the given pipeline, serving its
    /// subspace decomposition.
    pub fn new(pipeline: Arc<LtePipeline>) -> Self {
        Self {
            subspaces: pipeline.subspaces().to_vec(),
            inner: Mutex::new((pipeline, 0)),
        }
    }

    /// The subspace decomposition every pipeline in this cell explores.
    pub(crate) fn subspaces(&self) -> &[Subspace] {
        &self.subspaces
    }

    /// Snapshot the current pipeline and its epoch — one lock acquisition,
    /// so the pair is always mutually consistent.
    pub fn load(&self) -> (Arc<LtePipeline>, u64) {
        let guard = self.inner.lock().expect("swap cell poisoned");
        (Arc::clone(&guard.0), guard.1)
    }

    /// The current epoch (0 until the first swap).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().expect("swap cell poisoned").1
    }

    /// Install a new pipeline, bumping the epoch; returns the new epoch.
    /// In-flight sessions keep their `Arc` clones alive — nothing is
    /// dropped under them; they pick the new epoch up at the next tick
    /// boundary.
    ///
    /// # Errors
    /// [`DecompositionMismatch`] when `pipeline` explores other subspaces
    /// than the cell's; the cell and its epoch are then unchanged.
    pub fn swap(&self, pipeline: Arc<LtePipeline>) -> Result<u64, DecompositionMismatch> {
        if pipeline.subspaces() != self.subspaces.as_slice() {
            return Err(DecompositionMismatch);
        }
        let mut guard = self.inner.lock().expect("swap cell poisoned");
        guard.0 = pipeline;
        guard.1 += 1;
        Ok(guard.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_core::config::LteConfig;
    use lte_core::pipeline::LtePipeline;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::decompose_sequential;

    fn pipeline(seed: u64) -> Arc<LtePipeline> {
        let table = generate_sdss(1500, seed);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 20;
        cfg.train.epochs = 1;
        let (p, _) = LtePipeline::offline(&table, decompose_sequential(2, 2), cfg, seed);
        Arc::new(p)
    }

    #[test]
    fn swap_bumps_epoch_and_replaces_pipeline() {
        let a = pipeline(1);
        let b = pipeline(2);
        let cell = SwapCell::new(Arc::clone(&a));
        assert_eq!(cell.epoch(), 0);
        let (p0, e0) = cell.load();
        assert!(Arc::ptr_eq(&p0, &a));
        assert_eq!(e0, 0);

        assert_eq!(cell.swap(Arc::clone(&b)), Ok(1));
        let (p1, e1) = cell.load();
        assert!(Arc::ptr_eq(&p1, &b));
        assert_eq!(e1, 1);
        assert_eq!(cell.swap(a), Ok(2));
    }

    #[test]
    fn loads_are_consistent_under_concurrent_swaps() {
        let a = pipeline(1);
        let b = pipeline(2);
        let cell = SwapCell::new(Arc::clone(&a));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..50 {
                    let next = if i % 2 == 0 { &b } else { &a };
                    cell.swap(Arc::clone(next)).expect("same decomposition");
                }
            });
            scope.spawn(|| {
                let mut last_epoch = 0;
                for _ in 0..200 {
                    let (p, e) = cell.load();
                    // Epochs only move forward, and the pair is coherent:
                    // even epochs (incl. 0) hold `a`, odd epochs hold `b`.
                    assert!(e >= last_epoch, "epoch went backwards");
                    last_epoch = e;
                    let expected = if e % 2 == 0 { &a } else { &b };
                    assert!(Arc::ptr_eq(&p, expected), "torn read at epoch {e}");
                }
            });
        });
        assert_eq!(cell.epoch(), 50);
    }
}
