//! Routing by decomposition over a library of trained pipelines.
//!
//! A pipeline serves only the conjunctive decomposition it was trained
//! on: its contexts, k-means centers and meta-learners are all
//! per-subspace (§III-B). A deployment that serves analysts exploring
//! different decompositions therefore holds several trained
//! [`LtePipeline`]s, one per decomposition, in a [`PipelineRegistry`], and
//! sends each session to the entry over its truth's subspaces. The
//! decomposition is the one thing a deployed router knows about a session
//! before any label, and it is all the routing there is: a session routed
//! here is bit-identical to the same session served by its entry's
//! pipeline unrouted.

use std::sync::Arc;

use crate::oracle::ConjunctiveOracle;
use crate::pipeline::LtePipeline;
use lte_data::subspace::Subspace;

/// One registered pipeline and its name.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    name: String,
    pipeline: Arc<LtePipeline>,
}

impl RegistryEntry {
    /// The entry's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trained pipeline.
    pub fn pipeline(&self) -> &Arc<LtePipeline> {
        &self.pipeline
    }
}

/// An ordered library of named pipelines over distinct subspace
/// decompositions.
#[derive(Debug, Clone, Default)]
pub struct PipelineRegistry {
    entries: Vec<RegistryEntry>,
}

impl PipelineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered pipelines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no pipeline is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[RegistryEntry] {
        &self.entries
    }

    /// Entry at `index`.
    pub fn get(&self, index: usize) -> &RegistryEntry {
        &self.entries[index]
    }

    /// Index of the entry named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// Why an entry named `name` over `subspaces` cannot join: its name or
    /// its decomposition is taken. `None` when it can.
    pub(crate) fn clash(&self, name: &str, subspaces: &[Subspace]) -> Option<&'static str> {
        if self.index_of(name).is_some() {
            Some("repeated registry entry name")
        } else if self
            .entries
            .iter()
            .any(|e| e.pipeline.subspaces() == subspaces)
        {
            Some("repeated registry decomposition")
        } else {
            None
        }
    }

    /// Register a trained pipeline under `name`. Returns the entry index.
    ///
    /// # Panics
    /// Panics when `name` is taken or another entry is over the same
    /// decomposition: routing would have no way to choose between them.
    pub fn register(&mut self, name: &str, pipeline: Arc<LtePipeline>) -> usize {
        if let Some(clash) = self.clash(name, pipeline.subspaces()) {
            panic!("cannot register {name:?}: {clash}");
        }
        self.entries.push(RegistryEntry {
            name: name.to_string(),
            pipeline,
        });
        self.entries.len() - 1
    }

    /// The index of the entry over `truth`'s subspaces, in the truth's
    /// order; `None` when no entry covers that decomposition.
    pub fn route(&self, truth: &ConjunctiveOracle) -> Option<usize> {
        self.entries.iter().position(|e| {
            truth
                .parts()
                .iter()
                .map(|(sub, _)| sub)
                .eq(e.pipeline.subspaces())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LteConfig;
    use crate::uis::UisMode;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::decompose_sequential;

    fn tiny_pipeline(dim: usize, seed: u64) -> Arc<LtePipeline> {
        let table = generate_sdss(2000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 30;
        cfg.train.epochs = 1;
        let (p, _) = LtePipeline::offline(&table, decompose_sequential(4, dim), cfg, seed);
        Arc::new(p)
    }

    #[test]
    fn incompatible_decompositions_are_excluded() {
        let wide = tiny_pipeline(2, 5);
        let fine = tiny_pipeline(1, 8);
        let mut reg = PipelineRegistry::new();
        assert_eq!(reg.register("wide", Arc::clone(&wide)), 0);
        assert_eq!(reg.register("fine", Arc::clone(&fine)), 1);
        assert_eq!(reg.index_of("fine"), Some(1));
        assert_eq!(reg.index_of("coarse"), None);

        let wide_truth = wide.generate_truth(UisMode::new(1, 12), 9, 0.15, 0.9);
        let fine_truth = fine.generate_truth(UisMode::new(1, 12), 9, 0.15, 0.9);
        assert_eq!(reg.route(&wide_truth), Some(0));
        assert_eq!(reg.route(&fine_truth), Some(1));

        // Same subspaces in another order: no entry covers it.
        let mut parts = wide_truth.parts().to_vec();
        parts.reverse();
        assert_eq!(reg.route(&ConjunctiveOracle::new(parts)), None);
        assert_eq!(PipelineRegistry::new().route(&wide_truth), None);
    }

    #[test]
    #[should_panic(expected = "cannot register \"again\": repeated registry decomposition")]
    fn a_repeated_decomposition_is_refused() {
        let p = tiny_pipeline(2, 5);
        let mut reg = PipelineRegistry::new();
        reg.register("first", Arc::clone(&p));
        reg.register("again", p);
    }

    #[test]
    #[should_panic(expected = "cannot register \"wide\": repeated registry entry name")]
    fn a_repeated_name_is_refused() {
        let p = tiny_pipeline(2, 5);
        let mut reg = PipelineRegistry::new();
        reg.register("wide", Arc::clone(&p));
        reg.register("wide", p);
    }
}
