//! Compile-time coverage of the umbrella crate's public surface: every
//! `lte::prelude` re-export is named, and every module alias resolves.
//! If a re-export is dropped or renamed, this file stops compiling.

use lte::prelude::*;

/// Mentioning a type in a function signature proves the re-export resolves
/// without constructing anything expensive.
#[allow(dead_code, clippy::too_many_arguments)]
fn prelude_types_resolve(
    _config: LteConfig,
    _variant: Variant,
    _confusion: ConfusionMatrix,
    _truth: ConjunctiveOracle,
    _region_oracle: RegionOracle,
    _subspace_oracle: &dyn SubspaceOracle,
    _pipeline: LtePipeline,
    _outcome: UirOutcome,
    _mode: UisMode,
    _subspace: Subspace,
    _dataset: Dataset,
    _table: Table,
    _region: Region,
    _union: RegionUnion,
    _engine: SessionEngine,
    _session_request: SessionRequest,
    _session_outcome: SessionOutcome,
    _throughput: ThroughputStats,
    _behavior: BehaviorOracle,
    _cadence: Cadence,
    _behavior_config: BehaviorConfig,
    _behavioral_outcome: BehavioralOutcome,
    _drift_spec: DriftSpec,
    _drift_trigger: DriftTrigger,
    _cohort: Cohort,
    _scenario_config: ScenarioConfig,
    _scenario_report: ScenarioReport,
    _scorer: &dyn Scorer,
    _score_request: ScoreRequest,
    _builder: ScoringServiceBuilder,
    _epilogue: Epilogue<'_>,
    _kernel: KernelKind,
) {
}

#[test]
fn prelude_functions_are_wired() {
    // Referencing each function re-export proves it resolves and links.
    let _ = read_csv;
    let _ = write_csv;
    let _ = save_pipeline;
    let _ = load_pipeline;
    let _ = decompose_random::<rand::rngs::StdRng>;
    let subspaces = decompose_sequential(4, 2);
    assert_eq!(subspaces.len(), 2);
}

#[test]
fn module_aliases_resolve() {
    // Each workspace crate is reachable through its umbrella alias.
    let _ = lte::data::subspace::decompose_sequential(4, 2);
    let _ = lte::geom::Point2::new(0.0, 0.0);
    let _ = lte::cluster::ProximityMatrix::within(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
    let _ = lte::nn::Activation::Relu;
    let _ = lte::preprocess::Modality::Peaked;
    let _ = lte::baselines::Kernel::Linear;
    let _ = lte::core::config::LteConfig::reduced();
    let _ = lte::serve::percentile(&[1.0], 50.0);
}

#[test]
fn prelude_smoke_tiny_workflow() {
    // The quickstart's shape at minimal scale: build a dataset, decompose,
    // and check the pieces agree on dimensions. No training.
    let dataset = Dataset::sdss(200, 42);
    let subspaces = decompose_sequential(4, 2);
    assert_eq!(subspaces.len(), 2);
    assert_eq!(dataset.table.n_rows(), 200);
    let row = dataset.table.row(0).expect("row 0");
    assert!(row.len() >= 4);
}

#[test]
fn prelude_kernel_surface_is_coherent() {
    // Every scoring precision is nameable from the prelude, and the
    // detected kernel is one the host actually supports with a matching
    // feature string.
    let _ = [ScoringPrecision::Exact, ScoringPrecision::Fast];
    let kind = KernelKind::detect();
    assert!(kind.supported());
    let features = cpu_features();
    assert!(features.contains("sse2") || kind == KernelKind::Portable);
    match kind {
        KernelKind::Avx512f => assert!(features.contains("avx512f")),
        KernelKind::Avx2Fma => assert!(features.contains("avx2")),
        KernelKind::Portable => {}
    }
}
