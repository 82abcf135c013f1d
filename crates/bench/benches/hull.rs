//! Micro-benchmark: UIS geometry (§V-C) — convex hulls of ψ-nearest center
//! sets and membership tests, the O(ψ log ψ) / O(α log ψ) costs the paper
//! quotes — and `Meta*`'s revision of one round over a serving-sized pool,
//! row by row and through warm anchor masks, plus one anchor's mask build.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lte_core::config::{LteConfig, RefineConfig};
use lte_core::context::SubspaceContext;
use lte_core::oracle::{RegionOracle, SubspaceOracle};
use lte_core::refine::{build_subregions, AnchorMasks};
use lte_core::uis::generate_uis;
use lte_data::generator::generate_sdss;
use lte_data::rng::seeded;
use lte_data::subspace::Subspace;
use lte_geom::{convex_hull, ConvexPolygon, Point2, Region, RegionUnion};
use std::hint::black_box;

fn scatter(n: usize) -> Vec<Point2> {
    (0..n)
        .map(|i| {
            Point2::new(
                (i as f64 * 0.7371).sin() * 10.0,
                (i as f64 * 1.3113).cos() * 10.0,
            )
        })
        .collect()
}

fn bench_hull(c: &mut Criterion) {
    let mut group = c.benchmark_group("convex_hull");
    for psi in [5usize, 20, 50] {
        let pts = scatter(psi);
        group.bench_with_input(BenchmarkId::new("psi", psi), &pts, |b, pts| {
            b.iter(|| convex_hull(black_box(pts)));
        });
    }
    group.finish();

    // α=4 union membership (the UIS contains() of meta-task labelling).
    let uis = RegionUnion::new(
        (0..4)
            .map(|i| {
                let pts: Vec<Point2> = scatter(20)
                    .into_iter()
                    .map(|p| Point2::new(p.x + i as f64 * 5.0, p.y))
                    .collect();
                Region::Polygon(ConvexPolygon::from_points(&pts))
            })
            .collect(),
    );
    c.bench_function("uis_contains_alpha4_psi20", |b| {
        b.iter(|| uis.contains(black_box(&[3.0, 1.0])));
    });
}

/// One `Meta*` round's revision on the `serve` workload's shape: 20 000
/// projected rows of a 2-D subspace, `ks = 25` anchors at the reduced
/// configuration, a fixed positive set labelled by a generated UIS.
/// `per_row` is `build_subregions` + `Subregions::revise` on every row,
/// as `finish_round` runs it; `masks` reads a store whose positive
/// anchors are already built, as the tick does after a pool's first
/// rounds; `masks_build` is a fresh store revising with one positive
/// anchor, the cost a new epoch pays per anchor.
fn bench_revision(c: &mut Criterion) {
    let cfg = LteConfig::reduced();
    let table = generate_sdss(20_000, 0);
    let sub = Subspace::new(vec![0, 1]);
    let ctx = SubspaceContext::build(&table, sub.clone(), &cfg.task, &cfg.encoder, 3);
    let rows: Vec<Vec<f64>> = (0..table.n_rows())
        .map(|i| sub.project_row(&table.row(i).expect("row in range")))
        .collect();
    let oracle = RegionOracle::new(generate_uis(
        ctx.cu(),
        ctx.pu(),
        cfg.task.mode,
        &mut seeded(5),
    ));
    let labels: Vec<bool> = ctx.cs().iter().map(|c| oracle.label(c)).collect();
    let verdicts: Vec<bool> = (0..rows.len()).map(|i| i % 3 == 0).collect();
    let refine = RefineConfig::default();

    let mut group = c.benchmark_group("refine");
    group.bench_function("revise/per_row", |b| {
        b.iter(|| {
            let regions = build_subregions(&ctx, black_box(&labels), &refine);
            let revised: Vec<bool> = rows
                .iter()
                .zip(&verdicts)
                .map(|(row, &pred)| regions.revise(row, pred))
                .collect();
            revised
        });
    });
    let warm = AnchorMasks::new(&ctx, rows.len(), &refine);
    warm.revise(&ctx, &rows, &labels, &mut verdicts.clone());
    group.bench_function("revise/masks", |b| {
        b.iter(|| {
            let mut revised = verdicts.clone();
            warm.revise(&ctx, &rows, black_box(&labels), &mut revised);
            revised
        });
    });
    let mut one = vec![false; labels.len()];
    one[0] = true;
    group.bench_function("masks_build", |b| {
        b.iter(|| {
            let fresh = AnchorMasks::new(&ctx, rows.len(), &refine);
            let mut revised = verdicts.clone();
            fresh.revise(&ctx, &rows, black_box(&one), &mut revised);
            revised
        });
    });
    group.finish();
}

criterion_group!(benches, bench_hull, bench_revision);
criterion_main!(benches);
