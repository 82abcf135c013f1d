//! The committed `BENCH_pool_scoring.json` meets the rules the
//! `pool_scoring` bin holds every snapshot to, at the full-run slack.

use lte_bench::experiments::pool_scoring::{check_modes, read_snapshot, FUSED_SLACK, MODES};

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pool_scoring.json");

#[test]
fn committed_snapshot_meets_the_rules() {
    let json = std::fs::read_to_string(SNAPSHOT).expect("the committed snapshot is readable");
    let modes = read_snapshot(&json).unwrap_or_else(|e| panic!("{SNAPSHOT}: {e}"));
    let broken = check_modes(&modes, FUSED_SLACK);
    assert!(broken.is_empty(), "{SNAPSHOT}: {broken:?}");
}

/// Each rule fails on a snapshot that breaks it.
#[test]
fn check_modes_names_every_broken_rule() {
    let mut modes: Vec<(&str, Option<f64>)> = MODES.iter().map(|&n| (n, Some(100.0))).collect();
    let set = |modes: &mut Vec<(&str, Option<f64>)>, name: &str, ns: Option<f64>| {
        modes
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("a mode")
            .1 = ns;
    };
    let broken = |modes: &[(&str, Option<f64>)]| check_modes(modes, FUSED_SLACK).join("; ");
    set(&mut modes, "fast_f32", Some(1000.0));
    assert_eq!(broken(&modes), "");

    set(&mut modes, "kernel_f64_avx2", None);
    assert_eq!(broken(&modes), "", "a pinned kernel may be unsupported");
    set(&mut modes, "kernel_f32", None);
    assert!(broken(&modes).contains("kernel_f32 may not be unsupported"));
    set(&mut modes, "kernel_f32", Some(0.0));
    assert!(broken(&modes).contains("kernel_f32 has no timing"));
    set(&mut modes, "kernel_f32", Some(100.0));
    set(&mut modes, "kernel_f32_fused", Some(106.0));
    assert!(broken(&modes).contains("fused epilogue slower"));
    assert!(
        check_modes(&modes, 1.25).is_empty(),
        "the smoke slack forgives 6%"
    );
    set(&mut modes, "fast_f32", Some(105.0));
    assert!(check_modes(&modes, 1.25)[0].contains("end-to-end fast path"));
    modes.retain(|(n, _)| *n != "per_point");
    assert!(broken(&modes).contains("missing mode per_point"));
}

/// The reader takes what the bin writes, and fails on a truncated file or
/// a missing run field.
#[test]
fn read_snapshot_reads_timings_and_unsupported_marks() {
    let json = r#"{ "bench": "pool_scoring", "pool_rows": 512, "features": 64,
        "iters": 3, "threads": 1, "cpu_features": "sse2", "kernel": "portable",
        "modes": { "per_point": { "median_ns": 25, "mean_ns": 26, "speedup_vs_per_point": 1.00 },
                   "kernel_f32_avx2": { "unsupported": true } } }"#;
    let modes = read_snapshot(json).expect("a snapshot");
    let want = [("per_point", Some(25.0)), ("kernel_f32_avx2", None)];
    assert_eq!(modes, want.map(|(n, ns)| (n.to_string(), ns)));
    assert!(read_snapshot(&json[..json.len() - 3]).is_err());
    assert!(read_snapshot(&json.replace("\"iters\": 3,", "")).is_err());
}
