//! Serving throughput and latency aggregates.
//!
//! A **round** is one session's labelling round of one subspace on one
//! service tick: initial labels and fast adaptation, the session's share
//! of the tick's fused pool scoring (by its share of the fused rows), and
//! the prediction. A session over `k` subspaces contributes up to `k`
//! rounds. Round latencies are the per-subspace `online_seconds`, so they
//! exclude admission queueing and the time other sessions' jobs hold the
//! workers.

use crate::engine::SessionOutcome;
use crate::scenario::{ScenarioConfig, ScenarioOutcome};

/// Aggregate statistics of one batch of sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputStats {
    /// Sessions completed.
    pub sessions: usize,
    /// Total rounds across all sessions (sessions × subspaces).
    pub rounds: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Completed sessions per wall-clock second.
    pub sessions_per_sec: f64,
    /// Median round latency in seconds.
    pub round_p50_seconds: f64,
    /// 95th-percentile round latency in seconds.
    pub round_p95_seconds: f64,
}

impl ThroughputStats {
    /// Aggregate a finished batch.
    pub fn collect(outcomes: &[SessionOutcome], wall_seconds: f64, workers: usize) -> Self {
        let mut rounds: Vec<f64> = outcomes
            .iter()
            .flat_map(|o| o.outcome.subspace_outcomes.iter().map(|s| s.online_seconds))
            .collect();
        rounds.sort_by(f64::total_cmp);
        Self {
            sessions: outcomes.len(),
            rounds: rounds.len(),
            workers,
            wall_seconds,
            sessions_per_sec: if wall_seconds > 0.0 {
                outcomes.len() as f64 / wall_seconds
            } else {
                0.0
            },
            round_p50_seconds: percentile(&rounds, 50.0),
            round_p95_seconds: percentile(&rounds, 95.0),
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} sessions / {} workers: {:.1} sessions/s, round p50 {:.2} ms, p95 {:.2} ms",
            self.sessions,
            self.workers,
            self.sessions_per_sec,
            self.round_p50_seconds * 1e3,
            self.round_p95_seconds * 1e3,
        )
    }
}

/// Aggregate statistics of one cohort within a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortStats {
    /// Cohort name.
    pub name: String,
    /// Sessions this cohort ran.
    pub sessions: usize,
    /// Sessions abandoned before exploring every subspace.
    pub abandoned: usize,
    /// Sessions whose interest region shifted during an executed round.
    pub drifted: usize,
    /// Sessions whose running F1 reached the scenario's convergence
    /// threshold.
    pub converged: usize,
    /// Mean final F1 (against each analyst's final truth).
    pub mean_f1: f64,
    /// Mean rounds completed per session.
    pub mean_rounds: f64,
    /// Mean labels drawn per session.
    pub mean_labels: f64,
    /// Mean rounds to reach the convergence threshold, over the sessions
    /// that converged (0 when none did).
    pub mean_rounds_to_convergence: f64,
    /// Mean simulated think seconds per session (deterministic).
    pub mean_think_seconds: f64,
    /// Median measured round latency in seconds.
    pub round_p50_seconds: f64,
    /// 95th-percentile measured round latency in seconds.
    pub round_p95_seconds: f64,
}

/// Aggregate report of one mixed-traffic scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Total sessions across cohorts.
    pub sessions: usize,
    /// Worker threads used.
    pub workers: usize,
    /// F1 threshold used for convergence accounting.
    pub convergence_f1: f64,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Completed sessions per wall-clock second.
    pub sessions_per_sec: f64,
    /// Per-cohort statistics, in scenario cohort order.
    pub cohorts: Vec<CohortStats>,
}

impl ScenarioReport {
    /// Aggregate a finished scenario batch.
    pub fn collect(
        cfg: &ScenarioConfig,
        outcomes: &[ScenarioOutcome],
        wall_seconds: f64,
        workers: usize,
    ) -> Self {
        let cohorts = cfg
            .cohorts
            .iter()
            .enumerate()
            .map(|(c, cohort)| {
                let members: Vec<&ScenarioOutcome> =
                    outcomes.iter().filter(|o| o.cohort == c).collect();
                let n = members.len();
                let mean = |f: &dyn Fn(&ScenarioOutcome) -> f64| {
                    if n == 0 {
                        0.0
                    } else {
                        members.iter().map(|o| f(o)).sum::<f64>() / n as f64
                    }
                };
                let conv_rounds: Vec<usize> = members
                    .iter()
                    .filter_map(|o| o.outcome.rounds_to_convergence(cfg.convergence_f1))
                    .collect();
                let mut rounds: Vec<f64> = members
                    .iter()
                    .flat_map(|o| o.outcome.subspace_outcomes.iter().map(|s| s.online_seconds))
                    .collect();
                rounds.sort_by(f64::total_cmp);
                CohortStats {
                    name: cohort.name.clone(),
                    sessions: n,
                    abandoned: members.iter().filter(|o| o.outcome.abandoned).count(),
                    drifted: members.iter().filter(|o| o.outcome.drifted).count(),
                    converged: conv_rounds.len(),
                    mean_f1: mean(&|o| o.outcome.f1()),
                    mean_rounds: mean(&|o| o.outcome.rounds_run as f64),
                    mean_labels: mean(&|o| o.outcome.labels_used as f64),
                    mean_rounds_to_convergence: if conv_rounds.is_empty() {
                        0.0
                    } else {
                        conv_rounds.iter().sum::<usize>() as f64 / conv_rounds.len() as f64
                    },
                    mean_think_seconds: mean(&|o| o.outcome.think_seconds),
                    round_p50_seconds: percentile(&rounds, 50.0),
                    round_p95_seconds: percentile(&rounds, 95.0),
                }
            })
            .collect();
        Self {
            scenario: cfg.name.clone(),
            sessions: outcomes.len(),
            workers,
            convergence_f1: cfg.convergence_f1,
            wall_seconds,
            sessions_per_sec: if wall_seconds > 0.0 {
                outcomes.len() as f64 / wall_seconds
            } else {
                0.0
            },
            cohorts,
        }
    }

    /// Full JSON rendering, measured timing included.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// JSON with every *measured* timing field omitted (wall clock,
    /// throughput, worker count, round percentiles). Everything left is a
    /// pure function of the scenario config — two runs of the same scenario
    /// at any worker counts render byte-identical strings. Simulated think
    /// time stays: it is deterministic.
    pub fn deterministic_json(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, with_timing: bool) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"scenario\": {},\n", json_str(&self.scenario)));
        s.push_str(&format!("  \"sessions\": {},\n", self.sessions));
        if with_timing {
            s.push_str(&format!("  \"workers\": {},\n", self.workers));
            s.push_str(&format!("  \"wall_seconds\": {},\n", self.wall_seconds));
            s.push_str(&format!(
                "  \"sessions_per_sec\": {},\n",
                self.sessions_per_sec
            ));
        }
        s.push_str(&format!("  \"convergence_f1\": {},\n", self.convergence_f1));
        s.push_str("  \"cohorts\": [\n");
        for (i, c) in self.cohorts.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": {},\n", json_str(&c.name)));
            s.push_str(&format!("      \"sessions\": {},\n", c.sessions));
            s.push_str(&format!("      \"abandoned\": {},\n", c.abandoned));
            s.push_str(&format!("      \"drifted\": {},\n", c.drifted));
            s.push_str(&format!("      \"converged\": {},\n", c.converged));
            s.push_str(&format!("      \"mean_f1\": {},\n", c.mean_f1));
            s.push_str(&format!("      \"mean_rounds\": {},\n", c.mean_rounds));
            s.push_str(&format!("      \"mean_labels\": {},\n", c.mean_labels));
            s.push_str(&format!(
                "      \"mean_rounds_to_convergence\": {},\n",
                c.mean_rounds_to_convergence
            ));
            s.push_str(&format!(
                "      \"mean_think_seconds\": {}",
                c.mean_think_seconds
            ));
            if with_timing {
                s.push_str(&format!(
                    ",\n      \"round_p50_seconds\": {},\n",
                    c.round_p50_seconds
                ));
                s.push_str(&format!(
                    "      \"round_p95_seconds\": {}\n",
                    c.round_p95_seconds
                ));
            } else {
                s.push('\n');
            }
            s.push_str(if i + 1 < self.cohorts.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n}");
        s
    }

    /// Multi-line human-readable summary (one line per cohort).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "scenario {}: {} sessions / {} workers, {:.1} sessions/s",
            self.scenario, self.sessions, self.workers, self.sessions_per_sec
        );
        for c in &self.cohorts {
            s.push_str(&format!(
                "\n  {:<10} {:>3} sessions: F1 {:.3}, {:.1} rounds, {} abandoned, {} drifted, \
                 {} converged (mean {:.1} rounds), round p50 {:.2} ms p95 {:.2} ms",
                c.name,
                c.sessions,
                c.mean_f1,
                c.mean_rounds,
                c.abandoned,
                c.drifted,
                c.converged,
                c.mean_rounds_to_convergence,
                c.round_p50_seconds * 1e3,
                c.round_p95_seconds * 1e3,
            ));
        }
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile of an **ascending-sorted** slice; `p` in
/// `[0, 100]`. Empty input yields 0; a single sample is every percentile
/// of itself.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    // Nearest rank: the smallest r with 100·r/n ≥ p, i.e. ⌈p·n/100⌉.
    // Multiply *before* dividing: p·n is exact for integer-valued products
    // (95·20 = 1900), whereas (p/100)·n rounds p/100 first and the ceil
    // then lands one rank past the true one (e.g. p95 at n=20 gave rank 20,
    // p55 rank 12) — masked only by the clamp at the top end.
    let rank = ((p * n as f64) / 100.0).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("steady"), "\"steady\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\ny\"");
    }

    #[test]
    fn deterministic_json_omits_measured_timing() {
        let report = ScenarioReport {
            scenario: "mix".to_string(),
            sessions: 2,
            workers: 8,
            convergence_f1: 0.6,
            wall_seconds: 1.25,
            sessions_per_sec: 1.6,
            cohorts: vec![CohortStats {
                name: "steady".to_string(),
                sessions: 2,
                abandoned: 0,
                drifted: 0,
                converged: 1,
                mean_f1: 0.75,
                mean_rounds: 2.0,
                mean_labels: 60.0,
                mean_rounds_to_convergence: 1.5,
                mean_think_seconds: 0.0,
                round_p50_seconds: 0.01,
                round_p95_seconds: 0.02,
            }],
        };
        let full = report.to_json();
        for key in [
            "workers",
            "wall_seconds",
            "sessions_per_sec",
            "round_p50_seconds",
        ] {
            assert!(full.contains(key), "to_json must include {key}");
        }
        let det = report.deterministic_json();
        for key in ["workers", "wall_seconds", "sessions_per_sec", "round_p"] {
            assert!(!det.contains(key), "deterministic_json must omit {key}");
        }
        for key in ["mean_f1", "mean_think_seconds", "converged", "\"steady\""] {
            assert!(det.contains(key), "deterministic_json must keep {key}");
        }
        // Timing changes must not touch the deterministic rendering.
        let mut other = report.clone();
        other.wall_seconds = 99.0;
        other.workers = 1;
        other.cohorts[0].round_p95_seconds = 9.0;
        assert_eq!(det, other.deterministic_json());
        assert_ne!(full, other.to_json());
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 75.0), 3.0);
        assert_eq!(percentile(&xs, 95.0), 4.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    /// Regression (serving bugfix sweep): the old `(p/100)·n` form rounded
    /// `p/100` up for p ∈ {5, 55, 95, …}, so integer-valued ranks
    /// overshot by one — p95 at n=20 read `sorted[19]` (the max) instead
    /// of the 19th sample, and the `clamp` quietly absorbed the
    /// one-past-the-end rank instead of flagging it.
    #[test]
    fn percentile_exact_integer_ranks_do_not_overshoot() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 19.0, "p95·20 = rank 19 exactly");
        assert_eq!(percentile(&xs, 55.0), 11.0, "p55·20 = rank 11 exactly");
        assert_eq!(percentile(&xs, 5.0), 1.0, "p5·20 = rank 1 exactly");
        assert_eq!(percentile(&xs, 50.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 20.0);
    }

    /// Edge cases across small N, per the serving bugfix sweep:
    /// N ∈ {0, 1, 2, 19, 20, 21}.
    #[test]
    fn percentile_small_n_edge_cases() {
        // N = 0: defined as 0.
        assert_eq!(percentile(&[], 95.0), 0.0);
        // N = 1: every percentile is the sample; p50 == p95.
        let one = [3.5];
        assert_eq!(percentile(&one, 0.0), 3.5);
        assert_eq!(percentile(&one, 50.0), 3.5);
        assert_eq!(percentile(&one, 95.0), 3.5);
        assert_eq!(percentile(&one, 100.0), 3.5);
        // N = 2: p50 is the first sample, p95/p100 the second.
        let two = [1.0, 2.0];
        assert_eq!(percentile(&two, 50.0), 1.0);
        assert_eq!(percentile(&two, 51.0), 2.0);
        assert_eq!(percentile(&two, 95.0), 2.0);
        assert_eq!(percentile(&two, 100.0), 2.0);
        // N = 19: p95 → rank ⌈18.05⌉ = 19, the max.
        let n19: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&n19, 95.0), 19.0);
        assert_eq!(percentile(&n19, 50.0), 10.0);
        // N = 20: p95 → rank 19 exactly (the overshoot case above).
        let n20: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&n20, 95.0), 19.0);
        // N = 21: p95 → rank ⌈19.95⌉ = 20.
        let n21: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&n21, 95.0), 20.0);
        assert_eq!(percentile(&n21, 50.0), 11.0);
    }
}
