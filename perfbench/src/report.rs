//! The metric catalogue and the result line every run ends with.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions; a test keeps the two in step.

use crate::stats;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

#[cfg(test)]
impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogued metric: name, unit, direction.
pub type MetricDef = (&'static str, &'static str, Better);

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    ("commit_txn_per_s", "txn/s", Better::Higher),
    ("window_p50_ms", "ms", Better::Lower),
    ("window_p90_ms", "ms", Better::Lower),
    ("ops_ok_share", "ratio", Better::Higher),
    ("setup_s", "s", Better::Lower),
    ("sim_s_per_wall_s", "s/s", Better::Higher),
    // Deterministic predictions on the simulator's virtual clock, hence
    // the simulated-time units.
    ("sim_txn_per_s", "txn/sim_s", Better::Higher),
    ("sim_latency_p50_ms", "sim_ms", Better::Lower),
    ("sim_latency_p99_ms", "sim_ms", Better::Lower),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    ("host.deliver_ns.PrePrepare", "ns", Better::Lower),
    ("host.deliver_ns.Checkpoint", "ns", Better::Lower),
    ("host.client_request_ns", "ns", Better::Lower),
    ("trusted.append_f_per_batch.primary", "count", Better::Lower),
    ("trusted.append_f_per_batch.backup", "count", Better::Lower),
    ("trusted.append_f_ns", "ns", Better::Lower),
    ("crypto.attest_verify_ns", "ns", Better::Lower),
    ("exec.submit_ns_per_txn", "ns", Better::Lower),
    ("protocol.replies_per_txn", "count", Better::Lower),
    ("protocol.useful_reply_share", "ratio", Better::Higher),
    ("protocol.on_reply_ns", "ns", Better::Lower),
    ("runtime.dropped_msgs_per_ktxn", "count", Better::Lower),
    ("runtime.peak_rss_mb", "MB", Better::Lower),
    ("workload.next_txn_ns", "ns", Better::Lower),
    ("sim.wall_ns_per_txn", "ns", Better::Lower),
    ("sim.events_per_txn", "count", Better::Lower),
    ("sim.msgs_per_txn", "count", Better::Lower),
    ("sim.wall_ns_per_event", "ns", Better::Lower),
    ("sim.tc_accesses_per_batch", "count", Better::Lower),
    ("sim.tc_primary_share", "ratio", Better::Higher),
    ("trace.overhead_share", "ratio", Better::Lower),
];

/// Whether `name` is a legal metric or workload name: it starts with a
/// letter or digit and uses only `[A-Za-z0-9_.-]`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (transactions) attempted.
    pub attempted: u64,
    /// Attempted operations that failed: missed their deadline, or belong
    /// to a simulation repeat that failed a check.
    pub failed: u64,
    /// Correctness failures; any entry fails the run.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the human-readable report printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `value` for the catalogued metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a correctness failure.
    pub fn fail(&mut self, error: impl Into<String>) {
        self.errors.push(error.into());
    }

    /// Checks that every metric of `catalogue` was measured exactly once
    /// as a finite number and that something was attempted; each breach
    /// becomes an error.
    pub fn check(&mut self, catalogue: &[MetricDef]) {
        for (name, _, _) in catalogue {
            if !valid_name(name) {
                self.errors
                    .push(format!("metric name {name:?} is malformed"));
            }
            let found = self.metrics.iter().filter(|(n, _)| n == name).count();
            if found != 1 {
                self.errors.push(format!(
                    "metric {name} measured {found} times, expected once"
                ));
            }
        }
        for (name, value) in &self.metrics {
            if !catalogue.iter().any(|(n, _, _)| n == name) {
                self.errors.push(format!("metric {name} is not catalogued"));
            }
            if !value.is_finite() {
                self.errors.push(format!("metric {name} is {value}"));
            }
        }
        if self.attempted == 0 {
            self.errors.push("no operation was attempted".to_string());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// finite metrics of `catalogue` with their units.
    pub fn json(&self, catalogue: &[MetricDef]) -> String {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let measured = catalogue.iter().filter_map(|(name, unit, _)| {
            let (_, value) = self.metrics.iter().find(|(n, _)| n == name)?;
            value.is_finite().then_some((name, unit, value))
        });
        for (i, (name, unit, value)) in measured.enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        json
    }
}

/// One measuring unit of a run: a simulator repeat, or a chunk of
/// consecutive closed-loop windows.
pub struct Unit {
    /// Transactions committed per wall second within the unit.
    pub txn_per_s: f64,
    /// Wall time of each window in the unit, milliseconds.
    pub window_ms: Vec<f64>,
}

/// Records `commit_txn_per_s`, `window_p50_ms` and `window_p90_ms` as the
/// best value any of `units` reached.
///
/// Every unit of a run does the same work, and the host's contention only
/// ever slows a unit; the machine's speed moves by up to 1.7× from second
/// to second, so the best unit is the steady estimate of what the code
/// costs. A unit too small to support its p90 is a failed check.
pub fn record_units(units: &[Unit], outcome: &mut Outcome) {
    let (mut rate, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for (i, unit) in units.iter().enumerate() {
        let sorted = stats::sorted(&unit.window_ms);
        rate.push(unit.txn_per_s);
        p50.extend(stats::median(&sorted));
        match stats::tail_percentile(&sorted, 0.9) {
            Some(p) => p90.push(p),
            None => outcome.fail(format!(
                "unit {i}: {} windows cannot support p90",
                sorted.len()
            )),
        }
    }
    let pooled: Vec<f64> = units
        .iter()
        .flat_map(|u| u.window_ms.iter().copied())
        .collect();
    outcome.notes.push(format!(
        "{} units; windows, all units: {}",
        units.len(),
        stats::describe(&pooled, "ms")
    ));
    outcome
        .notes
        .push(format!("txn/s by unit: {}", stats::list(&rate)));
    outcome.set("commit_txn_per_s", stats::best_high(&rate));
    outcome.set("window_p50_ms", stats::best_low(&p50));
    outcome.set("window_p90_ms", stats::best_low(&p90));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(!valid_name("host.deliver ns"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("p99(ms)"));
        assert!(!valid_name(""));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    /// `BENCHMARK.json` must list exactly the catalogue, in order, with the
    /// same units and directions.
    #[test]
    fn the_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let rows = |section: &str| -> Vec<String> {
            let start = manifest
                .find(&format!("\"{section}\""))
                .unwrap_or_else(|| panic!("section {section}"));
            let body = &manifest[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .lines()
                .filter(|l| l.contains("\"name\""))
                .map(|l| l.trim().trim_end_matches(',').to_string())
                .collect()
        };
        let expect = |defs: &[MetricDef], bounded: bool| -> Vec<String> {
            defs.iter()
                .map(|(name, unit, better)| {
                    let head = format!(
                        "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
                        better.as_str()
                    );
                    head + if bounded { ", \"bound\":" } else { "}" }
                })
                .collect()
        };
        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, head) in e2e.iter().zip(expect(END_TO_END, true)) {
            assert!(row.starts_with(&head), "{row} vs {head}");
        }
        assert_eq!(rows("per_layer"), expect(PER_LAYER, false));
    }
}
