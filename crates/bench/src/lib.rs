//! # bench-tables — reproduction harness for every table and figure
//!
//! One binary per table/figure in the paper's evaluation (§4.0). Each
//! prints the paper's value next to the reproduced value and writes a
//! machine-readable JSON record under `results/` (consumed when updating
//! EXPERIMENTS.md).
//!
//! Run with `--release`: the Opt runs perform the real neural-net
//! arithmetic they charge virtual time for.
//!
//! The scenario modules ([`scenarios`], [`par_kernel`], [`cluster_day`],
//! [`scale`], [`multi_seg`]) build the larger deterministic runs and return
//! their virtual-time observables; the root package's `tests/gates.rs`
//! asserts the exact properties, and `benchmark/` measures host cost.

#![warn(missing_docs)]

pub mod cluster_day;
pub mod experiments;
pub mod json;
pub mod multi_seg;
pub mod par_kernel;
pub mod scale;
pub mod scenarios;

use simcore::TraceEvent;
use std::path::PathBuf;

/// One row of a reproduced table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. a data size or a system name).
    pub label: String,
    /// The paper's reported value, if it reported one.
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
    /// Unit (always seconds in this paper; defaults to `"s"` when absent
    /// from a stored record).
    pub unit: String,
}

impl Row {
    /// A row with a paper reference value.
    pub fn with_paper(label: impl Into<String>, paper: f64, measured: f64) -> Row {
        Row {
            label: label.into(),
            paper: Some(paper),
            measured,
            unit: "s".into(),
        }
    }

    /// A row the paper did not report a number for.
    pub fn measured_only(label: impl Into<String>, measured: f64) -> Row {
        Row {
            label: label.into(),
            paper: None,
            measured,
            unit: "s".into(),
        }
    }

    /// measured / paper, if the paper value exists.
    pub fn ratio(&self) -> Option<f64> {
        self.paper.map(|p| self.measured / p)
    }
}

/// A reproduced table: title + rows + free-form notes.
#[derive(Debug, Clone)]
pub struct Reproduction {
    /// Experiment id, e.g. `"table2"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// The rows.
    pub rows: Vec<Row>,
    /// What to keep in mind comparing against the paper.
    pub notes: String,
}

impl Reproduction {
    /// Print the table to stdout in the report format.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        println!(
            "{:<44} {:>10} {:>12} {:>8}",
            "row", "paper", "measured", "ratio"
        );
        for r in &self.rows {
            let paper = r
                .paper
                .map(|p| format!("{p:.2}{}", r.unit))
                .unwrap_or_else(|| "-".into());
            let ratio = r
                .ratio()
                .map(|x| format!("{x:.2}x"))
                .unwrap_or_else(|| "-".into());
            println!(
                "{:<44} {:>10} {:>11.2}{} {:>8}",
                r.label, paper, r.measured, r.unit, ratio
            );
        }
        if !self.notes.is_empty() {
            println!("note: {}", self.notes);
        }
    }

    /// Write the JSON record to `results/<id>.json` (repo root).
    pub fn save(&self) {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, json::to_string_pretty(self)).expect("write results json");
        println!("saved {}", path.display());
    }
}

/// Where result JSON goes: `$ADAPTIVE_PVM_RESULTS` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("ADAPTIVE_PVM_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Extract the interval between two trace tags, in seconds. Uses the first
/// occurrence of each tag at or after `from_tag`'s first occurrence.
pub fn span_secs(trace: &[TraceEvent], from_tag: &str, to_tag: &str) -> f64 {
    let t0 = trace
        .iter()
        .find(|e| e.tag == from_tag)
        .unwrap_or_else(|| panic!("trace missing {from_tag}"))
        .at;
    let t1 = trace
        .iter()
        .find(|e| e.tag == to_tag && e.at >= t0)
        .unwrap_or_else(|| panic!("trace missing {to_tag} after {from_tag}"))
        .at;
    t1.since(t0).as_secs_f64()
}

/// Pretty-print a protocol trace filtered to tags with any of the prefixes.
pub fn print_trace(trace: &[TraceEvent], prefixes: &[&str]) {
    for e in trace {
        if prefixes.iter().any(|p| e.tag.starts_with(p)) {
            println!("{e}");
        }
    }
}

/// The paper's Table 2 data sizes (MB listed; the migrating slave holds
/// half).
pub const TABLE2_SIZES_MB: [f64; 6] = [0.6, 4.2, 5.8, 9.8, 13.5, 20.8];

/// Table 2 paper values: (size MB, raw TCP s, obtrusiveness s, migration s).
pub const TABLE2_PAPER: [(f64, f64, f64, f64); 6] = [
    (0.6, 0.27, 1.17, 1.39),
    (4.2, 1.82, 2.93, 3.15),
    (5.8, 2.51, 3.90, 4.10),
    (9.8, 4.42, 5.92, 6.18),
    (13.5, 6.17, 8.42, 9.25),
    (20.8, 10.00, 12.52, 13.10),
];

/// Table 6 paper values: (size MB, ADM migration s).
pub const TABLE6_PAPER: [(f64, f64); 6] = [
    (0.6, 1.75),
    (4.2, 4.42),
    (5.8, 5.46),
    (9.8, 9.96),
    (13.5, 12.41),
    (20.8, 21.69),
];

/// Iteration count that keeps a table-2-style run long enough to contain
/// the migration window but cheap enough to execute for real.
pub fn iterations_for_size(data_bytes: usize) -> usize {
    // One iteration ≈ (exemplars/2) * 8512 flops / 45 MFLOP/s.
    let exemplars = data_bytes as f64 / 260.0;
    let iter_secs = exemplars / 2.0 * 8512.0 / 45.0e6;
    // Window: migration at 5 s plus up to ~25 s of protocol.
    ((32.0 / iter_secs).ceil() as usize).clamp(6, 80)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn ev(t: f64, tag: &str) -> TraceEvent {
        TraceEvent {
            at: SimTime((t * 1e9) as u64),
            actor: None,
            actor_name: None,
            tag: tag.into(),
            detail: String::new(),
        }
    }

    #[test]
    fn span_measures_between_tags() {
        let tr = vec![ev(1.0, "a"), ev(2.5, "b"), ev(3.0, "a"), ev(4.0, "b")];
        assert!((span_secs(&tr, "a", "b") - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "trace missing")]
    fn span_panics_on_missing_tag() {
        let _ = span_secs(&[ev(1.0, "a")], "a", "nope");
    }

    #[test]
    fn row_ratio() {
        let r = Row::with_paper("x", 2.0, 3.0);
        assert_eq!(r.ratio(), Some(1.5));
        assert_eq!(Row::measured_only("y", 1.0).ratio(), None);
    }

    #[test]
    fn iteration_count_scales_down_with_size() {
        assert!(iterations_for_size(600_000) > iterations_for_size(20_800_000));
        for mb in TABLE2_SIZES_MB {
            let i = iterations_for_size((mb * 1e6) as usize);
            assert!((6..=80).contains(&i));
        }
    }
}
