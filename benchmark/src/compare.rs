//! `benchmark compare BASELINE.json CHANGE.json` — one row per (workload,
//! end-to-end metric) with both medians, their quartiles, the bound and a
//! verdict; simulated metrics, digests and exact counts must be equal.

use crate::json::Json;
use crate::ledger::{Source, E2E, LAYERS};
use crate::stats;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    /// Spread between replays wider than the bound: neither changed nor
    /// unchanged can be claimed.
    Unresolved,
}

/// Set-up below this share of the workload's `wall_s` is not judged.
const NEGLIGIBLE_SETUP_SHARE: f64 = 0.01;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("benchmark-result-v1") {
        return Err(format!("{path}: not a benchmark-result-v1 file"));
    }
    Ok(doc)
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
}

fn value(w: &Json, section: &str, metric: &str) -> Option<f64> {
    w.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// The replay-level sample behind a host metric: measured directly for
/// wall and set-up, implied by the walls for work per second, a single
/// reading for peak RSS.
fn samples(w: &Json, metric: &str) -> Vec<f64> {
    let arr = |name: &str| -> Vec<f64> {
        w.get("samples")
            .and_then(|s| s.get(name))
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    match metric {
        "wall_s" | "setup_s" => arr(metric),
        "work_per_s" => {
            let work = value(w, "e2e", "work_per_s").unwrap_or(0.0)
                * value(w, "e2e", "wall_s").unwrap_or(0.0);
            arr("wall_s").iter().map(|wall| work / wall).collect()
        }
        _ => value(w, "e2e", metric).into_iter().collect(),
    }
}

fn quartiles(v: &[f64]) -> (f64, f64) {
    match v {
        [] => (f64::NAN, f64::NAN),
        [x] => (*x, *x),
        _ => stats::quartiles(v),
    }
}

fn judge(
    lower_is_better: bool,
    bound: f64,
    a: &[f64],
    b: &[f64],
    med_a: f64,
    med_b: f64,
) -> Verdict {
    let worse_by = if lower_is_better {
        (med_b - med_a) / med_a
    } else {
        (med_a - med_b) / med_a
    };
    let spread = |v: &[f64]| if v.len() >= 2 { stats::spread(v) } else { 0.0 };
    if spread(a).max(spread(b)) <= bound {
        return if worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    // Too noisy for the bound: only a clean separation of the two samples
    // says anything.
    let (best_a, worst_a, best_b, worst_b) = if lower_is_better {
        (stats::min(a), stats::max(a), stats::min(b), stats::max(b))
    } else {
        (
            -stats::max(a),
            -stats::min(a),
            -stats::max(b),
            -stats::min(b),
        )
    };
    if worst_b < best_a {
        Verdict::Ok
    } else if best_b > worst_a && worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(64);
        }
    };
    for (label, doc) in [("baseline", &a), ("change", &b)] {
        let p = |k: &str| {
            doc.get("provenance")
                .and_then(|p| p.get(k))
                .map_or("?".into(), Json::compact)
        };
        println!(
            "{label}: commit {} seed {} at {}",
            p("git_commit"),
            p("seed"),
            p("timestamp_utc")
        );
    }
    let seed = |d: &Json| {
        d.get("provenance")
            .and_then(|p| p.get("seed"))
            .and_then(Json::as_f64)
    };
    let same_seed = seed(&a) == seed(&b);
    if !same_seed {
        println!("seeds differ: simulated metrics, digests and counts are not comparable and are skipped");
    }
    println!(
        "{:<14} {:<15} {:>14} {:>22} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "baseline", "[q1, q3]", "change", "[q1, q3]", "bound"
    );
    let mut bad = 0usize;
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("workload").and_then(Json::as_str))
        .collect();
    for name in names {
        let wa = workload(&a, name).expect("listed above");
        let Some(wb) = workload(&b, name) else {
            println!("{name:<14} missing from {path_b}");
            bad += 1;
            continue;
        };
        for (label, w) in [("baseline", wa), ("change", wb)] {
            if w.get("unstable") == Some(&Json::Bool(true)) {
                println!("{name:<14} UNSTABLE in the {label} file: its host medians mean nothing");
                bad += 1;
            }
        }
        for m in &E2E {
            let (Some(va), Some(vb)) = (value(wa, "e2e", m.name), value(wb, "e2e", m.name)) else {
                continue;
            };
            if m.exact {
                if !same_seed {
                    continue;
                }
                let v = if va.to_bits() == vb.to_bits() {
                    Verdict::Ok
                } else {
                    Verdict::Regressed
                };
                bad += usize::from(v != Verdict::Ok);
                println!(
                    "{name:<14} {:<15} {va:>14} {:>22} {vb:>14} {:>22} {:>6}  {}",
                    m.name,
                    "",
                    "",
                    "exact",
                    if v == Verdict::Ok { "ok" } else { "DIFFERS" }
                );
                continue;
            }
            let (sa, sb) = (samples(wa, m.name), samples(wb, m.name));
            // Set-up under 1 % of the window cannot matter to anyone, and a
            // 0.1 ms interval does not repeat to 25 %: nothing to resolve.
            let wall = value(wa, "e2e", "wall_s").unwrap_or(0.0);
            let negligible = m.name == "setup_s" && va.max(vb) < NEGLIGIBLE_SETUP_SHARE * wall;
            let v = if negligible {
                Verdict::Ok
            } else {
                judge(m.lower_is_better, m.bound, &sa, &sb, va, vb)
            };
            bad += usize::from(v != Verdict::Ok);
            let q = |s: &[f64]| {
                let (q1, q3) = quartiles(s);
                format!("[{q1:.4}, {q3:.4}]")
            };
            println!(
                "{name:<14} {:<15} {va:>14.5} {:>22} {vb:>14.5} {:>22} {:>5.0}%  {}",
                m.name,
                q(&sa),
                q(&sb),
                m.bound * 100.0,
                match v {
                    Verdict::Ok if negligible => "ok (under 1 % of wall_s)",
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            );
        }
        if !same_seed {
            continue;
        }
        let digest = |w: &Json| {
            w.get("sim_digest")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let same = digest(wa) == digest(wb);
        bad += usize::from(!same);
        println!(
            "{name:<14} {:<15} {:>14} {:>22} {:>14} {:>22} {:>6}  {}",
            "sim_digest",
            digest(wa),
            "",
            digest(wb),
            "",
            "exact",
            if same { "ok" } else { "DIFFERS" }
        );
        let mut equal = 0;
        for l in LAYERS.iter().filter(|l| l.source == Source::Count) {
            match (
                value(wa, "per_layer", l.name),
                value(wb, "per_layer", l.name),
            ) {
                (Some(x), Some(y)) if x.to_bits() != y.to_bits() => {
                    bad += 1;
                    println!(
                        "{name:<14} {:<15} {x:>14} {:>22} {y:>14} {:>22} {:>6}  DIFFERS",
                        l.name, "", "", "exact"
                    );
                }
                (Some(_), Some(_)) => equal += 1,
                _ => {}
            }
        }
        println!("{name:<14} {equal} exact per-layer counts equal");
    }
    if bad == 0 {
        println!("all rows ok");
        ExitCode::SUCCESS
    } else {
        println!("{bad} rows not ok");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_separation() {
        let tight = [1.00, 1.01, 1.00, 0.99, 1.00];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.20];
        let noisy = [0.8, 1.3, 1.0, 0.7, 1.2];
        assert_eq!(judge(true, 0.08, &tight, &tight, 1.0, 1.0), Verdict::Ok);
        assert_eq!(
            judge(true, 0.08, &tight, &slower, 1.0, 1.2),
            Verdict::Regressed
        );
        assert_eq!(judge(true, 0.08, &slower, &tight, 1.2, 1.0), Verdict::Ok);
        assert_eq!(
            judge(true, 0.08, &tight, &noisy, 1.0, 1.0),
            Verdict::Unresolved
        );
        // Noisy but every change replay beats every baseline replay.
        let fast = [0.5, 0.6, 0.4, 0.55, 0.65];
        assert_eq!(judge(true, 0.08, &noisy, &fast, 1.0, 0.55), Verdict::Ok);
        // Higher is better: a drop beyond the bound regresses.
        assert_eq!(
            judge(false, 0.08, &slower, &tight, 1.2, 1.0),
            Verdict::Regressed
        );
    }
}
