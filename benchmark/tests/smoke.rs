//! Smoke mode end to end: every workload at ~1/50 size, two replays, the
//! traced pass and the probes, through the same pinned-child path the full
//! run takes.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");
const WORKLOADS: [&str; 6] = [
    "paper_tables",
    "migrate_storm",
    "ulp_pingpong",
    "mcast_bulk",
    "adm_churn",
    "cluster_day",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

/// Every `"name": "<value>"` of a document, in order. `BENCHMARK.json` and
/// the result files are the benchmark's own output, so a line scan is all
/// the parsing the test needs.
fn names(doc: &str) -> Vec<String> {
    doc.lines()
        .filter_map(|l| l.trim().strip_prefix("\"name\": \""))
        .filter_map(|l| l.split('"').next())
        .map(str::to_string)
        .collect()
}

fn quick_suite(seed: u64, out_dir: &Path) -> String {
    let started = std::time::Instant::now();
    let out = Command::new(BIN)
        .args(["--quick", "--seed", &seed.to_string(), "--out-dir"])
        .arg(out_dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "quick suite failed with seed {seed}:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 60,
        "quick suite took {:?}",
        started.elapsed()
    );
    stdout
}

#[test]
fn quick_suite_prints_every_name_in_benchmark_json_and_fails_nothing() {
    let manifest =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let described = Command::new(BIN)
        .arg("describe")
        .output()
        .expect("describe runs");
    assert_eq!(
        manifest,
        String::from_utf8_lossy(&described.stdout),
        "BENCHMARK.json is not what `benchmark describe` prints; regenerate it"
    );

    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-1994");
    let stdout = quick_suite(1994, &out_dir);
    let wanted = names(&manifest);
    assert!(
        wanted.len() > 70,
        "workloads + e2e + per-layer names: {}",
        wanted.len()
    );
    for name in &wanted {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "name {name:?} has characters outside [A-Za-z0-9_.-]"
        );
        assert!(
            stdout.contains(name.as_str()),
            "{name} missing from the output"
        );
    }
    for w in WORKLOADS {
        assert!(
            wanted.iter().any(|n| n == w),
            "{w} missing from BENCHMARK.json"
        );
        let result =
            std::fs::read_to_string(out_dir.join(format!("{w}.result.json"))).expect("result file");
        assert!(
            result.contains("\"failed\": 0,"),
            "{w} failed operations:\n{result}"
        );
        assert!(
            result.contains("\"pinned\": "),
            "{w} records whether it was pinned"
        );
        assert!(
            out_dir.join(format!("{w}.trace.json")).exists(),
            "{w} wrote no trace file"
        );
    }
    let latest = std::fs::read_to_string(out_dir.join("latest.json")).expect("suite result file");
    for key in [
        "git_commit",
        "rustc",
        "nproc",
        "cpu_model",
        "seed",
        "timestamp_utc",
        "sizes",
    ] {
        assert!(
            latest.contains(&format!("\"{key}\": ")),
            "provenance lacks {key}"
        );
    }
    // A run compared with itself: every exact row equal, nothing regressed
    // (two quick replays are too few to resolve the host rows, which is
    // what the verdict must then say instead of "ok").
    let same = Command::new(BIN)
        .arg("compare")
        .args([out_dir.join("latest.json"), out_dir.join("latest.json")])
        .output()
        .expect("compare runs");
    let rows = String::from_utf8_lossy(&same.stdout);
    assert!(
        rows.contains("sim_digest") && rows.contains("exact per-layer counts equal"),
        "{rows}"
    );
    assert!(
        !rows.contains("DIFFERS") && !rows.contains("REGRESSED"),
        "{rows}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn another_seed_passes_every_output_check() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-7");
    let stdout = quick_suite(7, &out_dir);
    assert!(!stdout.contains("FAILED"), "{stdout}");
    let _ = std::fs::remove_dir_all(&out_dir);
}
