//! The benchmark of the PVM migration simulator.
//!
//! ```text
//! benchmark [--quick] [--seed N] [--seconds S]         all six workloads, e2e + traced pass
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! benchmark compare A.json B.json                       verdict per (workload, e2e metric)
//! benchmark describe                                    the contents of /BENCHMARK.json
//! ```
//!
//! Every workload runs in a child process of its own, re-executed under
//! `taskset -c <last allowed cpu>`; see README.md for why.

mod compare;
mod harness;
mod json;
mod ledger;
mod probes;
mod spans;
mod stats;
mod workloads;

use harness::{ChildOpts, Passes};
use json::{obj, Json};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Exit code of a workload whose outputs were wrong.
const EXIT_INCORRECT: u8 = 2;
/// Exit code of a workload whose replay walls were not one population.
const EXIT_UNSTABLE: u8 = 3;

struct Args {
    workload: Option<String>,
    child: bool,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    pinned_cpu: Option<usize>,
    out_dir: PathBuf,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark [--quick] [--seed N] [--seconds S] [--out-dir DIR]\n       \
         benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]\n       \
         benchmark compare BASELINE.json CHANGE.json\n\
         workloads: {}",
        workloads::ALL.map(|w| w.name).join(" ")
    );
    ExitCode::from(64)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        child: false,
        seed: 1994,
        seconds: RUN_SECONDS as f64,
        trace: None,
        quick: false,
        pinned_cpu: None,
        // From the repo root (where the driver runs it) or from the package.
        out_dir: if std::path::Path::new("benchmark/Cargo.toml").exists() {
            "benchmark/out".into()
        } else {
            "out".into()
        },
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => a.quick = true,
            "--child" => a.child = true,
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--pinned-cpu" => {
                a.pinned_cpu = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--pinned-cpu takes a cpu number")?,
                )
            }
            "--out-dir" => a.out_dir = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if workloads::by_name(w).is_none() {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => compare::run(a, b),
            _ => usage("compare takes two result files"),
        };
    }
    if argv == ["describe"] {
        print!("{}", describe().pretty());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match (&args.workload, args.child) {
        (Some(name), true) => child(name, &args),
        (Some(name), false) => {
            // The driver's form: one workload, pinned, its result line last.
            let passes = if args.trace == Some(true) {
                Passes::Traced
            } else {
                Passes::Timed
            };
            ExitCode::from(spawn_child(name, &args, passes))
        }
        (None, true) => usage("--child needs --workload"),
        (None, false) => suite(&args),
    }
}

/// How long one driver run measures (`run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: u64 = 10;

/// `/BENCHMARK.json`, generated from the tables the benchmark itself
/// reports from, so the two cannot drift (the smoke test compares them).
fn describe() -> Json {
    let better = |lower: bool| Json::from(if lower { "lower" } else { "higher" });
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::from(*s)).collect());
    obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                ledger::E2E
                    .iter()
                    .filter(|m| !m.exact)
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", better(m.lower_is_better)),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                ledger::LAYERS
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", better(m.lower_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Every child runs with one glibc malloc arena. Exactly one simulator
/// thread runs at any instant, so the per-thread arenas glibc would create
/// for the carrier threads buy nothing, and they keep freed message bodies
/// and training sets resident: `mcast_bulk` peaked anywhere from 156 to
/// 430 MB for identical work with them, 95 MB in every run without.
const MALLOC_ARENA_ENV: (&str, &str) = ("MALLOC_ARENA_MAX", "1");

/// The last CPU this process may run on (`Cpus_allowed_list`, e.g. `0-1`).
fn last_allowed_cpu() -> Option<usize> {
    let list = harness::proc_status("Cpus_allowed_list")?;
    list.rsplit([',', '-']).next()?.parse().ok()
}

/// Re-execute this program for one workload, pinned to one CPU when
/// `taskset` exists. Returns the child's exit code.
fn spawn_child(name: &str, args: &Args, passes: Passes) -> u8 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut tail: Vec<String> = vec![
        "--child".into(),
        "--workload".into(),
        name.into(),
        "--seed".into(),
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--out-dir".into(),
        args.out_dir.display().to_string(),
    ];
    if args.quick {
        tail.push("--quick".into());
    }
    match passes {
        Passes::Timed => tail.extend(["--trace".into(), "0".into()]),
        Passes::Traced => tail.extend(["--trace".into(), "1".into()]),
        Passes::Both => {}
    }
    let run = |cpu: Option<usize>| {
        let mut cmd = match cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(cpu.to_string()).arg(&exe);
                c.args(&tail).args(["--pinned-cpu", &cpu.to_string()]);
                c
            }
            None => {
                let mut c = Command::new(&exe);
                c.args(&tail);
                c
            }
        };
        cmd.env(MALLOC_ARENA_ENV.0, MALLOC_ARENA_ENV.1).status()
    };
    let pinned = last_allowed_cpu().and_then(|cpu| {
        run(Some(cpu))
            .map_err(|e| eprintln!("WARNING: cannot run taskset ({e})"))
            .ok()
    });
    let status = pinned.unwrap_or_else(|| {
        eprintln!(
            "WARNING: running {name} UNPINNED (pinned: false). Actor handoffs that cross CPUs \
             make host times bimodal; expect the instability guard to trip."
        );
        run(None).expect("re-executing the benchmark failed")
    });
    // Killed by a signal reads as a plain failure.
    status.code().map_or(1, |c| c.clamp(0, 255) as u8)
}

/// `--child`: run the workload here and report.
fn child(name: &str, args: &Args) -> ExitCode {
    let w = workloads::by_name(name).expect("validated by parse");
    let passes = match args.trace {
        Some(false) => Passes::Timed,
        Some(true) => Passes::Traced,
        None => Passes::Both,
    };
    let opts = ChildOpts {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        passes,
        pinned_cpu: args.pinned_cpu,
        out_dir: args.out_dir.clone(),
    };
    let r = harness::run_workload(w, &opts);
    harness::write_file(
        &args.out_dir.join(format!("{name}.result.json")),
        &r.detail.pretty(),
    );
    if r.unstable {
        return ExitCode::from(EXIT_UNSTABLE);
    }
    if passes != Passes::Both {
        println!("{}", harness::contract_line(&r, passes));
    }
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DDThh:mm:ssZ` of now, from the Unix clock (civil-from-days).
fn utc_timestamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let (d, m) = (
        doy - (153 * mp + 2) / 5 + 1,
        if mp < 10 { mp + 3 } else { mp - 9 },
    );
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

fn provenance(args: &Args) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj([
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("cpu_model", Json::from(cpu_model)),
        ("seed", Json::from(args.seed)),
        ("seconds_per_workload", Json::from(args.seconds)),
        ("quick", Json::from(args.quick)),
        (
            "min_measured_replays",
            Json::from(harness::MIN_REPLAYS as u64),
        ),
        ("timestamp_utc", Json::from(utc_timestamp())),
        (
            "load_model",
            Json::from("closed loop, one replay at a time, one process pinned to one CPU"),
        ),
        ("malloc_arena_max", Json::from(MALLOC_ARENA_ENV.1)),
    ])
}

/// All six workloads, each in its own pinned child: timed replays, output
/// checks, traced pass. Writes the result file `compare` reads.
fn suite(args: &Args) -> ExitCode {
    let prov = provenance(args);
    println!(
        "benchmark of the PVM migration simulator — provenance {}",
        prov.compact()
    );
    println!(
        "host time = what the simulator costs to run; simulated time = what the modelled 1994 \
         worknet would take (exact for a seed). Multi-core speedup is out of scope on this host."
    );
    let mut results = Vec::new();
    let mut worst = 0u8;
    for w in &workloads::ALL {
        let file = args.out_dir.join(format!("{}.result.json", w.name));
        // A child that dies early must not leave an older run's file to be read.
        let _ = std::fs::remove_file(&file);
        let code = spawn_child(w.name, args, Passes::Both);
        worst = worst.max(code);
        match std::fs::read_to_string(&file)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(detail) if code == 0 || code == EXIT_INCORRECT || code == EXIT_UNSTABLE => {
                results.push(detail)
            }
            Ok(_) | Err(_) => eprintln!("{}: no result (child exit code {code})", w.name),
        }
    }
    let doc = obj([
        ("schema", Json::from("benchmark-result-v1")),
        ("provenance", prov),
        ("workloads", Json::Arr(results)),
    ]);
    let stamp = utc_timestamp().replace(':', "");
    for name in [format!("result-{stamp}.json"), "latest.json".to_string()] {
        let path = args.out_dir.join(name);
        if harness::write_file(&path, &doc.pretty()) {
            println!("wrote {}", path.display());
        }
    }
    match worst {
        0 => ExitCode::SUCCESS,
        EXIT_UNSTABLE => {
            eprintln!("a workload was UNSTABLE: no median reported for it");
            ExitCode::from(EXIT_UNSTABLE)
        }
        c => ExitCode::from(c),
    }
}
