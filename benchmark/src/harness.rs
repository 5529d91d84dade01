//! Running one workload in this process: warm-up, timed replays, output
//! checks, the instability guard, the traced pass and the ledger.
//!
//! Load model: closed loop, one replay at a time, one process. The
//! simulator creates its own actor threads, but exactly one is runnable at
//! any instant and the parent confined this process to one CPU.

use crate::json::{obj, Json};
use crate::ledger::{E2E, LAYERS};
use crate::workloads::{Params, Replay, SimOut, Workload};
use crate::{probes, spans, stats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Measured replays a full-size run never goes below.
pub const MIN_REPLAYS: usize = 5;
/// `max / min` of the measured walls above which a sample is not one
/// population (the unpinned 1 s vs 4.4 s case) and no median is reported.
pub const UNSTABLE_RATIO: f64 = 1.25;
/// `trace.overhead_pct` above which the traced pass warns.
const TRACE_OVERHEAD_WARN_PCT: f64 = 15.0;

/// Which passes a child makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    /// Timed replays only (`--trace 0`).
    Timed,
    /// A short untraced baseline, then the traced pass (`--trace 1`).
    Traced,
    /// Timed replays, then the traced pass (the suite).
    Both,
}

pub struct ChildOpts {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub passes: Passes,
    /// The CPU the parent pinned this process to, if it could.
    pub pinned_cpu: Option<usize>,
    pub out_dir: PathBuf,
}

/// The timed replays of one run.
struct Sample {
    /// Every replay in order; the first is the warm-up and the reference
    /// the others' simulated outputs must equal.
    replays: Vec<Replay>,
    attempted: u64,
    failures: Vec<String>,
}

impl Sample {
    fn measured(&self) -> &[Replay] {
        &self.replays[1..]
    }
    fn walls(&self) -> Vec<f64> {
        self.measured().iter().map(|r| r.wall_s).collect()
    }
    fn setups(&self) -> Vec<f64> {
        self.measured().iter().map(|r| r.setup_s).collect()
    }
    fn reference(&self) -> &SimOut {
        &self.replays[0].sim
    }
}

/// One warm-up, then measured replays until both `min_replays` of them
/// and `seconds` of set-up + window have passed.
fn sample(w: &Workload, p: &Params, min_replays: usize, seconds: f64) -> Sample {
    let mut s = Sample {
        replays: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let replay = |s: &mut Sample| {
        let r = (w.run)(p);
        check(s, &r, s.replays.len());
        s.replays.push(r);
    };
    replay(&mut s);
    let measuring_since = Instant::now();
    while s.measured().len() < min_replays || measuring_since.elapsed().as_secs_f64() < seconds {
        replay(&mut s);
    }
    s
}

/// Count a replay's operations and failures.
fn check(s: &mut Sample, r: &Replay, index: usize) {
    // Work units, the workload's own checks, and "equals replay 1".
    s.attempted += r.work_units + r.checks + 1;
    for f in &r.failures {
        s.failures.push(format!("replay {index}: {f}"));
    }
    if let Some(first) = s.replays.first() {
        if r.sim != first.sim {
            s.failures.push(format!(
                "replay {index}: simulated outputs differ from replay 0 ({:?} vs {:?})",
                r.sim, first.sim
            ));
        }
    }
}

/// The value of one `Name:` line of `/proc/self/status`.
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    Some(line.strip_prefix(':')?.trim().to_string())
}

fn peak_rss_mb() -> f64 {
    proc_status("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the child hands back: the detailed result and the process status.
pub struct ChildResult {
    pub detail: Json,
    pub correct: bool,
    pub unstable: bool,
}

pub fn run_workload(w: &'static Workload, o: &ChildOpts) -> ChildResult {
    let p = Params {
        seed: o.seed,
        quick: o.quick,
        traced: false,
    };
    let (min_replays, seconds) = match (o.quick, o.passes) {
        (true, Passes::Traced) => (1, 0.0),
        (true, _) => (2, 0.0),
        // The traced pass only needs a baseline to state its overhead against.
        (false, Passes::Traced) => (2, o.seconds / 2.0),
        (false, _) => (MIN_REPLAYS, o.seconds),
    };
    let mut s = sample(w, &p, min_replays, seconds);
    let mut remeasured = false;
    let spread = |s: &Sample| stats::max(&s.walls()) / stats::min(&s.walls());
    if !o.quick && spread(&s) > UNSTABLE_RATIO {
        // One hiccup on a shared host is not bimodality: measure once more
        // and believe the second sample, whatever it says.
        eprintln!(
            "warning: {}: replay walls {:?} span more than {UNSTABLE_RATIO}x; measuring again",
            w.name,
            s.walls()
        );
        s = sample(w, &p, min_replays, seconds);
        remeasured = true;
    }
    let unstable = !o.quick && spread(&s) > UNSTABLE_RATIO;
    let walls = s.walls();
    let wall_s = stats::median(&walls);
    let last = s.replays.last().expect("at least the warm-up ran");
    let work_units = last.work_units;
    // Read before the traced pass and the probes add their own footprint.
    let rss_mb = peak_rss_mb();

    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("wall_s", wall_s);
    e2e.insert("work_per_s", work_units as f64 / wall_s);
    e2e.insert("setup_s", stats::median(&s.setups()));
    e2e.insert("peak_rss_mb", rss_mb);
    let sim = s.reference().clone();
    e2e.insert("sim_makespan_s", sim.makespan_s);
    for (name, v) in [
        ("sim_migrate_s", sim.migrate_s),
        ("sim_freeze_s", sim.freeze_s),
        ("paper_err_pct", sim.paper_err_pct),
    ] {
        if let Some(v) = v {
            e2e.insert(name, v);
        }
    }

    let mut layers: Option<BTreeMap<&'static str, f64>> = None;
    let mut trace_file = None;
    if o.passes != Passes::Timed {
        let (l, file) = traced_pass(w, &p, &mut s, wall_s, o);
        layers = Some(l);
        trace_file = file;
    }
    e2e.insert("fail_share", s.failures.len() as f64 / s.attempted as f64);

    let correct = s.failures.is_empty();
    print_report(w, o, &s, &e2e, layers.as_ref(), unstable);
    let detail = obj([
        ("workload", Json::from(w.name)),
        ("work_unit", Json::from(w.unit)),
        ("why", Json::from(w.why)),
        ("seed", Json::from(o.seed)),
        ("quick", Json::from(o.quick)),
        ("pinned", Json::from(o.pinned_cpu.is_some())),
        (
            "pinned_cpu",
            o.pinned_cpu.map_or(Json::Null, |c| Json::from(c as u64)),
        ),
        ("sizes", (w.sizes)(o.quick)),
        ("measured_replays", Json::from(walls.len() as u64)),
        ("warmup_replays", Json::from(1u64)),
        ("remeasured", Json::from(remeasured)),
        ("unstable", Json::from(unstable)),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(s.attempted)),
        ("failed", Json::from(s.failures.len() as u64)),
        (
            "failures",
            Json::Arr(
                s.failures
                    .iter()
                    .take(20)
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
        ("sim_digest", Json::from(format!("{:016x}", sim.digest))),
        (
            "samples",
            obj([
                (
                    "wall_s",
                    Json::Arr(walls.iter().map(|&v| Json::from(v)).collect()),
                ),
                (
                    "setup_s",
                    Json::Arr(s.setups().iter().map(|&v| Json::from(v)).collect()),
                ),
            ]),
        ),
        (
            "e2e",
            obj(E2E.iter().filter_map(|m| {
                e2e.get(m.name).map(|&v| {
                    (
                        m.name,
                        obj([("value", Json::from(v)), ("unit", Json::from(m.unit))]),
                    )
                })
            })),
        ),
        (
            "per_layer",
            layers.as_ref().map_or(Json::Null, |l| {
                obj(LAYERS.iter().map(|m| {
                    (
                        m.name,
                        obj([
                            ("value", Json::from(l.get(m.name).copied().unwrap_or(0.0))),
                            ("unit", Json::from(m.unit)),
                        ]),
                    )
                }))
            }),
        ),
        (
            "trace_file",
            trace_file.map_or(Json::Null, |f: PathBuf| Json::from(f.display().to_string())),
        ),
    ]);
    ChildResult {
        detail,
        correct,
        unstable,
    }
}

/// The one extra replay with the span recorder and simulator metrics on,
/// then the probes; returns the ledger and where the spans were written.
fn traced_pass(
    w: &'static Workload,
    p: &Params,
    s: &mut Sample,
    untraced_wall_s: f64,
    o: &ChildOpts,
) -> (BTreeMap<&'static str, f64>, Option<PathBuf>) {
    let index = s.replays.len();
    spans::set_enabled(true, index as u32);
    let traced = (w.run)(&Params { traced: true, ..*p });
    spans::set_enabled(false, 0);
    let rec = spans::collect();
    // The traced replay's simulated outputs are checked like any other's;
    // its times stay out of the sample.
    check(s, &traced, index);
    let Replay {
        wall_s: wall_traced,
        counts,
        sim,
        work_units,
        ..
    } = traced;

    let mut l = probes::run_all(w, p);
    l.extend(counts.iter().map(|(k, v)| (*k, *v)));
    let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let events = c("simcore.events");
    l.insert("simcore.ns_per_event", ratio(untraced_wall_s * 1e9, events));
    l.insert(
        "simcore.handoff_share",
        ratio(l["simcore.handoff_ns"] * events, untraced_wall_s * 1e9).min(1.0),
    );
    l.insert(
        "pvm.copy_ratio",
        ratio(c("pvm.bytes_copied"), c("pvm.bytes_sent")),
    );
    l.insert(
        "pvm.bytes_per_msg",
        ratio(c("pvm.bytes_sent"), c("pvm.msgs_sent")),
    );
    // Host cost per work unit, under the layer whose unit it is.
    let per_unit = |unit: &str, scale: f64| {
        if w.unit == unit {
            untraced_wall_s * scale / work_units as f64
        } else {
            0.0
        }
    };
    l.insert(
        "mpvm.events_per_migration",
        ratio(events, c("mpvm.migrations")),
    );
    l.insert("mpvm.host_us_per_migration", per_unit("migrations", 1e6));
    l.insert("upvm.host_ns_per_roundtrip", per_unit("round trips", 1e9));
    l.insert("adm.host_ms_per_repartition", per_unit("repartitions", 1e3));
    let arith = if l["opt.workload_runs"] > 0.0 {
        l["opt.gradient_s"] / untraced_wall_s
    } else {
        0.0
    };
    l.insert("opt.arith_share", arith);
    l.remove("opt.workload_runs");
    for (metric, span_names) in [
        ("worknet.compute_busy_s", &["worknet.compute"][..]),
        ("pvm.pack_busy_s", &["pvm.pack"]),
        ("pvm.send_busy_s", &["pvm.send"]),
        ("pvm.recv_wait_s", &["pvm.recv", "pvm.gather"]),
        ("pvm.bcast_busy_s", &["pvm.bcast"]),
        ("mpvm.inject_busy_s", &["mpvm.inject_migration"]),
        ("upvm.send_busy_s", &["upvm.send"]),
        ("upvm.recv_wait_s", &["upvm.recv"]),
    ] {
        l.insert(metric, span_names.iter().map(|n| rec.busy_s(n)).sum());
    }
    l.insert(
        "trace.spans",
        rec.totals.values().map(|t| t.count).sum::<u64>() as f64,
    );
    let overhead = (wall_traced / untraced_wall_s - 1.0) * 100.0;
    l.insert("trace.overhead_pct", overhead);
    if overhead > TRACE_OVERHEAD_WARN_PCT {
        eprintln!(
            "warning: {}: tracing overhead {overhead:.1} % exceeds {TRACE_OVERHEAD_WARN_PCT} %",
            w.name
        );
    }
    l.insert("sim.makespan_s", sim.makespan_s);
    l.insert("sim.migrate_s", sim.migrate_s.unwrap_or(0.0));
    l.insert("sim.freeze_s", sim.freeze_s.unwrap_or(0.0));
    l.insert("sim.paper_err_pct", sim.paper_err_pct.unwrap_or(0.0));

    let file = o.out_dir.join(format!("{}.trace.json", w.name));
    let written = write_file(&file, &rec.to_json().pretty());
    (l, written.then_some(file))
}

/// Write under the output directory; a read-only checkout costs the file,
/// not the run.
pub fn write_file(path: &Path, text: &str) -> bool {
    let res = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = &res {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    res.is_ok()
}

fn print_report(
    w: &Workload,
    o: &ChildOpts,
    s: &Sample,
    e2e: &BTreeMap<&'static str, f64>,
    layers: Option<&BTreeMap<&'static str, f64>>,
    unstable: bool,
) {
    let walls = s.walls();
    println!(
        "== {}  seed {}  {}  {} measured replays after 1 warm-up{}",
        w.name,
        o.seed,
        match o.pinned_cpu {
            Some(c) => format!("pinned to cpu {c}"),
            None => "NOT PINNED".to_string(),
        },
        walls.len(),
        if o.quick { "  (quick sizes)" } else { "" },
    );
    println!("   why: {}", w.why);
    for m in &E2E {
        let Some(v) = e2e.get(m.name) else {
            println!(
                "   {:<16} n/a (no reference or no migration in this workload)",
                m.name
            );
            continue;
        };
        let base = if m.exact {
            "exact for a seed"
        } else {
            "host, measured"
        };
        let extra = match m.name {
            "wall_s" => format!(
                "  min {} max {} n {}",
                stats::min(&walls),
                stats::max(&walls),
                walls.len()
            ),
            "work_per_s" => format!("  ({} per host second)", w.unit),
            "fail_share" => format!(
                "  ({} failed / {} attempted)",
                s.failures.len(),
                s.attempted
            ),
            "paper_err_pct" => "  (reference = the paper's tables)".to_string(),
            _ => String::new(),
        };
        println!("   {:<16} {v} {}  [{base}]{extra}", m.name, m.unit);
    }
    println!("   sim_digest       {:016x}", s.reference().digest);
    if unstable {
        println!(
            "   UNSTABLE: max/min of the replay walls exceeds {UNSTABLE_RATIO}; no median is reported"
        );
    }
    for f in s.failures.iter().take(10) {
        println!("   FAILED: {f}");
    }
    if let Some(l) = layers {
        println!("   -- per-layer ledger (traced pass + probes) --");
        for m in &LAYERS {
            println!(
                "   {:<30} {} {}  [{:?}; moves {}]",
                m.name,
                l.get(m.name).copied().unwrap_or(0.0),
                m.unit,
                m.source,
                m.moves
            );
        }
    }
}

/// The driver's result line.
pub fn contract_line(r: &ChildResult, passes: Passes) -> String {
    let d = &r.detail;
    let section = if passes == Passes::Traced {
        "per_layer"
    } else {
        "e2e"
    };
    // Of the end-to-end metrics the driver gets the measured ones; the
    // exact ones reach it as `sim.*` in the per-layer list.
    let wanted =
        |name: &str| passes == Passes::Traced || E2E.iter().any(|m| m.name == name && !m.exact);
    let metrics = d
        .get(section)
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter(|(k, _)| wanted(k))
        .map(|(k, v)| (k.clone(), v.clone()));
    obj([
        ("correct", Json::from(r.correct)),
        (
            "attempted",
            d.get("attempted").cloned().unwrap_or(Json::Null),
        ),
        ("failed", d.get("failed").cloned().unwrap_or(Json::Null)),
        ("metrics", obj(metrics)),
    ])
    .compact()
}
