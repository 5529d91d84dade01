//! The six workloads. Names are fixed: later issues cite them.
//!
//! Each workload is one function that builds its inputs from the seed,
//! runs the simulator once (a *replay*) and checks the simulated outputs.
//! Host time is split into set-up (input generation, cluster and actor
//! construction) and the measured window (inputs ready → `run()` returned
//! and the outcome collected).

use crate::json::{obj, Json};
use opt_app::OptConfig;
use simcore::{ActorId, MetricsReport, SimTime, TraceEvent};
use std::collections::BTreeMap;
use worknet::Cluster;

pub mod adm_churn;
pub mod cluster_day;
pub mod mcast_bulk;
pub mod migrate_storm;
pub mod paper_tables;
pub mod ulp_pingpong;

/// What a replay is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Feeds Opt data, fault times, command times and the trace generator.
    pub seed: u64,
    /// Smoke sizes (~1/50 of the frozen ones).
    pub quick: bool,
    /// The traced pass: span recorder on, simulator metrics on.
    pub traced: bool,
}

/// The simulated results of a replay — exact for a given seed and size.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOut {
    /// Virtual end time of the job, simulated seconds.
    pub makespan_s: f64,
    /// Mean migration cost, simulated seconds (workloads that migrate).
    pub migrate_s: Option<f64>,
    /// Mean obtrusiveness / freeze time, simulated seconds.
    pub freeze_s: Option<f64>,
    /// Mean |measured/paper − 1| × 100 over the paper-table cells run.
    pub paper_err_pct: Option<f64>,
    /// Hash of every simulated output the workload checks (never the
    /// kernel event count, which a kernel rewrite may legitimately change).
    pub digest: u64,
}

/// One replay's measurements and checks.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Host seconds before the window.
    pub setup_s: f64,
    /// Host seconds of the measured window.
    pub wall_s: f64,
    /// Work units completed (unit named by the workload).
    pub work_units: u64,
    /// Output checks attempted in this replay, beyond the work units.
    pub checks: u64,
    /// What failed, one line each (a failed work unit or check).
    pub failures: Vec<String>,
    pub sim: SimOut,
    /// Exact per-layer counts the program exposes. Complete only on the
    /// traced replay, where simulator metrics are on.
    pub counts: BTreeMap<&'static str, f64>,
}

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    /// What one work unit is.
    pub unit: &'static str,
    /// Why it exists: the layer that does most of the work → what it bypasses.
    pub why: &'static str,
    pub run: fn(&Params) -> Replay,
    /// The frozen sizes, for provenance.
    pub sizes: fn(quick: bool) -> Json,
    /// Opt runs whose gradient arithmetic the workload executes (empty if
    /// none): the `opt` probe times `run_sequential` over exactly these.
    pub opt_configs: fn(&Params) -> Vec<OptConfig>,
}

fn no_opt(_: &Params) -> Vec<OptConfig> {
    Vec::new()
}

/// All workloads, in reporting order.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "paper_tables",
        unit: "migration experiments",
        why: "reproduce Tables 2/4/6 on all three systems; Opt arithmetic and data generation \
              dominate, so kernel/protocol speedups should not move it; carries the accuracy metric",
        run: paper_tables::run,
        sizes: paper_tables::sizes,
        opt_configs: paper_tables::opt_configs,
    },
    Workload {
        name: "migrate_storm",
        unit: "migrations",
        why: "evacuation waves of MPVM workers with severed streams: mpvm protocol, worknet TCP/bus \
              contention and the kernel-event heap; bypasses opt, upvm, adm and cpe",
        run: migrate_storm::run,
        sizes: migrate_storm::sizes,
        opt_configs: no_opt,
    },
    Workload {
        name: "ulp_pingpong",
        unit: "round trips",
        why: "two ULPs in one container exchange small messages: simcore actor handoff, upvm \
              ProcSched and per-message pvm overhead; no network, no bytes",
        run: ulp_pingpong::run,
        sizes: ulp_pingpong::sizes,
        opt_configs: no_opt,
    },
    Workload {
        name: "mcast_bulk",
        unit: "delivered payloads",
        why: "the same pvm message plane used by bytes, not message count: an extra copy shows in \
              wall_s and peak_rss_mb here while ulp_pingpong improves; few events",
        run: mcast_bulk::run,
        sizes: mcast_bulk::sizes,
        opt_configs: no_opt,
    },
    Workload {
        name: "adm_churn",
        unit: "repartitions",
        why: "alternating withdraw/rejoin on a small-dim ADMopt: adm RunFlags store, \
              plan_redistribution and consensus rounds; bypasses mpvm, upvm and cpe",
        run: adm_churn::run,
        sizes: adm_churn::sizes,
        opt_configs: adm_churn::opt_configs,
    },
    Workload {
        name: "cluster_day",
        unit: "trace rows",
        why: "a generated cluster day replayed on a 2-shard kernel: workload generator (set-up), \
              cpe decide/LoadIndex, interned metrics, actor recycling, shard sync; few kernel events",
        run: cluster_day::run,
        sizes: cluster_day::sizes,
        opt_configs: no_opt,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Provenance helper: `{"key": number, ...}`.
pub(crate) fn size_obj(pairs: &[(&str, f64)]) -> Json {
    obj(pairs.iter().map(|&(k, v)| (k, Json::from(v))))
}

/// FNV-1a over the simulated outputs a workload checks.
pub(crate) struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, b: &[u8]) -> &mut Digest {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }
    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }
    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Virtual seconds from the first `from` tag to the first `to` tag at or
/// after it (the way the table harness reads a protocol trace).
pub(crate) fn tag_span_s(trace: &[TraceEvent], from: &str, to: &str) -> Option<f64> {
    let t0 = trace.iter().find(|e| e.tag == from)?.at;
    let t1 = trace.iter().find(|e| e.tag == to && e.at >= t0)?.at;
    Some(t1.since(t0).as_secs_f64())
}

/// Per-actor protocol timelines: for every actor, each `start` tag opens
/// an interval that the next `end` tag of the same actor closes. `mark`
/// remembers the latest time that tag was seen inside the open interval.
/// Returns `(start, latest mark, end)` per closed interval, in trace order,
/// plus the number of intervals left open.
pub(crate) fn actor_intervals(
    trace: &[TraceEvent],
    start: &str,
    mark: &str,
    end: &str,
) -> (Vec<(SimTime, Option<SimTime>, SimTime)>, usize) {
    let mut open: BTreeMap<ActorId, (SimTime, Option<SimTime>)> = BTreeMap::new();
    let mut closed = Vec::new();
    for e in trace {
        let Some(a) = e.actor else { continue };
        if e.tag == start {
            open.insert(a, (e.at, None));
        } else if e.tag == mark {
            if let Some(o) = open.get_mut(&a) {
                o.1 = Some(e.at);
            }
        } else if e.tag == end {
            if let Some((t0, m)) = open.remove(&a) {
                closed.push((t0, m, e.at));
            }
        }
    }
    (closed, open.len())
}

/// Fold the exact counts a metrics-enabled cluster exposes into `counts`
/// under the ledger's names, and hand the report back for anything
/// workload-specific. Call only on the traced replay.
pub(crate) fn layer_counts(
    cluster: &Cluster,
    end: SimTime,
    counts: &mut BTreeMap<&'static str, f64>,
) -> MetricsReport {
    let report = cluster.metrics_report(end.since(SimTime::ZERO));
    let c = |k: &str| report.counters.get(k).copied().unwrap_or(0) as f64;
    let h = |k: &str| report.histograms.get(k).map_or(0.0, |h| h.count() as f64);
    for (name, value) in [
        ("pvm.msgs_sent", c("pvm.msgs.sent")),
        ("pvm.bytes_sent", c("pvm.bytes.sent")),
        ("pvm.bytes_copied", c("pvm.bytes.copied")),
        ("worknet.wire_bytes", cluster.net().total_wire_bytes()),
        (
            "worknet.fault_events",
            report
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("fault.injected."))
                .map(|(_, v)| *v)
                .sum::<u64>() as f64,
        ),
        ("mpvm.migrations", c("mpvm.migrations.completed")),
        ("mpvm.chunks_sent", c("mpvm.chunks.sent")),
        ("mpvm.chunks_resumed", c("mpvm.chunks.resumed")),
        ("mpvm.flushed_msgs", c("mpvm.flushed.msgs")),
        ("adm.repartitions", h("adm.repartition_ns")),
        ("adm.consensus_rounds", c("adm.consensus.rounds")),
    ] {
        counts.insert(name, value);
    }
    report
}

pub(crate) fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
