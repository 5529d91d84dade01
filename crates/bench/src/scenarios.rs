//! Scenario builders shared by the figure binaries and the root package's
//! `tests/gates.rs`: each runs one deterministic simulation and returns its
//! virtual-time observables (metrics JSON, decision logs, event counts).
//! Nothing here reads a clock — host cost is measured by `benchmark/`.
//!
//! * **figure-1**: the MPVM migration-protocol run, one migration.
//! * **day-in-the-life**: 8 owned workstations with owner sessions, load
//!   bursts, and GS-driven evacuations — the paper's §1.0 scenario.
//! * **migration storm**: concurrent evacuations under the chunked and the
//!   monolithic migration engine, optionally with a severed stream.
//! * **policy ablation**: the five scheduling policies on a skewed storm
//!   and on day-in-the-life.

use cpe::MpvmTarget;
use mpvm::Mpvm;
use opt_app::config::OptConfig;
use opt_app::data::TrainingSet;
use opt_app::{ms, MigrationPlan};
use parking_lot::Mutex;
use pvm_rt::{Pvm, TaskApi, Tid};
use std::sync::{mpsc, Arc};
use worknet::{Calib, Cluster, Fault, FaultSchedule, HostId, HostSpec, LoadTrace, OwnerTrace};

/// Parameters for a day-in-the-life run (§1.0 scenario).
#[derive(Debug, Clone)]
pub struct DayConfig {
    /// RNG seed for owner sessions and load bursts.
    pub seed: u64,
    /// Scenario horizon in virtual seconds.
    pub horizon_secs: f64,
    /// Training-set size for the Opt job.
    pub data_bytes: usize,
    /// Training iterations.
    pub iters: usize,
    /// Opt slaves.
    pub nslaves: usize,
    /// Whether the workstations are shared (owner + load traces installed).
    pub shared: bool,
    /// Whether to record virtual-time metrics during the run.
    pub metrics: bool,
    /// Scheduling policy driving the GS (a [`POLICIES`] name).
    pub policy: &'static str,
    /// Shard count to drive the run through [`simcore::ShardedSim`];
    /// `0` (the default) runs the plain sequential kernel. The scenario is
    /// one cluster, so it always lives on shard 0 — extra shards idle.
    /// `shards == 1` must replay the sequential run byte-identically.
    pub shards: usize,
}

impl DayConfig {
    /// The full scenario the `day_in_the_life` binary runs.
    pub fn full(shared: bool, seed: u64) -> Self {
        DayConfig {
            seed,
            horizon_secs: 3600.0,
            data_bytes: 6_000_000,
            iters: 80,
            nslaves: 4,
            shared,
            metrics: false,
            policy: "owner_reclaim",
            shards: 0,
        }
    }

    /// The reduced shared scenario `tests/gates.rs` replays, metrics on:
    /// same shape as [`DayConfig::full`], sized so a debug build finishes
    /// in seconds. The seed is one whose first owner sessions (3.7 s and
    /// 16.9 s) fall inside the ~20 s job, so every run records migration
    /// spans, not just counters.
    pub fn gate() -> Self {
        DayConfig {
            seed: 1975,
            horizon_secs: 600.0,
            data_bytes: 100_000,
            iters: 120,
            nslaves: 4,
            shared: true,
            metrics: true,
            policy: "owner_reclaim",
            shards: 0,
        }
    }
}

/// The observable outcome of one day-in-the-life run.
pub struct DayRun {
    /// Virtual time at which the Opt job finished.
    pub job_end_secs: f64,
    /// GS evacuation decisions, formatted for the report.
    pub decisions: Vec<String>,
    /// Per-host parallel-compute utilization over the job window.
    pub utilization: Vec<f64>,
    /// Simulator heap entries processed.
    pub events: u64,
    /// Final virtual time of the whole simulation (monitor horizon).
    pub sim_end_secs: f64,
    /// Whether training loss improved over the run (sanity check).
    pub converged: bool,
    /// Metrics snapshot, when [`DayConfig::metrics`] was set.
    pub metrics: Option<simcore::MetricsReport>,
    /// The raw GS decision log (the ablation classifies outcomes).
    pub gs_decisions: Vec<cpe::Decision>,
    /// Per-host busy time in nanoseconds over the whole run.
    pub busy_ns: Vec<u64>,
}

/// Run the paper's §1.0 motivating scenario: a long Opt training job under
/// MPVM + the CPE global scheduler on 8 owned workstations, evacuated every
/// time an owner sits down.
pub fn day_in_the_life(cfg: &DayConfig) -> DayRun {
    let b = (0..8u64).fold(Cluster::builder(Calib::hp720_ethernet()), |b, h| {
        let spec = HostSpec::hp720(format!("ws{h}"));
        let spec = if cfg.shared {
            spec.with_owner(OwnerTrace::random_sessions(
                cfg.seed + h,
                cfg.horizon_secs,
                200.0,
                90.0,
            ))
            .with_load(LoadTrace::random_bursts(
                cfg.seed + 100 + h,
                cfg.horizon_secs,
                150.0,
                60.0,
                2,
            ))
        } else {
            spec
        };
        b.with_host(spec)
    });
    let b = if cfg.metrics { b.with_metrics() } else { b };
    // `shards > 0` reroutes the run through the sharded kernel: the whole
    // cluster is pinned to shard 0 (one cluster = one sim), so this is the
    // 1-shard replay-identity path, not a parallel one (that is
    // `par_kernel::par_storm`).
    let sharded = (cfg.shards > 0).then(|| simcore::ShardedSim::new(cfg.shards));
    let b = match &sharded {
        Some(ss) => b.on_sim(ss.sim(0).clone()),
        None => b,
    };
    let cluster = Arc::new(b.build());
    let mpvm = Mpvm::new(Pvm::new(Arc::clone(&cluster)));

    let mut opt_cfg = OptConfig::paper(cfg.data_bytes, cfg.iters);
    opt_cfg.nslaves = cfg.nslaves;
    opt_cfg.nhosts = 8;
    let set = TrainingSet::synthetic(opt_cfg.data_bytes, opt_cfg.dim, opt_cfg.ncats, opt_cfg.seed);
    let parts = set.partitions(opt_cfg.nslaves);

    let result = Arc::new(Mutex::new(None));
    let mut slaves = Vec::new();
    let mut txs = Vec::new();
    for (i, part) in parts.into_iter().enumerate() {
        let cfg2 = opt_cfg.clone();
        let (tx, rx) = mpsc::channel::<Tid>();
        txs.push(tx);
        slaves.push(
            mpvm.spawn_app(HostId(i % 8), format!("slave{i}"), move |task| {
                let master = rx.recv().unwrap();
                ms::slave(task, &cfg2, master, &part);
            }),
        );
    }
    let cfg2 = opt_cfg;
    let res = Arc::clone(&result);
    let slaves2 = slaves.clone();
    let job_end = Arc::new(Mutex::new(0.0f64));
    let je = Arc::clone(&job_end);
    let master = mpvm.spawn_app(HostId(4), "master", move |task| {
        *res.lock() = Some(ms::master(task, &cfg2, &slaves2));
        *je.lock() = pvm_rt::TaskApi::now(task).as_secs_f64();
    });
    for tx in txs {
        tx.send(master).unwrap();
    }
    mpvm.seal();

    let gs = cpe::Gs::builder(&cluster)
        .target(Arc::new(MpvmTarget(Arc::clone(&mpvm))))
        .policy(make_policy(cfg.policy))
        .spawn();

    // The simulation runs on past the job's completion (pre-installed
    // monitor trace events fire through the full horizon); the job's own
    // end time is what we report.
    let sim_end = match &sharded {
        Some(ss) => ss.run().expect("day-in-the-life (sharded) failed"),
        None => cluster.sim.run().expect("day-in-the-life failed"),
    };
    let end = *job_end.lock();
    let decisions: Vec<String> = gs
        .decisions()
        .iter()
        .map(|d| format!("[{:7.1}s] move {} -> {}", d.at.as_secs_f64(), d.unit, d.dst))
        .collect();
    let r = result.lock().take().expect("master produced no result");
    let util = cluster.utilization(simcore::SimDuration::from_secs_f64(end.max(1.0)));
    let metrics = cfg
        .metrics
        .then(|| cluster.metrics_report(sim_end.since(simcore::SimTime::ZERO)));
    let busy_ns = cluster
        .hosts()
        .iter()
        .map(|h| h.busy_time().as_nanos())
        .collect();
    DayRun {
        job_end_secs: end,
        decisions,
        utilization: util,
        events: cluster.sim.events_processed(),
        sim_end_secs: sim_end.as_secs_f64(),
        converged: r.final_loss() < r.losses[0],
        metrics,
        gs_decisions: gs.decisions(),
        busy_ns,
    }
}

/// The figure-1 workload at gate size — an MPVM Opt run (1 MB set, 8
/// iterations, ~5 virtual seconds) with slave 1 migrated to host 0 at
/// t = 1 s, mid-job: its [`OptConfig`] and migration plan.
pub fn figure1_scenario() -> (OptConfig, Vec<MigrationPlan>) {
    let mut cfg = OptConfig::paper(1_000_000, 8);
    cfg.chunk = 64;
    (
        cfg,
        vec![MigrationPlan {
            at_secs: 1.0,
            slave: 1,
            dst: HostId(0),
        }],
    )
}

/// One engine's numbers from a migration-storm run.
#[derive(Debug, Clone, Default)]
pub struct StormRun {
    /// Mean `mpvm.freeze_ns` across completed migrations — how long each
    /// VP was actually stopped.
    pub freeze_ns_mean: f64,
    /// Mean completed `migrate:` span duration (signal to restart).
    pub migrate_ns_mean: f64,
    /// `mpvm.migrations.completed`.
    pub completed: u64,
    /// `mpvm.chunks.sent` (0 under the monolithic engine).
    pub chunks_sent: u64,
    /// `mpvm.chunks.resumed` — chunks a severed-TCP resume did *not*
    /// re-send (0 when no sever was injected or under monolithic).
    pub chunks_resumed: u64,
    /// Simulator heap entries processed.
    pub events: u64,
    /// Virtual seconds the run covered.
    pub sim_secs: f64,
}

/// Workers in the gate-sized migration storm.
pub const STORM_WORKERS: usize = 4;

/// Migratable state each storm worker carries, bytes.
pub const STORM_STATE_BYTES: usize = 2_000_000;

/// One migration-storm run: [`STORM_WORKERS`] VPs each carrying
/// [`STORM_STATE_BYTES`] of migratable state are evacuated concurrently
/// (worker `i`: host `i` → host `nworkers + i`) at t = 2 s on a quiet
/// `2 × nworkers`-host cluster.
/// With `sever`, the link of worker 0's destination is cut at t = 4 s —
/// mid-way through every stream. `shards > 0` drives the run through a
/// [`simcore::ShardedSim`] with the cluster on shard 0 (the 1-shard
/// identity gate pairs `shards == 0` with `shards == 1`). Returns the
/// headline numbers and the full metrics JSON.
pub fn storm_run(calib: Calib, sever: bool, shards: usize) -> (StormRun, String) {
    let (nworkers, state_bytes) = (STORM_WORKERS, STORM_STATE_BYTES);
    let sharded = (shards > 0).then(|| simcore::ShardedSim::new(shards));
    let mut b = Cluster::builder(calib);
    b.quiet_hp720s(2 * nworkers);
    let b = match &sharded {
        Some(ss) => b.on_sim(ss.sim(0).clone()),
        None => b,
    };
    let mut b = b.with_metrics();
    if sever {
        b = b.with_faults(FaultSchedule::new().at(
            simcore::SimDuration::from_secs(4),
            Fault::SeverTcp {
                host: HostId(nworkers),
            },
        ));
    }
    let cluster = Arc::new(b.build());
    let mpvm = Mpvm::new(Pvm::new(Arc::clone(&cluster)));
    let mut tids = Vec::new();
    for i in 0..nworkers {
        tids.push(mpvm.spawn_app(HostId(i), format!("storm{i}"), move |t| {
            t.set_state_bytes(state_bytes);
            t.compute(45.0e6 * 40.0);
        }));
    }
    mpvm.seal();
    let m2 = Arc::clone(&mpvm);
    cluster.sim.spawn("storm-gs", move |ctx| {
        ctx.advance(simcore::SimDuration::from_secs(2));
        for (i, &t) in tids.iter().enumerate() {
            m2.inject_migration(&ctx, t, HostId(nworkers + i));
        }
    });
    let end = match &sharded {
        Some(ss) => ss.run().expect("migration storm (sharded) failed"),
        None => cluster.sim.run().expect("migration storm failed"),
    };
    let report = cluster.metrics_report(end.since(simcore::SimTime::ZERO));
    let spans = report.spans_with_prefix("migrate:");
    let migrate_ns_mean = if spans.is_empty() {
        0.0
    } else {
        spans.iter().map(|s| s.total.as_nanos() as f64).sum::<f64>() / spans.len() as f64
    };
    let counter = |k: &str| report.counters.get(k).copied().unwrap_or(0);
    let run = StormRun {
        freeze_ns_mean: report
            .histograms
            .get("mpvm.freeze_ns")
            .map(|h| h.mean_ns())
            .unwrap_or(0.0),
        migrate_ns_mean,
        completed: counter("mpvm.migrations.completed"),
        chunks_sent: counter("mpvm.chunks.sent"),
        chunks_resumed: counter("mpvm.chunks.resumed"),
        events: cluster.sim.events_processed(),
        sim_secs: end.as_secs_f64(),
    };
    (run, report.to_json())
}

// ---------------------------------------------------------------------------
// Policy ablation
// ---------------------------------------------------------------------------

/// The five scheduling policies the ablation compares.
pub const POLICIES: &[&str] = &[
    "owner_reclaim",
    "load_threshold",
    "rebalance",
    "destination_swap",
    "decentralized_gossip",
];

/// Construct a boxed policy by its [`POLICIES`] name, with the ablation's
/// standard parameters: load threshold 1.5, 30 s central sweep periods,
/// 5 s gossip rounds.
pub fn make_policy(name: &str) -> Box<dyn cpe::SchedulingPolicy> {
    let secs = simcore::SimDuration::from_secs;
    match name {
        "owner_reclaim" => cpe::owner_reclaim(),
        "load_threshold" => cpe::load_threshold(1.5),
        "rebalance" => cpe::rebalance(secs(30)),
        "destination_swap" => cpe::destination_swap(secs(30)),
        "decentralized_gossip" => cpe::decentralized_gossip(secs(5)),
        other => panic!("unknown scheduling policy {other:?}"),
    }
}

/// One (policy × workload) cell of the ablation.
#[derive(Debug, Clone)]
pub struct PolicyCell {
    /// Policy name (a [`POLICIES`] entry).
    pub policy: &'static str,
    /// Units whose *last* decision failed for a reason other than the
    /// unit having already exited — work the policy stranded.
    pub failed_unretried: u64,
    /// Final load imbalance: coefficient of variation of per-host busy
    /// time, floored at 0.05 (see [`load_imbalance`]).
    pub imbalance: f64,
    /// Virtual seconds the run covered.
    pub end_secs: f64,
    /// Whether two same-seed metrics-on runs produced byte-identical
    /// metrics JSON *and* identical decision-log ordering.
    pub replay_identical: bool,
}

/// Units whose last decision in the log failed with work left to retry.
fn failed_unretried(decisions: &[cpe::Decision]) -> u64 {
    use std::collections::HashMap;
    let last: HashMap<Tid, &cpe::Decision> = decisions.iter().map(|d| (d.unit, d)).collect();
    last.values()
        .filter(|d| match &d.outcome {
            pvm_rt::MigrationOutcome::Completed { .. } => false,
            // A unit that exited before the order landed is gone, not
            // stranded: there was nothing left to retry.
            pvm_rt::MigrationOutcome::Failed {
                error: pvm_rt::PvmError::NoSuchTask(t),
            } if *t == d.unit => false,
            pvm_rt::MigrationOutcome::Failed { .. } => true,
        })
        .count() as u64
}

/// Final load imbalance of a run: the coefficient of variation (stddev /
/// mean) of per-host busy time, floored at 0.05 so near-perfectly-balanced
/// runs cannot divide an ablation gate by ~0.
pub fn load_imbalance(busy_ns: &[u64]) -> f64 {
    let n = busy_ns.len() as f64;
    if n < 1.0 {
        return 0.05;
    }
    let mean = busy_ns.iter().map(|&b| b as f64).sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.05;
    }
    let var = busy_ns
        .iter()
        .map(|&b| (b as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    (var.sqrt() / mean).max(0.05)
}

/// The observables one ablation run produces.
struct PolicyRun {
    decisions: Vec<cpe::Decision>,
    report: simcore::MetricsReport,
    busy_ns: Vec<u64>,
    end_secs: f64,
}

/// One policy-storm run: 12 sliced MPVM workers skewed onto hosts 0 and 1
/// of an 8-host cluster. Host 0's owner sits down at t = 12 s and stays — a
/// permanent evacuation trigger, late enough that the gossip daemons have
/// completed their first staggered rounds — and host 1 carries an external
/// load plateau announced in several steps, so every policy faces both an
/// evacuation and a standing imbalance. Metrics are on (the replay check
/// compares the full report).
fn policy_storm_run(policy: &'static str) -> PolicyRun {
    let slices = 400;
    let t = |s: u64| simcore::SimTime(s * 1_000_000_000);
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    for h in 0..8usize {
        let mut spec = HostSpec::hp720(format!("st{h}"));
        if h == 0 {
            spec = spec.with_owner(OwnerTrace::events(vec![(t(12), true)]));
        } else if h == 1 {
            spec = spec.with_load(LoadTrace::steps(vec![
                (t(4), 2.5),
                (t(30), 2.1),
                (t(55), 2.4),
                (t(80), 0.0),
            ]));
        }
        b.host(spec);
    }
    let cluster = Arc::new(b.with_metrics().build());
    let mpvm = Mpvm::new(Pvm::new(Arc::clone(&cluster)));
    for i in 0..12usize {
        mpvm.spawn_app(HostId(i % 2), format!("storm{i}"), move |task| {
            task.set_state_bytes(300_000);
            for _ in 0..slices {
                task.compute(4.5e6);
            }
        });
    }
    mpvm.seal();
    let gs = cpe::Gs::builder(&cluster)
        .target(Arc::new(MpvmTarget(Arc::clone(&mpvm))))
        .policy(make_policy(policy))
        .spawn();
    let end = cluster.sim.run().expect("policy storm failed");
    let report = cluster.metrics_report(end.since(simcore::SimTime::ZERO));
    let busy_ns = cluster
        .hosts()
        .iter()
        .map(|h| h.busy_time().as_nanos())
        .collect();
    PolicyRun {
        decisions: gs.decisions(),
        report,
        busy_ns,
        end_secs: end.as_secs_f64(),
    }
}

/// One [`DayConfig::gate`] day-in-the-life run under the named policy.
fn policy_day_run(policy: &'static str) -> PolicyRun {
    let r = day_in_the_life(&DayConfig {
        policy,
        ..DayConfig::gate()
    });
    PolicyRun {
        decisions: r.gs_decisions,
        report: r.metrics.expect("metrics enabled"),
        busy_ns: r.busy_ns,
        end_secs: r.sim_end_secs,
    }
}

/// Render a decision log as deterministic JSON lines for replay comparison.
fn decisions_json(decisions: &[cpe::Decision]) -> Vec<String> {
    decisions.iter().map(|d| d.to_json()).collect()
}

/// The storm cell of the ablation for `policy` (a [`POLICIES`] name).
pub fn policy_storm_cell(policy: &'static str) -> PolicyCell {
    policy_cell(policy, policy_storm_run)
}

/// The day-in-the-life cell of the ablation for `policy`.
pub fn policy_day_cell(policy: &'static str) -> PolicyCell {
    policy_cell(policy, policy_day_run)
}

/// Run `policy` through one workload twice with metrics on, so the cell
/// carries its own replay-identity verdict.
fn policy_cell(policy: &'static str, run: fn(&'static str) -> PolicyRun) -> PolicyCell {
    let a = run(policy);
    let b = run(policy);
    let replay_identical = a.report.to_json() == b.report.to_json()
        && decisions_json(&a.decisions) == decisions_json(&b.decisions);
    PolicyCell {
        policy,
        failed_unretried: failed_unretried(&a.decisions),
        imbalance: load_imbalance(&a.busy_ns),
        end_secs: a.end_secs,
        replay_identical,
    }
}
