//! sched_scale — prove the scheduler's per-decision cost stays flat as
//! the cluster grows.
//!
//! The batched-delta monitor plus the persistent `LoadIndex` are supposed
//! to make a decision cost O(log n) in cluster size instead of the old
//! rebuild-and-clone O(n log n). This scenario sweeps a synthetic cluster
//! 64 → 1024 hosts through storm-style churn where *every* host reports a
//! load transition at the same instants (so the monitor coalesces each
//! wave into one `LoadBatch` of n entries), while the set of hosts hot
//! enough to trigger evacuations stays fixed at [`HOT_HOSTS`] — so the
//! *decision* workload is constant across sizes and any cost growth is
//! pure scheduler overhead.
//!
//! The cost axis is virtual: the `gs.decision_ns` histogram mean — simulated
//! decision latency, deterministic and replay-comparable. (The host cost
//! of `policy.decide` is `benchmark/`'s `cpe.decide_ns` probe.)
//!
//! Each size runs three times: twice identically (byte-identical decision
//! logs + metrics JSON required) and once with the carrier pool capped at
//! 2 idle threads (scheduling decisions must not depend on the thread
//! pool). The root package's `tests/gates.rs` asserts the gates.

use cpe::MigrationTarget;
use parking_lot::Mutex;
use pvm_rt::{MigrationOutcome, Tid};
use simcore::{SimCtx, SimTime};
use std::collections::HashMap;
use std::sync::Arc;
use worknet::{Calib, Cluster, HostId, HostSpec, LoadTrace};

/// Hosts that ever exceed the evacuation threshold — fixed across sizes
/// so the decision workload does not scale with the cluster.
pub const HOT_HOSTS: usize = 16;

/// The cluster sizes the sweep measures.
pub const SIZES: &[usize] = &[64, 256, 1024];

/// Churn waves per run.
pub const ROUNDS: usize = 6;

/// A deferred GS drain hook (what `MigrationTarget::on_drain` receives).
type DrainHook = Box<dyn FnOnce(&SimCtx) + Send>;

/// A migration target over an in-memory unit→host map: migrations land
/// instantly and always succeed, so the run measures pure scheduler cost
/// (monitor → batch → index → decide) with no migration-system overhead —
/// which is what lets the sweep reach 1024 hosts.
struct SyntheticTarget {
    units: Mutex<HashMap<Tid, HostId>>,
    hooks: Mutex<Vec<DrainHook>>,
}

impl SyntheticTarget {
    fn new(units_per_hot: usize) -> Arc<Self> {
        let mut units = HashMap::new();
        for h in 0..HOT_HOSTS {
            for j in 0..units_per_hot {
                units.insert(Tid::new(HostId(h), j as u32 + 1), HostId(h));
            }
        }
        Arc::new(SyntheticTarget {
            units: Mutex::new(units),
            hooks: Mutex::new(Vec::new()),
        })
    }

    /// Fire the GS drain hooks: the workload is over.
    fn drain(&self, ctx: &SimCtx) {
        for hook in self.hooks.lock().drain(..) {
            hook(ctx);
        }
    }
}

impl MigrationTarget for SyntheticTarget {
    fn kind(&self) -> &'static str {
        "synthetic"
    }
    fn units_on(&self, host: HostId) -> Vec<Tid> {
        let mut v: Vec<Tid> = self
            .units
            .lock()
            .iter()
            .filter(|(_, h)| **h == host)
            .map(|(t, _)| *t)
            .collect();
        v.sort();
        v
    }
    fn can_migrate(&self, _unit: Tid, _dst: HostId) -> bool {
        true
    }
    fn migrate(&self, _ctx: &SimCtx, unit: Tid, dst: HostId) -> MigrationOutcome {
        self.units.lock().insert(unit, dst);
        MigrationOutcome::Completed { new_tid: unit }
    }
    fn on_drain(&self, f: Box<dyn FnOnce(&SimCtx) + Send>) {
        self.hooks.lock().push(f);
    }
}

/// The observables of one run at one size.
struct ScaleRun {
    decisions_json: Vec<String>,
    metrics_json: String,
    decision_ns_mean: f64,
    decisions: u64,
}

/// One churn wave hits at `10 + 5k` seconds; every host transitions.
fn wave_time(k: usize) -> SimTime {
    SimTime((10 + 5 * k as u64) * 1_000_000_000)
}

/// Run the storm at `hosts` hosts for `rounds` churn waves. Every wave,
/// all `hosts` load traces step at the same instant — the [`HOT_HOSTS`]
/// hottest to a value above the 1.5 threshold, the rest to sub-threshold
/// churn — so the monitor delivers one n-entry `LoadBatch` per wave and
/// the policy evacuates exactly one unit per hot host per wave.
fn scale_run(hosts: usize, rounds: usize, idle_carriers: Option<usize>) -> ScaleRun {
    assert!(hosts > HOT_HOSTS, "need cold hosts to evacuate onto");
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    for h in 0..hosts {
        let steps: Vec<(SimTime, f64)> = (0..rounds)
            .map(|k| {
                let load = if h < HOT_HOSTS {
                    // Always above threshold, value varying per wave so
                    // every wave is a real transition for every host.
                    2.0 + 0.1 * ((h + k) % 4) as f64
                } else {
                    0.2 + 0.1 * ((h + k) % 3) as f64
                };
                (wave_time(k), load)
            })
            .collect();
        b.host(HostSpec::hp720(format!("sc{h}")).with_load(LoadTrace::steps(steps)));
    }
    let cluster = Arc::new(b.with_metrics().build());
    if let Some(cap) = idle_carriers {
        cluster.sim.set_max_idle_carriers(cap);
    }
    // Enough units that a hot host never runs dry mid-sweep.
    let target = SyntheticTarget::new(rounds + 2);
    let gs = cpe::Gs::builder(&cluster)
        .target(Arc::clone(&target) as Arc<dyn MigrationTarget>)
        .policy(cpe::load_threshold(1.5))
        .spawn();
    // End the workload a comfortable margin after the last wave lands.
    let t_end = wave_time(rounds) + simcore::SimDuration::from_secs(10);
    let driver_target = Arc::clone(&target);
    cluster.sim.spawn("scale-driver", move |ctx| {
        ctx.advance(t_end.since(SimTime::ZERO));
        driver_target.drain(&ctx);
    });
    let end = cluster.sim.run().expect("sched_scale run failed");
    let report = cluster.metrics_report(end.since(SimTime::ZERO));
    let decision_hist = report.histograms.get("gs.decision_ns");
    ScaleRun {
        decisions_json: gs.decisions().iter().map(|d| d.to_json()).collect(),
        metrics_json: report.to_json(),
        decision_ns_mean: decision_hist.map(|h| h.mean_ns()).unwrap_or(0.0),
        decisions: decision_hist.map(|h| h.count()).unwrap_or(0),
    }
}

/// One measured size of the sweep.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Cluster size.
    pub hosts: usize,
    /// Tracked decisions taken (`gs.decision_ns` samples).
    pub decisions: u64,
    /// Mean simulated decision latency, nanoseconds.
    pub decision_ns_mean: f64,
    /// Whether the second identical run *and* the capped-carrier-pool run
    /// both produced byte-identical decision logs and metrics JSON.
    pub replay_identical: bool,
}

/// Run the sweep: every [`SIZES`] entry three times (twice identical,
/// once with the carrier pool capped) and collect one [`ScaleCell`] per
/// size from the first run.
pub fn measure_sched_scale() -> Vec<ScaleCell> {
    SIZES
        .iter()
        .map(|&hosts| {
            let a = scale_run(hosts, ROUNDS, None);
            let b = scale_run(hosts, ROUNDS, None);
            let c = scale_run(hosts, ROUNDS, Some(2));
            let replay_identical = a.decisions_json == b.decisions_json
                && a.metrics_json == b.metrics_json
                && a.decisions_json == c.decisions_json
                && a.metrics_json == c.metrics_json;
            ScaleCell {
                hosts,
                decisions: a.decisions,
                decision_ns_mean: a.decision_ns_mean,
                replay_identical,
            }
        })
        .collect()
}
