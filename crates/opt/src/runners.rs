//! Experiment runners: build a calibrated cluster, wire Opt onto one of the
//! systems, run the simulation, and report virtual-time statistics.

use crate::config::OptConfig;
use crate::data::TrainingSet;
use crate::ms;
use crate::seq::TrainResult;
use mpvm::Mpvm;
use parking_lot::Mutex;
use pvm_rt::{Pvm, Tid};
use simcore::{ShardedSim, SimDuration, TraceEvent};
use std::sync::mpsc;
use std::sync::Arc;
use upvm::Upvm;
use worknet::{Calib, Cluster, HostId};

/// Statistics from one run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Virtual wall-clock of the whole run, seconds.
    pub wall: f64,
    /// Simulator heap entries processed (handoffs + kernel events).
    pub events: u64,
    /// The training result (checksum + loss curve).
    pub result: TrainResult,
    /// Full protocol trace.
    pub trace: Vec<TraceEvent>,
}

/// One scheduled migration for the MPVM/UPVM runners.
#[derive(Debug, Clone, Copy)]
pub struct MigrationPlan {
    /// Virtual time (seconds) at which the GS issues the order.
    pub at_secs: f64,
    /// Which slave (by rank) to migrate.
    pub slave: usize,
    /// Destination host.
    pub dst: HostId,
}

fn build_cluster(calib: Calib, nhosts: usize) -> Arc<Cluster> {
    let mut b = Cluster::builder(calib);
    b.quiet_hp720s(nhosts);
    Arc::new(b.build())
}

fn slave_host(cfg: &OptConfig, i: usize) -> HostId {
    HostId(i % cfg.nhosts)
}

/// Run PVM_opt on plain PVM (the Table 1/5 baseline).
pub fn run_pvm_opt(calib: Calib, cfg: &OptConfig) -> RunStats {
    let cluster = build_cluster(calib, cfg.nhosts);
    let pvm = Pvm::new(Arc::clone(&cluster));
    let set = TrainingSet::synthetic(cfg.data_bytes, cfg.dim, cfg.ncats, cfg.seed);
    let parts = set.partitions(cfg.nslaves);

    let result = Arc::new(Mutex::new(None));
    let mut slaves = Vec::new();
    let mut master_txs = Vec::new();
    for (i, part) in parts.into_iter().enumerate() {
        let cfg2 = cfg.clone();
        let (tx, rx) = mpsc::channel::<Tid>();
        master_txs.push(tx);
        let tid = pvm.spawn(slave_host(cfg, i), format!("slave{i}"), move |task| {
            let master = rx.recv().unwrap();
            ms::slave(task.as_ref(), &cfg2, master, &part);
        });
        slaves.push(tid);
    }
    let cfg2 = cfg.clone();
    let res = Arc::clone(&result);
    let slaves2 = slaves.clone();
    let master = pvm.spawn(HostId(0), "master", move |task| {
        *res.lock() = Some(ms::master(task.as_ref(), &cfg2, &slaves2));
    });
    for tx in master_txs {
        tx.send(master).unwrap();
    }

    let end = cluster.sim.run().expect("pvm_opt simulation failed");
    RunStats {
        wall: end.as_secs_f64(),
        events: cluster.sim.events_processed(),
        result: {
            let r = result.lock().take();
            r.expect("master produced no result")
        },
        trace: cluster.sim.take_trace(),
    }
}

/// Run PVM_opt under MPVM, with optional scheduled migrations.
pub fn run_mpvm_opt(calib: Calib, cfg: &OptConfig, migrations: &[MigrationPlan]) -> RunStats {
    let cluster = build_cluster(calib, cfg.nhosts);
    let result = setup_mpvm_opt(&cluster, cfg, migrations);
    let end = cluster.sim.run().expect("mpvm_opt simulation failed");
    RunStats {
        wall: end.as_secs_f64(),
        events: cluster.sim.events_processed(),
        result: {
            let r = result.lock().take();
            r.expect("master produced no result")
        },
        trace: cluster.sim.take_trace(),
    }
}

/// Run PVM_opt under MPVM on shard 0 of an externally created sharded
/// kernel, driving the whole thing through [`ShardedSim::run`]. With one
/// shard this must reproduce [`run_mpvm_opt`] byte for byte — the bench
/// suite's figure-1 replay-identity gate is built on exactly this pairing.
pub fn run_mpvm_opt_sharded(
    shards: &ShardedSim,
    calib: Calib,
    cfg: &OptConfig,
    migrations: &[MigrationPlan],
) -> RunStats {
    let mut b = Cluster::builder(calib).on_sim(shards.sim(0).clone());
    b.quiet_hp720s(cfg.nhosts);
    let cluster = Arc::new(b.build());
    let result = setup_mpvm_opt(&cluster, cfg, migrations);
    let end = shards.run().expect("mpvm_opt sharded simulation failed");
    RunStats {
        wall: end.as_secs_f64(),
        events: cluster.sim.events_processed(),
        result: {
            let r = result.lock().take();
            r.expect("master produced no result")
        },
        trace: cluster.sim.take_trace(),
    }
}

/// Wire the PVM_opt-under-MPVM scenario onto an already-built cluster:
/// slaves, master, seal, and the scripted-GS actor. Shared by the
/// sequential and sharded runners so the two can't drift apart.
fn setup_mpvm_opt(
    cluster: &Arc<Cluster>,
    cfg: &OptConfig,
    migrations: &[MigrationPlan],
) -> Arc<Mutex<Option<TrainResult>>> {
    let mpvm = Mpvm::new(Pvm::new(Arc::clone(cluster)));
    let set = TrainingSet::synthetic(cfg.data_bytes, cfg.dim, cfg.ncats, cfg.seed);
    let parts = set.partitions(cfg.nslaves);

    let result = Arc::new(Mutex::new(None));
    let mut slaves = Vec::new();
    let mut master_txs = Vec::new();
    // Slaves first: app index i == slave rank i (the migration script keys
    // on this to find post-migration identities).
    for (i, part) in parts.into_iter().enumerate() {
        let cfg2 = cfg.clone();
        let (tx, rx) = mpsc::channel::<Tid>();
        master_txs.push(tx);
        let tid = mpvm.spawn_app(slave_host(cfg, i), format!("slave{i}"), move |task| {
            let master = rx.recv().unwrap();
            ms::slave(task, &cfg2, master, &part);
        });
        slaves.push(tid);
    }
    let cfg2 = cfg.clone();
    let res = Arc::clone(&result);
    let slaves2 = slaves.clone();
    let master = mpvm.spawn_app(HostId(0), "master", move |task| {
        *res.lock() = Some(ms::master(task, &cfg2, &slaves2));
    });
    for tx in master_txs {
        tx.send(master).unwrap();
    }
    mpvm.seal();

    if !migrations.is_empty() {
        let mut plan = migrations.to_vec();
        plan.sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).unwrap());
        let sys = Arc::clone(&mpvm);
        cluster.sim.spawn("gs-script", move |ctx| {
            for m in plan {
                let until = SimDuration::from_secs_f64(m.at_secs)
                    .saturating_sub(ctx.now().since(simcore::SimTime::ZERO));
                ctx.advance(until);
                // Look the slave up by app index: migrations change tids.
                let cur = sys.app_tids()[m.slave];
                sys.inject_migration(&ctx, cur, m.dst);
            }
        });
    }

    result
}

/// Run SPMD_opt under UPVM: one master ULP + `nslaves` slave ULPs,
/// round-robin over the hosts (so host0 carries master + a slave, as in
/// §4.0/§4.2), with optional scheduled ULP migrations.
pub fn run_upvm_opt(calib: Calib, cfg: &OptConfig, migrations: &[MigrationPlan]) -> RunStats {
    let cluster = build_cluster(calib, cfg.nhosts);
    let sys = Upvm::new(Pvm::new(Arc::clone(&cluster)));
    let set = TrainingSet::synthetic(cfg.data_bytes, cfg.dim, cfg.ncats, cfg.seed);
    let parts = Arc::new(set.partitions(cfg.nslaves));

    let result = Arc::new(Mutex::new(None));
    let tids: Arc<Mutex<Vec<Tid>>> = Arc::new(Mutex::new(Vec::new()));
    let cfg2 = cfg.clone();
    let res = Arc::clone(&result);
    let tids2 = Arc::clone(&tids);
    // Region: the slave partition plus net + stack slack.
    let region = (cfg.data_bytes / cfg.nslaves + 4 * 1024 * 1024) as u64;
    let body = Arc::new(move |ulp: &upvm::Ulp, rank: usize, _n: usize| {
        let all = tids2.lock().clone();
        if rank == 0 {
            let slaves = &all[1..];
            *res.lock() = Some(ms::master(ulp, &cfg2, slaves));
        } else {
            ms::slave(ulp, &cfg2, all[0], &parts[rank - 1]);
        }
    });
    let spawned = sys
        .spawn_spmd(cfg.nslaves + 1, region, body)
        .expect("ULP address space exhausted");
    *tids.lock() = spawned.clone();
    sys.seal();

    if !migrations.is_empty() {
        let mut plan = migrations.to_vec();
        plan.sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).unwrap());
        let s2 = Arc::clone(&sys);
        cluster.sim.spawn("gs-script", move |ctx| {
            for m in plan {
                let until = SimDuration::from_secs_f64(m.at_secs)
                    .saturating_sub(ctx.now().since(simcore::SimTime::ZERO));
                ctx.advance(until);
                // ULP tids are stable: rank r slave is spawned[r + 1].
                s2.inject_migration(&ctx, spawned[m.slave + 1], m.dst);
            }
        });
    }

    let end = cluster.sim.run().expect("upvm_opt simulation failed");
    RunStats {
        wall: end.as_secs_f64(),
        events: cluster.sim.events_processed(),
        result: {
            let r = result.lock().take();
            r.expect("master produced no result")
        },
        trace: cluster.sim.take_trace(),
    }
}
