//! `cluster_day` — a generated cluster day replayed over 8 segments ×
//! 128 hosts on a 2-shard kernel.
//!
//! Reuses the table harness's replay driver (`bench_tables::cluster_day`,
//! the one dependency that is not a layer) rather than copying its 780
//! lines, touching only seed, arrivals and shard count. The driver
//! generates the trace, partitions it and builds clusters, schedulers and
//! replay actors before it starts its own clock around `ShardedSim::run`;
//! that clock is this workload's window, and everything else the call
//! costs — dominated by the workload generator — is set-up.

use super::{size_obj, Digest, Params, Replay, SimOut};
use crate::json::Json;
use crate::spans::span;
use bench_tables::cluster_day::{
    cd_shard_of, cluster_day_run, CdConfig, CD_HOSTS_PER_SEGMENT, EPOCHS,
};
use std::collections::BTreeMap;
use std::time::Instant;

const SHARDS: usize = 2;

fn arrivals(quick: bool) -> usize {
    if quick {
        40_000
    } else {
        2_000_000
    }
}

fn cfg_for(p: &Params) -> CdConfig {
    let mut cfg = CdConfig::sized(false, CD_HOSTS_PER_SEGMENT);
    cfg.seed = p.seed;
    cfg.arrivals = arrivals(p.quick);
    cfg.shards = SHARDS;
    cfg
}

pub fn sizes(quick: bool) -> Json {
    let cfg = cfg_for(&Params {
        seed: 0,
        quick,
        traced: false,
    });
    size_obj(&[
        ("arrivals", cfg.arrivals as f64),
        ("trace_rows", 2.0 * cfg.arrivals as f64),
        ("segments", cfg.segments as f64),
        ("hosts_per_segment", cfg.hosts_per_segment as f64),
        ("shards", cfg.shards as f64),
    ])
}

pub fn run(p: &Params) -> Replay {
    let cfg = cfg_for(p);
    let t_call = Instant::now();
    // The scenario needs simulator metrics on in every replay (its
    // bookkeeping target records through them), traced or not.
    let r = span("bench.cluster_day_run", || cluster_day_run(&cfg));
    let call_s = t_call.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let metrics = Json::parse(&r.metrics_json).expect("cluster_day metrics JSON");
    let counters = metrics
        .get("counters")
        .and_then(Json::as_obj)
        .unwrap_or(&[]);
    let gauges = metrics.get("gauges").and_then(Json::as_obj).unwrap_or(&[]);
    let sum = |set: &[(String, Json)], pre: &str, post: &str| -> f64 {
        set.iter()
            .filter(|(k, _)| k.starts_with(pre) && k.ends_with(post))
            .filter_map(|(_, v)| v.as_f64())
            .sum()
    };
    let arrived = sum(counters, "workload.seg", ".arrivals");
    let departed = sum(counters, "workload.seg", ".departs");
    let resident = sum(gauges, "workload.c", ".resident");
    if arrived != cfg.arrivals as f64 || arrived != departed + resident {
        failures.push(format!(
            "{arrived} arrivals, {departed} departures, {resident} residents for {} generated",
            cfg.arrivals
        ));
    }
    if r.pulses != (cfg.segments * EPOCHS) as u64 {
        failures.push(format!("{} epoch pulses delivered", r.pulses));
    }

    // Virtual end time, every GS decision log and the whole metrics
    // report (counters, gauges, histograms) — not the kernel event count.
    let mut digest = Digest::new();
    digest.f64(r.sim_secs).str(&r.metrics_json);
    for seg in &r.decisions {
        for line in seg {
            digest.str(line);
        }
    }
    let decisions: usize = r.decisions.iter().map(Vec::len).sum();
    let hist_count = |name: &str| {
        metrics
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0)
    };
    let mut counts = BTreeMap::new();
    counts.insert("simcore.events", r.kernel_events as f64);
    // The driver reports only per-shard registries, not the controller's
    // `sim.shard.handoffs`; every epoch pulse over a ring edge whose ends
    // live on different shards is one cross-shard envelope.
    let shard = |seg: usize| cd_shard_of(seg % cfg.segments, cfg.segments, cfg.shards);
    let crossing = (0..cfg.segments)
        .filter(|&s| shard(s) != shard(s + 1))
        .count();
    counts.insert("simcore.shard_handoffs", (crossing * EPOCHS) as f64);
    counts.insert("workload.trace_rows", r.trace_events as f64);
    counts.insert("cpe.decisions", decisions as f64);
    counts.insert("cpe.decide_calls", hist_count("gs.decision_ns"));
    counts.insert("cpe.redecisions", counter("gs.redecisions"));
    counts.insert("cpe.migrations", r.migrations as f64);

    Replay {
        setup_s: (call_s - r.wall_secs).max(0.0),
        wall_s: r.wall_secs,
        work_units: r.trace_events,
        // Arrival conservation, pulse ring.
        checks: 2,
        failures,
        sim: SimOut {
            makespan_s: r.sim_secs,
            migrate_s: None,
            freeze_s: None,
            paper_err_pct: None,
            digest: digest.finish(),
        },
        counts,
    }
}
