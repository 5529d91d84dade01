//! `migrate_storm` — evacuation waves of MPVM workers.
//!
//! A benchmark-owned scenario: workers that only burn short compute
//! slices, and a scripted GS actor that orders every worker to the other
//! half of the cluster, wave after wave, through the chunked pre-copy
//! engine. Every twentieth wave a seeded link fault severs one stream
//! mid-transfer, which must resume from its last acked chunk. No Opt
//! arithmetic, no ULPs, no ADM, no scheduling policy.

use super::{actor_intervals, layer_counts, mean, size_obj, Digest, Params, Replay, SimOut};
use crate::json::Json;
use crate::spans::span;
use mpvm::Mpvm;
use opt_app::data::SplitMix64;
use pvm_rt::{Pvm, TaskApi};
use simcore::SimDuration;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use worknet::{Calib, Cluster, Fault, FaultSchedule, HostId};

const WORKERS: usize = 16;
const STATE_BYTES: usize = 2_000_000;
/// One severed stream per this many waves.
const SEVER_EVERY: usize = 20;
/// Virtual seconds between wave starts: the ~37 s a quiet wave needs to
/// push 16 × 2 MB (plus pre-copy re-sends) through the shared segment,
/// with slack for a severed stream's resume handshake.
const WAVE_PERIOD_S: u64 = 60;
/// One compute slice: 0.5 s of a quiet HP720.
const SLICE_FLOPS: f64 = 22.5e6;

/// Where wave `wave` sends worker `worker`: even waves evacuate the first
/// half of the cluster onto the second, odd waves bring everyone back.
fn destination(wave: usize, worker: usize) -> HostId {
    HostId(if wave.is_multiple_of(2) {
        WORKERS + worker
    } else {
        worker
    })
}

fn waves(quick: bool) -> usize {
    if quick {
        4
    } else {
        80
    }
}

pub fn sizes(quick: bool) -> Json {
    size_obj(&[
        ("workers", WORKERS as f64),
        ("hosts", (2 * WORKERS) as f64),
        ("state_bytes", STATE_BYTES as f64),
        ("waves", waves(quick) as f64),
        ("sever_every_waves", SEVER_EVERY as f64),
        ("wave_period_sim_s", WAVE_PERIOD_S as f64),
    ])
}

/// One `SeverTcp` per [`SEVER_EVERY`] waves (at least one): a seeded wave
/// of the group, a seeded destination of that wave, a seeded instant inside
/// the part of the wave where every stream is still in flight.
fn fault_schedule(seed: u64, waves: usize) -> FaultSchedule {
    let mut rng = SplitMix64(seed ^ 0x5707_0a57);
    let mut sched = FaultSchedule::new();
    for group in 0..waves.div_ceil(SEVER_EVERY) {
        let first = group * SEVER_EVERY;
        let wave = first + rng.below(SEVER_EVERY.min(waves - first));
        let host = destination(wave, rng.below(WORKERS));
        let at = wave as f64 * WAVE_PERIOD_S as f64 + 1.0 + 5.0 + rng.next_f64() * 20.0;
        sched = sched.at(SimDuration::from_secs_f64(at), Fault::SeverTcp { host });
    }
    sched
}

pub fn run(p: &Params) -> Replay {
    let waves = waves(p.quick);
    let t_setup = Instant::now();
    let mut b = Cluster::builder(Calib::hp720_ethernet())
        .with_hosts(2 * WORKERS)
        .with_faults(fault_schedule(p.seed, waves));
    if p.traced {
        b = b.with_metrics();
    }
    let cluster = Arc::new(b.build());
    let mpvm = Mpvm::new(Pvm::new(Arc::clone(&cluster)));
    let stop = Arc::new(AtomicBool::new(false));
    for i in 0..WORKERS {
        let stop = Arc::clone(&stop);
        mpvm.spawn_app(HostId(i), format!("storm{i}"), move |t| {
            t.set_state_bytes(STATE_BYTES);
            while !stop.load(Ordering::SeqCst) {
                span("worknet.compute", || t.compute(SLICE_FLOPS));
            }
        });
    }
    mpvm.seal();
    let gs_sys = Arc::clone(&mpvm);
    cluster.sim.spawn("storm-gs", move |ctx| {
        ctx.advance(SimDuration::from_secs(1));
        for wave in 0..waves {
            // Tids change with every migration: look them up per wave.
            for (i, tid) in gs_sys.app_tids().into_iter().enumerate() {
                span("mpvm.inject_migration", || {
                    gs_sys.inject_migration(&ctx, tid, destination(wave, i))
                });
            }
            ctx.advance(SimDuration::from_secs(WAVE_PERIOD_S));
        }
        stop.store(true, Ordering::SeqCst);
    });
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let end = span("simcore.run", || cluster.sim.run()).expect("migrate_storm failed");
    let trace = cluster.sim.take_trace();
    let injected = (waves * WORKERS) as u64;
    let mut failures = Vec::new();

    // Migration cost: task-side protocol start → resumed. Freeze: the VP
    // stops after its last pre-copy round (the instant `mpvm.freeze_ns`
    // starts from) and runs again at resumed.
    let (done, open) = actor_intervals(&trace, "mpvm.event", "mpvm.precopy.round", "mpvm.resumed");
    if done.len() as u64 != injected || open != 0 {
        failures.push(format!(
            "{} of {injected} injected migrations completed, {open} left open",
            done.len()
        ));
    }
    let migrate_s = mean(done.iter().map(|&(t0, _, t1)| t1.since(t0).as_secs_f64()));
    let freeze_s = mean(
        done.iter()
            .map(|&(t0, frozen, t1)| t1.since(frozen.unwrap_or(t0)).as_secs_f64()),
    );
    let severed = trace
        .iter()
        .filter(|e| e.tag == "mpvm.transfer.severed")
        .count();
    let resumed = trace
        .iter()
        .filter(|e| e.tag == "mpvm.transfer.resumed")
        .count();
    if severed == 0 || severed != resumed {
        failures.push(format!(
            "{severed} streams severed, {resumed} resumed (want equal and at least one)"
        ));
    }
    // Every VP on exactly one host, and the right one.
    let pvm = mpvm.pvm();
    let resident: usize = (0..2 * WORKERS).map(|h| mpvm.apps_on(HostId(h))).sum();
    if resident != WORKERS {
        failures.push(format!("{resident} VP residencies for {WORKERS} VPs"));
    }
    let mut digest = Digest::new();
    digest.u64(end.as_nanos()).u64(done.len() as u64);
    for (i, tid) in mpvm.app_tids().into_iter().enumerate() {
        let want = destination(waves - 1, i);
        let at = pvm.host_of(tid);
        if at != Some(want) {
            failures.push(format!("worker {i} ended on {at:?}, not {want}"));
        }
        digest.u64(u64::from(tid.raw()));
    }
    for &(t0, frozen, t1) in &done {
        digest
            .u64(t0.as_nanos())
            .u64(frozen.map_or(0, |t| t.as_nanos()))
            .u64(t1.as_nanos());
    }

    let mut counts = BTreeMap::new();
    counts.insert("simcore.events", cluster.sim.events_processed() as f64);
    counts.insert("mpvm.migrations", done.len() as f64);
    if p.traced {
        let report = layer_counts(&cluster, end, &mut counts);
        // The simulator's own freeze histogram must agree with what the
        // protocol trace shows.
        let hist = report.histograms.get("mpvm.freeze_ns");
        let hist_mean_s = hist.map_or(0.0, |h| h.mean_ns() / 1e9);
        if (hist_mean_s - freeze_s).abs() > 1e-9 {
            failures.push(format!(
                "mpvm.freeze_ns mean {hist_mean_s} s disagrees with the trace's {freeze_s} s"
            ));
        }
    }
    let wall_s = t_run.elapsed().as_secs_f64();

    Replay {
        setup_s,
        wall_s,
        work_units: injected,
        // Completion, sever/resume pairing, residency, final placement.
        checks: 3 + WORKERS as u64,
        failures,
        sim: SimOut {
            makespan_s: end.as_secs_f64(),
            migrate_s: Some(migrate_s),
            freeze_s: Some(freeze_s),
            paper_err_pct: None,
            digest: digest.finish(),
        },
        counts,
    }
}
