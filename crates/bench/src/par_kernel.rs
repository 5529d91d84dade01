//! par_kernel — the sharded conservative-parallel kernel under load.
//!
//! The tentpole scenario is an 8-segment worknet storm, `par_storm`: eight
//! single-segment clusters (4 hosts each), every one running a
//! load-threshold evacuation storm with its own per-segment global
//! scheduler, plus one gossip daemon per segment exchanging reports with
//! both ring neighbours over [`simcore::ShardLink`]s (250 ms WAN latency —
//! the lookahead bound). The whole thing runs at 1, 2, 4 and 8 shards with
//! segments mapped to shards in contiguous blocks.
//!
//! The observables it returns — per-segment decision logs, merged metrics
//! JSON, events, ring handoffs, gossip deliveries, virtual end time — must
//! be byte-identical across replays and invariant across shard counts:
//! partitioning is a wall-clock-only knob. [`gossip_two_seg`] is the small
//! single-cluster companion for the 1-shard ≡ sequential-kernel gate. Both
//! are asserted by the root package's `tests/gates.rs`.

use cpe::MpvmTarget;
use mpvm::Mpvm;
use pvm_rt::{Pvm, TaskApi};
use simcore::{Mailbox, MetricsReport, ShardedSim, SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use worknet::{Calib, Cluster, HostId, HostSpec, LinkCalib, LoadTrace, SegmentId};

/// Segments in the parallel storm (one single-segment cluster each).
pub const PAR_SEGMENTS: usize = 8;

/// Hosts per segment.
pub const PAR_HOSTS_PER_SEGMENT: usize = 4;

/// Gossip period and ring-link latency: the lookahead bound of every
/// cross-shard edge, so a shard may run a full gossip period ahead of its
/// neighbours between synchronizations.
pub const GOSSIP_PERIOD: SimDuration = SimDuration::from_millis(250);

/// Which shard a segment lives on: contiguous blocks of
/// `PAR_SEGMENTS / shards` segments.
pub fn shard_of(segment: usize, shards: usize) -> usize {
    segment * shards / PAR_SEGMENTS
}

/// Gossip rounds per daemon.
pub const GOSSIP_ROUNDS: u64 = 24;

/// The observables of one `par_storm` run.
pub struct ParRun {
    /// Per-segment GS decision logs as deterministic JSON lines.
    pub decisions: Vec<Vec<String>>,
    /// Merged deterministic metrics JSON: per-shard reports merged in
    /// shard-index order, then the shard-observability registry.
    pub metrics_json: String,
    /// Total simulator heap entries processed, summed over shards.
    pub events: u64,
    /// `sim.shard.handoffs` — envelopes sent over ring links.
    pub handoffs: u64,
    /// Gossip reports delivered across all daemons (must be
    /// `2 × rounds × PAR_SEGMENTS`).
    pub gossip_msgs: u64,
    /// Virtual seconds covered (max across shards).
    pub sim_secs: f64,
}

/// Run the 8-segment storm at the given shard count. Each segment is an
/// independent cluster (its own hosts, MPVM system, and named per-segment
/// GS) pinned to `shard_of(segment, shards)`; segments interact only via
/// the gossip ring's [`simcore::ShardLink`]s, so every virtual-time
/// observable is a pure function of the scenario, not of the partitioning.
pub fn par_storm(shards: usize) -> ParRun {
    assert!(
        shards >= 1 && PAR_SEGMENTS.is_multiple_of(shards),
        "shard count must divide {PAR_SEGMENTS}"
    );
    // 8 workers on 2 hosts × 300 slices of 0.1 s ≈ 120 virtual seconds:
    // long enough to outlast the hot host's load plateau (ends at 80 s).
    let (nworkers, slices) = (8, 300);
    let rounds = GOSSIP_ROUNDS;
    let t = |s: u64| SimTime(s * 1_000_000_000);

    let ss = ShardedSim::new(shards);

    let mut schedulers = Vec::new();
    for seg in 0..PAR_SEGMENTS {
        let mut b =
            Cluster::builder(Calib::hp720_ethernet()).on_sim(ss.sim(shard_of(seg, shards)).clone());
        for h in 0..PAR_HOSTS_PER_SEGMENT {
            let mut spec = HostSpec::hp720(format!("p{seg}h{h}"));
            if h == 1 {
                // The hot host: a stepped external-load plateau above the
                // 1.5 threshold, so the per-segment GS keeps evacuating.
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
        for i in 0..nworkers {
            mpvm.spawn_app(HostId(i % 2), format!("p{seg}w{i}"), move |task| {
                task.set_state_bytes(300_000);
                for _ in 0..slices {
                    task.compute(4.5e6);
                }
            });
        }
        mpvm.seal();
        let gs = cpe::Gs::builder(&cluster)
            .target(Arc::new(MpvmTarget(Arc::clone(&mpvm))))
            .policy(cpe::load_threshold(1.5))
            .name(format!("gs-seg{seg}"))
            .spawn();
        schedulers.push(gs);
    }

    // The gossip ring: one daemon per segment, one link per direction per
    // adjacency. Messages land in the neighbour's mailbox `GOSSIP_PERIOD`
    // after the send; each daemon expects exactly 2 × rounds deliveries.
    let gossip_msgs = Arc::new(AtomicU64::new(0));
    let mailboxes: Vec<Mailbox<(u32, u32)>> = (0..PAR_SEGMENTS).map(|_| Mailbox::new()).collect();
    for seg in 0..PAR_SEGMENTS {
        let right = (seg + 1) % PAR_SEGMENTS;
        let left = (seg + PAR_SEGMENTS - 1) % PAR_SEGMENTS;
        let here = shard_of(seg, shards);
        let to_right = ss.link(here, shard_of(right, shards), GOSSIP_PERIOD);
        let to_left = ss.link(here, shard_of(left, shards), GOSSIP_PERIOD);
        let mb = mailboxes[seg].clone();
        let mb_right = mailboxes[right].clone();
        let mb_left = mailboxes[left].clone();
        let delivered = Arc::clone(&gossip_msgs);
        ss.sim(here).spawn(format!("gossipd{seg}"), move |ctx| {
            let mut got = 0u64;
            for round in 0..rounds {
                ctx.advance(GOSSIP_PERIOD);
                let report = (seg as u32, round as u32);
                let m = mb_right.clone();
                to_right.send(ctx.now(), move |w| m.send_from_world(w, report));
                let m = mb_left.clone();
                to_left.send(ctx.now(), move |w| m.send_from_world(w, report));
                while mb.try_recv().is_some() {
                    got += 1;
                }
            }
            // The last rounds' reports are still in flight; block for them.
            while got < 2 * rounds {
                mb.recv(&ctx).expect("gossip ring closed early");
                got += 1;
            }
            delivered.fetch_add(got, Ordering::Relaxed);
        });
    }

    let end = ss.run().expect("par_storm failed");

    let mut merged: Option<MetricsReport> = None;
    for i in 0..shards {
        let r = ss.sim(i).metrics().report();
        match merged.as_mut() {
            Some(m) => m.merge(&r),
            None => merged = Some(r),
        }
    }
    let mut merged = merged.expect("at least one shard");
    merged.merge(&ss.metrics().report());
    ParRun {
        decisions: schedulers
            .iter()
            .map(|gs| gs.decisions().iter().map(|d| d.to_json()).collect())
            .collect(),
        metrics_json: merged.to_json(),
        events: ss.events_processed(),
        handoffs: merged
            .counters
            .get("sim.shard.handoffs")
            .copied()
            .unwrap_or(0),
        gossip_msgs: gossip_msgs.load(Ordering::Relaxed),
        sim_secs: end.as_secs_f64(),
    }
}

/// Two-segment decentralized-gossip run (the `gossip_replay` acceptance
/// scenario), optionally through a 1-shard kernel. Returns (metrics JSON,
/// decision log, virtual end secs).
pub fn gossip_two_seg(one_shard: bool) -> (String, Vec<String>, f64) {
    let t = |s: u64| SimTime(s * 1_000_000_000);
    let sharded = one_shard.then(|| ShardedSim::new(1));
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.segment(
        "near",
        vec![
            HostSpec::hp720("h0").with_owner(worknet::OwnerTrace::events(vec![
                (t(6), true),
                (t(12), false),
            ])),
            HostSpec::hp720("h1").with_load(LoadTrace::steps(vec![(t(3), 2.5), (t(14), 0.0)])),
        ],
    );
    b.segment("far", vec![HostSpec::hp720("h2"), HostSpec::hp720("h3")]);
    b.link(SegmentId(0), SegmentId(1), LinkCalib::bridged_ether());
    let b = match &sharded {
        Some(ss) => b.on_sim(ss.sim(0).clone()),
        None => b,
    };
    let cluster = Arc::new(b.with_metrics().build());
    let mpvm = Mpvm::new(Pvm::new(Arc::clone(&cluster)));
    for i in 0..5 {
        mpvm.spawn_app(HostId(i % 2), format!("w{i}"), |task| {
            task.set_state_bytes(300_000);
            for _ in 0..100 {
                task.compute(4.5e6);
            }
        });
    }
    mpvm.seal();
    let gs = cpe::Gs::builder(&cluster)
        .target(Arc::new(MpvmTarget(Arc::clone(&mpvm))))
        .policy(cpe::decentralized_gossip(SimDuration::from_secs(1)))
        .spawn();
    let end = match &sharded {
        Some(ss) => ss.run().expect("two-segment gossip (sharded) failed"),
        None => cluster.sim.run().expect("two-segment gossip failed"),
    };
    let report = cluster.metrics_report(end.since(SimTime::ZERO));
    let decisions = gs.decisions().iter().map(|d| d.to_json()).collect();
    (report.to_json(), decisions, end.as_secs_f64())
}
