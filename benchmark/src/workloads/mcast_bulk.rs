//! `mcast_bulk` — one root broadcasting a multi-megabyte double section to
//! seven receivers and gathering their acks, round after round.
//!
//! The same pvm message plane as `ulp_pingpong`, used by bytes instead of
//! by message count: the host time is what the library does with the
//! payload (the pack copy, shared bodies, zero-copy unpack), and a handful
//! of kernel events per round.

use super::{layer_counts, size_obj, Digest, Params, Replay, SimOut};
use crate::json::Json;
use crate::spans::span;
use opt_app::data::SplitMix64;
use pvm_rt::{Groups, MsgBuf, Pvm, TaskApi};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use worknet::{Calib, Cluster, HostId};

const TAG_DATA: i32 = 7;
const TAG_ACK: i32 = 8;
const RECEIVERS: usize = 7;
const GROUP: &str = "mc";

/// `(rounds, doubles in the section)`.
fn shape(quick: bool) -> (usize, usize) {
    if quick {
        (32, 500_000)
    } else {
        (700, 4_000_000)
    }
}

pub fn sizes(quick: bool) -> Json {
    let (rounds, n) = shape(quick);
    size_obj(&[
        ("rounds", rounds as f64),
        ("section_doubles", n as f64),
        ("receivers", RECEIVERS as f64),
    ])
}

/// The first element of each round's payload, seeded. Root and receivers
/// each walk their own copy of this sequence, so a receiver knows what it
/// must see.
fn first_elements(seed: u64) -> SplitMix64 {
    SplitMix64(seed ^ 0x3ca5_7b01)
}

pub fn run(p: &Params) -> Replay {
    let (rounds, n) = shape(p.quick);
    let t_setup = Instant::now();
    let mut b = Cluster::builder(Calib::hp720_ethernet()).with_hosts(1 + RECEIVERS);
    if p.traced {
        b = b.with_metrics();
    }
    let cluster = Arc::new(b.build());
    let pvm = Pvm::new(Arc::clone(&cluster));
    let groups = Groups::new();
    let bad = Arc::new(AtomicU64::new(0));
    for i in 1..=RECEIVERS {
        let (bad, seed) = (Arc::clone(&bad), p.seed);
        let tid = pvm.spawn(HostId(i), format!("recv{i}"), move |task| {
            let mut expect = first_elements(seed);
            for _ in 0..rounds {
                let m = span("pvm.recv", || task.recv(None, Some(TAG_DATA)));
                let v = span("pvm.unpack", || m.reader().upk_double().expect("payload"));
                if v.len() != n || v[0] != expect.next_f64() {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
                let ack = span("pvm.pack", || MsgBuf::new().pk_double(&[v[0]]));
                span("pvm.send", || task.send(m.src, TAG_ACK, ack));
            }
        });
        groups.join(GROUP, tid);
    }
    let mut rng = SplitMix64(p.seed);
    let mut payload: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let (g, bad_acks, seed) = (Arc::clone(&groups), Arc::clone(&bad), p.seed);
    let ack_hash = Arc::new(AtomicU64::new(0));
    let hash = Arc::clone(&ack_hash);
    let root = pvm.spawn(HostId(0), "root", move |task| {
        let mut plan = first_elements(seed);
        let mut d = Digest::new();
        for _ in 0..rounds {
            let first = plan.next_f64();
            payload[0] = first;
            let buf = span("pvm.pack", || MsgBuf::new().pk_double(&payload));
            span("pvm.bcast", || g.bcast(task.as_ref(), GROUP, TAG_DATA, buf));
            let acks = span("pvm.gather", || g.gather(task.as_ref(), GROUP, TAG_ACK));
            if acks.len() != RECEIVERS {
                bad_acks.fetch_add(1, Ordering::Relaxed);
            }
            for a in &acks {
                let v = a.reader().upk_double().expect("ack");
                if v[0] != first {
                    bad_acks.fetch_add(1, Ordering::Relaxed);
                }
                d.f64(v[0]);
            }
        }
        hash.store(d.finish(), Ordering::SeqCst);
    });
    groups.join(GROUP, root);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let end = span("simcore.run", || cluster.sim.run()).expect("mcast_bulk failed");
    let bad = bad.load(Ordering::SeqCst);
    let mut failures = Vec::new();
    if bad > 0 {
        failures.push(format!(
            "{bad} payloads or acks with the wrong length, first element or count"
        ));
    }
    let mut digest = Digest::new();
    digest
        .u64(end.as_nanos())
        .u64(ack_hash.load(Ordering::SeqCst));
    let mut counts = BTreeMap::new();
    counts.insert("simcore.events", cluster.sim.events_processed() as f64);
    if p.traced {
        layer_counts(&cluster, end, &mut counts);
    }
    let wall_s = t_run.elapsed().as_secs_f64();

    Replay {
        setup_s,
        wall_s,
        work_units: (rounds * RECEIVERS) as u64,
        checks: 0,
        failures,
        sim: SimOut {
            makespan_s: end.as_secs_f64(),
            migrate_s: None,
            freeze_s: None,
            paper_err_pct: None,
            digest: digest.finish(),
        },
        counts,
    }
}
