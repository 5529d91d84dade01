//! `ulp_pingpong` — two ULPs in one UPVM container exchanging 64-int
//! messages over the local buffer hand-off.
//!
//! Per-message library overhead at its purest: every round trip is two
//! actor handoffs through the kernel, two `ProcSched` occupancy changes
//! and two pack/unpack pairs; nothing touches the network model.

use super::{layer_counts, size_obj, Digest, Params, Replay, SimOut};
use crate::json::Json;
use crate::spans::span;
use opt_app::data::SplitMix64;
use pvm_rt::{MsgBuf, Pvm, TaskApi};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use upvm::Upvm;
use worknet::{Calib, Cluster, HostId};

const TAG_PING: i32 = 7;
const TAG_PONG: i32 = 8;
const INTS: usize = 64;

fn rounds(quick: bool) -> usize {
    if quick {
        4_000
    } else {
        200_000
    }
}

pub fn sizes(quick: bool) -> Json {
    size_obj(&[
        ("round_trips", rounds(quick) as f64),
        ("ints_per_message", INTS as f64),
    ])
}

pub fn run(p: &Params) -> Replay {
    let rounds = rounds(p.quick);
    let t_setup = Instant::now();
    let mut b = Cluster::builder(Calib::hp720_ethernet()).with_hosts(1);
    if p.traced {
        b = b.with_metrics();
    }
    let cluster = Arc::new(b.build());
    let sys = Upvm::new(Pvm::new(Arc::clone(&cluster)));
    let bad_echoes = Arc::new(AtomicU64::new(0));
    let echo_hash = Arc::new(AtomicU64::new(0));
    let pong = sys
        .spawn_ulp(HostId(0), "pong", 1_000_000, move |u| {
            for _ in 0..rounds {
                let m = span("upvm.recv", || u.recv(None, Some(TAG_PING)));
                let v = span("pvm.unpack", || m.reader().upk_int().expect("ping payload"));
                let buf = span("pvm.pack", || MsgBuf::new().pk_int(&v));
                span("upvm.send", || u.send(m.src, TAG_PONG, buf));
            }
        })
        .expect("ULP address space");
    let (bad, hash, seed) = (Arc::clone(&bad_echoes), Arc::clone(&echo_hash), p.seed);
    sys.spawn_ulp(HostId(0), "ping", 1_000_000, move |u| {
        let mut rng = SplitMix64(seed ^ 0x0091_1190);
        let mut data: Vec<i32> = (0..INTS).map(|_| rng.next_u64() as i32).collect();
        let mut d = Digest::new();
        for r in 0..rounds {
            data[r % INTS] = data[r % INTS].wrapping_add(r as i32);
            let buf = span("pvm.pack", || MsgBuf::new().pk_int(&data));
            span("upvm.send", || u.send(pong, TAG_PING, buf));
            let m = span("upvm.recv", || u.recv(Some(pong), Some(TAG_PONG)));
            let echo = span("pvm.unpack", || m.reader().upk_int().expect("pong payload"));
            if echo[..] != data[..] {
                bad.fetch_add(1, Ordering::Relaxed);
            }
            d.u64(echo[r % INTS] as u64);
        }
        hash.store(d.finish(), Ordering::SeqCst);
    })
    .expect("ULP address space");
    sys.seal();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let end = span("simcore.run", || cluster.sim.run()).expect("ulp_pingpong failed");
    let bad = bad_echoes.load(Ordering::SeqCst);
    let mut failures = Vec::new();
    if bad > 0 {
        failures.push(format!("{bad} echo payloads differ from what was sent"));
    }
    let mut digest = Digest::new();
    digest
        .u64(end.as_nanos())
        .u64(echo_hash.load(Ordering::SeqCst));

    let msgs = 2.0 * rounds as f64;
    let msg_bytes = MsgBuf::new().pk_int(&[0; INTS]).encoded_size() as f64;
    let mut counts = BTreeMap::new();
    if p.traced {
        layer_counts(&cluster, end, &mut counts);
    }
    counts.insert("simcore.events", cluster.sim.events_processed() as f64);
    // The in-container hand-off bypasses the pvm routing layer (and its
    // `pvm.msgs.sent` counter), so the benchmark's own ULP bodies count
    // what they handed over.
    counts.insert("upvm.local_handoffs", msgs);
    counts.insert("pvm.msgs_sent", msgs);
    counts.insert("pvm.bytes_sent", msgs * msg_bytes);
    let wall_s = t_run.elapsed().as_secs_f64();

    Replay {
        setup_s,
        wall_s,
        work_units: rounds as u64,
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
