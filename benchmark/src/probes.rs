//! Per-layer probes: timed loops over each layer's public functions, at
//! the sizes the workloads use them at.
//!
//! Needed because half the actor bodies the workloads run belong to
//! `opt_app` and cannot be instrumented from here; a probe isolates one
//! layer's cost per operation so a change to that layer shows up under its
//! own name. Every probe is host time, runs [`REPEATS`] times and reports
//! the median.

use crate::stats::median;
use crate::workloads::{Params, Workload};
use cpe::{Load, LoadFeed, LoadIndex, MigrationTarget, MonitorEvent};
use mpvm::MigShared;
use opt_app::data::TrainingSet;
use opt_app::net::{CgState, Gradient, Net};
use opt_app::OptConfig;
use pvm_rt::{Message, MigrationOutcome, MsgBuf, Pvm, RouteMode, TaskApi, Tid};
use simcore::{Mailbox, Metrics, Sim, SimCtx, SimDuration};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use upvm::{AddrSpace, ProcSched, UlpId};
use worknet::{Calib, Cluster, HostId, LinkCalib, TcpConn, Topology};

const REPEATS: usize = 3;

/// Median over [`REPEATS`] runs of `f`, which returns one measurement.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPEATS).map(|_| f()).collect::<Vec<_>>())
}

/// Host nanoseconds per operation of a plain loop.
fn ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    med(|| {
        let t = Instant::now();
        for i in 0..ops {
            op(i);
        }
        t.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// Host nanoseconds one `run()` of a freshly populated simulation takes.
fn run_ns(sim: &Sim) -> f64 {
    sim.set_trace_enabled(false);
    let t = Instant::now();
    sim.run().expect("probe simulation failed");
    t.elapsed().as_nanos() as f64
}

type Ledger = BTreeMap<&'static str, f64>;

/// Run every probe. `quick` shrinks the loop counts, not the shapes.
pub fn run_all(w: &Workload, p: &Params) -> Ledger {
    let scale = if p.quick { 10 } else { 1 };
    let mut out = Ledger::new();
    simcore_probes(&mut out, scale);
    worknet_probes(&mut out, scale);
    pvm_probes(&mut out, scale);
    mpvm_probes(&mut out, scale);
    upvm_probes(&mut out, scale);
    adm_probes(&mut out, scale);
    cpe_probes(&mut out, scale);
    opt_probes(&mut out, w, p);
    workload_probes(&mut out, p.seed, scale);
    out
}

fn simcore_probes(out: &mut Ledger, scale: usize) {
    let n = 20_000 / scale;
    let tick = SimDuration::from_nanos(10);
    // Two actors advancing in lock-step: every advance hands the token to
    // the other actor (the futex handoff + context switch).
    out.insert(
        "simcore.handoff_ns",
        med(|| {
            let sim = Sim::new();
            for name in ["a", "b"] {
                sim.spawn(name, move |ctx| (0..n).for_each(|_| ctx.advance(tick)));
            }
            run_ns(&sim) / (2 * n) as f64
        }),
    );
    // One actor: the token returns to the yielder, no thread switch.
    out.insert(
        "simcore.self_advance_ns",
        med(|| {
            let sim = Sim::new();
            sim.spawn("solo", move |ctx| {
                (0..4 * n).for_each(|_| ctx.advance(tick))
            });
            run_ns(&sim) / (4 * n) as f64
        }),
    );
    // A message bounced between two mailboxes: send + wake + blocked recv.
    out.insert(
        "simcore.mailbox_ns",
        med(|| {
            let sim = Sim::new();
            let (ab, ba): (Mailbox<u32>, Mailbox<u32>) = (Mailbox::new(), Mailbox::new());
            let (ab2, ba2) = (ab.clone(), ba.clone());
            sim.spawn("ping", move |ctx| {
                for i in 0..n as u32 {
                    ab.send(&ctx, i);
                    black_box(ba.recv(&ctx));
                }
            });
            sim.spawn("pong", move |ctx| {
                for _ in 0..n {
                    let v = ab2.recv(&ctx).expect("ping closed early");
                    ba2.send(&ctx, v);
                }
            });
            run_ns(&sim) / (2 * n) as f64
        }),
    );
    let actors = 10_000 / scale;
    out.insert(
        "simcore.spawn_ns",
        med(|| {
            let sim = Sim::new();
            sim.spawn("parent", move |ctx| {
                for i in 0..actors {
                    ctx.spawn(format!("c{i}"), move |c| c.advance(tick));
                    ctx.advance(tick);
                }
            });
            run_ns(&sim) / actors as f64
        }),
    );
    for (name, on) in [
        ("simcore.metrics_on_ns", true),
        ("simcore.metrics_off_ns", false),
    ] {
        let m = Metrics::new(on);
        let id = m.intern_counter("probe.counter");
        out.insert(
            name,
            ns_per_op(2_000_000 / scale, |_| m.counter_add_id(id, 1)),
        );
    }
}

fn worknet_probes(out: &mut Ledger, scale: usize) {
    let calib = Arc::new(Calib::hp720_ethernet());
    let sends = 400 / scale;
    let mut events_per_mb = 0.0;
    out.insert(
        "worknet.tcp_send_ns",
        med(|| {
            let sim = Sim::new();
            let net = Topology::single(&calib);
            let c = Arc::clone(&calib);
            sim.spawn("sender", move |ctx| {
                let conn = TcpConn::connect(&ctx, &net, &c, HostId(0), HostId(1));
                (0..sends).for_each(|_| conn.send_blocking(&ctx, 1_000_000));
            });
            let ns = run_ns(&sim);
            events_per_mb = sim.events_processed() as f64 / sends as f64;
            ns / sends as f64
        }),
    );
    out.insert("worknet.tcp_events_per_mb", events_per_mb);

    // Path lookup across a chain of eight bridged segments.
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    let segs: Vec<_> = (0..8)
        .map(|s| {
            let specs = (0..4)
                .map(|h| worknet::HostSpec::hp720(format!("s{s}h{h}")))
                .collect();
            b.segment(format!("seg{s}"), specs).0
        })
        .collect();
    for pair in segs.windows(2) {
        b.link(pair[0], pair[1], LinkCalib::bridged_ether());
    }
    let cluster = b.build();
    let hosts = cluster.len();
    out.insert(
        "worknet.route_ns",
        ns_per_op(200_000 / scale, |i| {
            black_box(
                cluster
                    .net()
                    .path(HostId(i % hosts), HostId((i * 7 + 13) % hosts)),
            );
        }),
    );

    // Compute slices of four tasks interleaving on one host.
    let slices = 10_000 / scale;
    out.insert(
        "worknet.compute_slice_ns",
        med(|| {
            let cluster = Arc::new(
                Cluster::builder(Calib::hp720_ethernet())
                    .with_hosts(1)
                    .build(),
            );
            for i in 0..4 {
                let c = Arc::clone(&cluster);
                cluster.sim.spawn(format!("w{i}"), move |ctx| {
                    let host = c.host(HostId(0));
                    (0..slices).for_each(|_| host.compute(&ctx, 1.0e5));
                });
            }
            run_ns(&cluster.sim) / (4 * slices) as f64
        }),
    );
}

fn pvm_probes(out: &mut Ledger, scale: usize) {
    const MB: f64 = 1.0e6;
    let section: Vec<f64> = (0..1_000_000).map(f64::from).collect();
    let section_mb = (section.len() * 8) as f64 / MB;
    out.insert(
        "pvm.pack_ns_per_mb",
        ns_per_op(40 / scale.min(4), |_| {
            black_box(MsgBuf::new().pk_double(black_box(&section)));
        }) / section_mb,
    );
    let msg = Message::new(Tid::new(HostId(0), 1), 1, MsgBuf::new().pk_double(&section));
    out.insert(
        "pvm.unpack_ns_per_mb",
        ns_per_op(1_000_000 / scale, |_| {
            black_box(
                black_box(&msg)
                    .reader()
                    .upk_double()
                    .expect("double section"),
            );
        }) / section_mb,
    );
    // 4 KB one way between two hosts, per route.
    let n = 4_000 / scale;
    let payload: Vec<i32> = (0..1024).collect();
    for (name, route) in [
        ("pvm.route_daemon_ns", RouteMode::Daemon),
        ("pvm.route_direct_ns", RouteMode::Direct),
    ] {
        out.insert(
            name,
            med(|| {
                let cluster = Arc::new(
                    Cluster::builder(Calib::hp720_ethernet())
                        .with_hosts(2)
                        .build(),
                );
                let pvm = Pvm::new(Arc::clone(&cluster));
                let rx = pvm.spawn(HostId(1), "rx", move |t| {
                    (0..n).for_each(|_| drop(t.recv(None, Some(1))));
                });
                let data = payload.clone();
                pvm.spawn_with_route(HostId(0), "tx", route, move |t| {
                    (0..n).for_each(|_| t.send(rx, 1, MsgBuf::new().pk_int(&data)));
                });
                run_ns(&cluster.sim) / n as f64
            }),
        );
    }
}

fn mpvm_probes(out: &mut Ledger, scale: usize) {
    let shared = MigShared::new();
    let tid = |i: usize| Tid::new(HostId(i % 32), 1 + (i / 32) as u32);
    // A table the size `migrate_storm` builds: every worker re-mapped.
    for i in 0..16 {
        shared.add_remap(tid(i), tid(i + 1000));
    }
    shared.gate(tid(3));
    let n = 500_000 / scale;
    out.insert(
        "mpvm.remap_hit_ns",
        ns_per_op(n, |i| {
            black_box(shared.remap(tid(i % 16)));
        }),
    );
    out.insert(
        "mpvm.remap_miss_ns",
        ns_per_op(n, |i| {
            black_box(shared.remap(tid(500 + i % 16)));
        }),
    );
    out.insert(
        "mpvm.gate_check_ns",
        ns_per_op(n, |i| {
            black_box(shared.is_gated(tid(i % 16)));
        }),
    );
}

fn upvm_probes(out: &mut Ledger, scale: usize) {
    let n = 100_000 / scale;
    // Occupancy changing hands between two ULPs on every acquire.
    out.insert(
        "upvm.sched_switch_ns",
        med(|| {
            let sim = Sim::new();
            sim.spawn("ulps", move |ctx| {
                let sched = ProcSched::new(SimDuration::from_micros(5));
                for i in 0..n {
                    sched.acquire(&ctx, UlpId(i % 2));
                    sched.release(&ctx, UlpId(i % 2));
                }
            });
            run_ns(&sim) / n as f64
        }),
    );
    out.insert(
        "upvm.addr_alloc_ns",
        ns_per_op(2_000 / scale, |_| {
            let mut space = AddrSpace::default_32bit();
            let regions: Vec<_> = (0..64)
                .map(|_| space.alloc(1 << 20).expect("32-bit space holds 64 MB"))
                .collect();
            regions.into_iter().for_each(|r| space.free(r));
        }) / 64.0,
    );
}

fn adm_probes(out: &mut Ledger, scale: usize) {
    // 16 workers, one withdrawing.
    let counts: Vec<usize> = (0..16).map(|i| 9_000 + 37 * i).collect();
    let mut weights = vec![1.0; 16];
    weights[5] = 0.0;
    out.insert(
        "adm.plan_ns",
        ns_per_op(200_000 / scale, |_| {
            black_box(adm::plan_redistribution(black_box(&counts), &weights));
        }),
    );
    // The processed-flag store of a 150 000-exemplar partition, claimed in
    // the 64-exemplar chunks ADMopt computes in, then reset for the next
    // iteration.
    const ITEMS: usize = 150_000;
    let passes = 40 / scale.min(4);
    let claims = ITEMS.div_ceil(64);
    let mut scan_ns = Vec::new();
    let mut reset_ns = Vec::new();
    for _ in 0..REPEATS {
        let mut flags = adm::RunFlags::with_len(ITEMS, false);
        let (mut scan, mut reset) = (0u128, 0u128);
        for _ in 0..passes {
            let t = Instant::now();
            while !black_box(flags.claim_first_clear(64)).is_empty() {}
            scan += t.elapsed().as_nanos();
            let t = Instant::now();
            flags.fill(false);
            reset += t.elapsed().as_nanos();
        }
        scan_ns.push(scan as f64 / (passes * claims) as f64);
        reset_ns.push(reset as f64 / passes as f64);
    }
    out.insert("adm.flags_scan_ns", median(&scan_ns));
    out.insert("adm.flags_reset_ns", median(&reset_ns));
}

/// A migration target over an in-memory unit → host map: migrations land
/// instantly, so a GS driving it pays scheduler cost only.
struct MapTarget {
    units: Mutex<BTreeMap<Tid, HostId>>,
    hooks: Mutex<Vec<DrainHook>>,
}

type DrainHook = Box<dyn FnOnce(&SimCtx) + Send>;

impl MigrationTarget for MapTarget {
    fn kind(&self) -> &'static str {
        "probe"
    }
    fn units_on(&self, host: HostId) -> Vec<Tid> {
        let units = self.units.lock().expect("probe target poisoned");
        units
            .iter()
            .filter(|(_, h)| **h == host)
            .map(|(t, _)| *t)
            .collect()
    }
    fn can_migrate(&self, _: Tid, _: HostId) -> bool {
        true
    }
    fn migrate(&self, _: &SimCtx, unit: Tid, dst: HostId) -> MigrationOutcome {
        self.units
            .lock()
            .expect("probe target poisoned")
            .insert(unit, dst);
        MigrationOutcome::Completed { new_tid: unit }
    }
    fn on_drain(&self, f: DrainHook) {
        self.hooks.lock().expect("probe target poisoned").push(f);
    }
}

/// What the probe's driver sends the GS each round.
#[derive(Clone, Copy)]
enum Drive {
    /// An epoch of 1 000 load deltas through a `LoadFeed`, the first
    /// [`HOT`] hosts above the threshold: one unit peeled off each.
    LoadEpochs,
    /// Owner-reclaim events for this round's [`HOT`] hosts: every unit
    /// resident there is evacuated.
    OwnerReclaims,
}

const GS_HOSTS: usize = 1024;
const HOT: usize = 16;
/// Units resident on each host an owner reclaims.
const UNITS_PER_RECLAIM: usize = 4;

/// Run a real GS over 1 024 hosts against [`MapTarget`]. Returns host ns
/// per `decide` call (the GS times its own calls) and per fed epoch.
fn gs_probe(drive: Drive, rounds: usize) -> (f64, f64) {
    let cluster = Arc::new(
        Cluster::builder(Calib::hp720_ethernet())
            .with_hosts(GS_HOSTS)
            .build(),
    );
    let (policy, units): (_, BTreeMap<Tid, HostId>) = match drive {
        Drive::LoadEpochs => (
            cpe::load_threshold(1.5),
            (0..HOT * (rounds + 2))
                .map(|u| {
                    (
                        Tid::new(HostId(u % HOT), 1 + (u / HOT) as u32),
                        HostId(u % HOT),
                    )
                })
                .collect(),
        ),
        Drive::OwnerReclaims => (
            cpe::owner_reclaim(),
            (0..HOT * rounds * UNITS_PER_RECLAIM)
                .map(|u| {
                    let host = HostId(u / UNITS_PER_RECLAIM);
                    (Tid::new(host, 1 + (u % UNITS_PER_RECLAIM) as u32), host)
                })
                .collect(),
        ),
    };
    let target = Arc::new(MapTarget {
        units: Mutex::new(units),
        hooks: Mutex::new(Vec::new()),
    });
    let gs = cpe::Gs::builder(&cluster)
        .target(Arc::clone(&target) as Arc<dyn MigrationTarget>)
        .policy(policy)
        .spawn();
    let feed_mb = gs.feed().expect("central scheduler").clone();
    let metrics = cluster.metrics();
    let fed_ns = Arc::new(Mutex::new(0u128));
    let fed = Arc::clone(&fed_ns);
    cluster.sim.spawn("probe-driver", move |ctx| {
        let mut feed = LoadFeed::new(feed_mb.clone(), metrics);
        for r in 0..rounds {
            match drive {
                Drive::LoadEpochs => {
                    let t = Instant::now();
                    for h in 0..1000 {
                        let base = if h < HOT { 2.0 } else { 0.2 };
                        feed.report(HostId(h), Load(base + 0.1 * ((h + r) % 3) as f64));
                    }
                    feed.flush(&ctx);
                    *fed.lock().expect("probe poisoned") += t.elapsed().as_nanos();
                }
                Drive::OwnerReclaims => {
                    for h in r * HOT..(r + 1) * HOT {
                        feed_mb.send(&ctx, MonitorEvent::OwnerActive(HostId(h)));
                    }
                }
            }
            ctx.advance(SimDuration::from_secs(60));
        }
        let hooks = std::mem::take(&mut *target.hooks.lock().expect("probe target poisoned"));
        hooks.into_iter().for_each(|f| f(&ctx));
    });
    run_ns(&cluster.sim);
    let (ns, calls) = gs.decide_wall();
    let fed_ns = *fed_ns.lock().expect("probe poisoned");
    (
        ns as f64 / calls.max(1) as f64,
        fed_ns as f64 / rounds as f64,
    )
}

fn cpe_probes(out: &mut Ledger, scale: usize) {
    let mut index = LoadIndex::new(GS_HOSTS);
    out.insert(
        "cpe.index_update_ns",
        ns_per_op(1_000_000 / scale, |i| {
            index.set_external(HostId(i % GS_HOSTS), (i % 7) as f64 * 0.3)
        }),
    );
    let rounds = 8 / scale.min(4);
    let mut feed_ns = Vec::new();
    let by_load = med(|| {
        let (decide, feed) = gs_probe(Drive::LoadEpochs, rounds);
        feed_ns.push(feed);
        decide
    });
    let by_owner = med(|| gs_probe(Drive::OwnerReclaims, rounds).0);
    // One number for the layer: both policies weigh the same.
    out.insert("cpe.decide_ns", (by_load + by_owner) / 2.0);
    out.insert("cpe.feed_batch_ns", median(&feed_ns));
}

/// `run_sequential`'s loop with data generation timed apart from the
/// arithmetic. Returns `(dataset seconds, gradient seconds, flops)`.
fn sequential_cost(cfg: &OptConfig) -> (f64, f64, f64) {
    let t = Instant::now();
    let set = TrainingSet::synthetic(cfg.data_bytes, cfg.dim, cfg.ncats, cfg.seed);
    let parts = set.partitions(cfg.nslaves);
    let dataset_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut net = Net::new(cfg.dim, cfg.ncats, cfg.seed);
    let mut cg = CgState::new(cfg.dim, cfg.ncats, cfg.cg_step);
    let mut flops = 0.0;
    for _ in 0..cfg.iterations {
        let mut total = Gradient::zeros(cfg.dim, cfg.ncats);
        for part in &parts {
            let mut partial = Gradient::zeros(cfg.dim, cfg.ncats);
            flops += net.gradient(part, &mut partial);
            total.merge(&partial);
        }
        cg.update(&mut net, &total);
    }
    black_box(net.checksum());
    (dataset_s, t.elapsed().as_secs_f64(), flops)
}

fn opt_probes(out: &mut Ledger, w: &Workload, p: &Params) {
    // The Opt runs the workload itself executes; a workload with none gets
    // the reference kernel speed from one small paper-geometry run (and an
    // arithmetic share of zero, computed by the caller).
    let mut configs = (w.opt_configs)(p);
    out.insert("opt.workload_runs", configs.len() as f64);
    if configs.is_empty() {
        configs.push(OptConfig::paper(600_000, 20));
    }
    let (mut dataset_s, mut gradient_s, mut flops) = (0.0, 0.0, 0.0);
    for cfg in &configs {
        let (d, g, f) = sequential_cost(cfg);
        dataset_s += d;
        gradient_s += g;
        flops += f;
    }
    out.insert("opt.dataset_gen_s", dataset_s);
    out.insert("opt.gradient_s", gradient_s);
    out.insert("opt.mflops", flops / gradient_s / 1e6);
}

fn workload_probes(out: &mut Ledger, seed: u64, scale: usize) {
    fn rows_per_s(mut f: impl FnMut() -> usize) -> f64 {
        med(|| {
            let t = Instant::now();
            let rows = f();
            rows as f64 / t.elapsed().as_secs_f64()
        })
    }
    let cfg = workload::GeneratorConfig::cluster_day(seed, 8, 100_000 / scale);
    let mut events = Vec::new();
    let gen = rows_per_s(|| {
        events = workload::generate(&cfg);
        events.len()
    });
    out.insert("workload.gen_rows_per_s", gen);
    // The writer beside the reader.
    let mut doc = String::new();
    let write = rows_per_s(|| {
        doc = workload::write_str(&events);
        events.len()
    });
    out.insert("workload.write_rows_per_s", write);
    out.insert(
        "workload.parse_rows_per_s",
        rows_per_s(|| workload::parse_str(&doc).expect("own trace parses").len()),
    );
}
