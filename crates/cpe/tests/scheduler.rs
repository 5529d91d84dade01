//! End-to-end tests: the global scheduler driving all three systems.

use cpe::{
    decentralized_gossip, destination_swap, load_threshold, owner_reclaim, rebalance, AdmTarget,
    Decision, Gs, Load, LoadFeed, MigrationTarget, MonitorEvent, MpvmTarget, UpvmTarget,
};
use mpvm::Mpvm;
use pvm_rt::{MigrationOutcome, Pvm, PvmError, TaskApi, Tid};
use simcore::{SimCtx, SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use upvm::Upvm;
use worknet::{Calib, Cluster, HostId, HostSpec, LoadTrace, OwnerTrace};

fn t(s: u64) -> SimTime {
    SimTime(s * 1_000_000_000)
}

#[test]
fn owner_reclaim_evacuates_mpvm_tasks() {
    // host0's owner returns at t=5s; both app tasks there must move to the
    // least-loaded other host (host2, since host1 carries load 2.0).
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.host(HostSpec::hp720("claimed").with_owner(OwnerTrace::reclaim_at(t(5))));
    b.host(HostSpec::hp720("busy").with_load(LoadTrace::constant(2.0)));
    b.host(HostSpec::hp720("idle"));
    let mpvm = Mpvm::new(Pvm::new(Arc::new(b.build())));
    let cluster = Arc::clone(&mpvm.pvm().cluster);

    let homes = Arc::new(Mutex::new(Vec::new()));
    for i in 0..2 {
        let homes = Arc::clone(&homes);
        mpvm.spawn_app(HostId(0), format!("w{i}"), move |task| {
            task.set_state_bytes(400_000);
            for _ in 0..100 {
                task.compute(4.5e6); // 10 s total in slices
            }
            homes.lock().unwrap().push(task.host_id().0);
        });
    }
    mpvm.seal();
    let gs = Gs::builder(&cluster)
        .target(Arc::new(MpvmTarget(Arc::clone(&mpvm))))
        .policy(owner_reclaim())
        .spawn();
    cluster.sim.run().unwrap();

    let homes = homes.lock().unwrap().clone();
    assert_eq!(homes, vec![2, 2], "both tasks end on the idle host");
    let dec = gs.decisions();
    assert_eq!(dec.len(), 2);
    for d in &dec {
        assert_eq!(d.dst, HostId(2));
        assert!(d.at >= t(5));
    }
}

#[test]
fn load_threshold_moves_one_unit_off_hot_host() {
    // host0 gets external load 3.0 at t=4s; policy threshold 1.5 → one of
    // the two tasks moves to quiet host1.
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.host(HostSpec::hp720("hot").with_load(LoadTrace::steps(vec![(t(4), 3.0)])));
    b.host(HostSpec::hp720("cool"));
    let mpvm = Mpvm::new(Pvm::new(Arc::new(b.build())));
    let cluster = Arc::clone(&mpvm.pvm().cluster);

    let homes = Arc::new(Mutex::new(Vec::new()));
    for i in 0..2 {
        let homes = Arc::clone(&homes);
        mpvm.spawn_app(HostId(0), format!("w{i}"), move |task| {
            for _ in 0..80 {
                task.compute(4.5e6);
            }
            homes.lock().unwrap().push(task.host_id().0);
        });
    }
    mpvm.seal();
    let gs = Gs::builder(&cluster)
        .target(Arc::new(MpvmTarget(Arc::clone(&mpvm))))
        .policy(load_threshold(1.5))
        .spawn();
    cluster.sim.run().unwrap();

    let mut homes = homes.lock().unwrap().clone();
    homes.sort();
    assert_eq!(homes, vec![0, 1], "exactly one task moves");
    assert_eq!(gs.decisions().len(), 1);
}

#[test]
fn owner_reclaim_evacuates_ulps_individually() {
    // Three ULPs on host0; owner reclaims it. ULPs spread across the two
    // remaining hosts — finer-grained than MPVM's whole-process moves.
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.host(HostSpec::hp720("claimed").with_owner(OwnerTrace::reclaim_at(t(3))));
    b.host(HostSpec::hp720("a"));
    b.host(HostSpec::hp720("b"));
    let sys = Upvm::new(Pvm::new(Arc::new(b.build())));
    let cluster = Arc::clone(&sys.pvm().cluster);

    let homes = Arc::new(Mutex::new(Vec::new()));
    for i in 0..3 {
        let homes = Arc::clone(&homes);
        sys.spawn_ulp(HostId(0), format!("u{i}"), 1_000_000, move |u| {
            u.set_state_bytes(150_000);
            for _ in 0..100 {
                u.compute(4.5e6);
            }
            homes.lock().unwrap().push(u.host_id().0);
        })
        .unwrap();
    }
    sys.seal();
    let gs = Gs::builder(&cluster)
        .target(Arc::new(UpvmTarget(Arc::clone(&sys))))
        .policy(owner_reclaim())
        .spawn();
    cluster.sim.run().unwrap();

    let mut homes = homes.lock().unwrap().clone();
    homes.sort();
    assert!(!homes.contains(&0), "no ULP remains on the reclaimed host");
    // Balanced spread: 3 ULPs over 2 hosts → 2+1.
    assert_eq!(homes, vec![1, 1, 2]);
    assert_eq!(gs.decisions().len(), 3);
}

#[test]
fn adm_target_delivers_withdraw_event_to_worker() {
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.host(HostSpec::hp720("claimed").with_owner(OwnerTrace::reclaim_at(t(2))));
    b.host(HostSpec::hp720("other"));
    let pvm = Pvm::new(Arc::new(b.build()));
    let cluster = Arc::clone(&pvm.cluster);
    let target = AdmTarget::new(Arc::clone(&pvm));

    let withdrew = Arc::new(AtomicU64::new(0));
    let w = Arc::clone(&withdrew);
    let t2 = Arc::clone(&target);
    let worker = pvm.spawn(HostId(0), "adm-worker", move |task| {
        let ebox = adm::EventBox::new();
        // Compute in slices, polling the event flag each iteration (the
        // ADM inner-loop pattern).
        for _ in 0..100 {
            task.compute(4.5e6);
            if let Some(adm::AdmEvent::Withdraw { .. }) = ebox.poll(task.sim()) {
                w.fetch_add(1, Ordering::SeqCst);
            }
        }
        t2.drain(task.sim());
    });
    target.register_worker(worker, HostId(0));

    let gs = Gs::builder(&cluster)
        .target(Arc::clone(&target) as Arc<dyn MigrationTarget>)
        .policy(owner_reclaim())
        .spawn();
    cluster.sim.run().unwrap();
    assert_eq!(withdrew.load(Ordering::SeqCst), 1);
    assert_eq!(gs.decisions().len(), 1);
}

#[test]
fn destination_never_has_active_owner() {
    // Owner reclaims host0 at t=2 and host2 is owner-active from t=0, so
    // everything must land on host1 even though host2 has fewer units.
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.host(HostSpec::hp720("claimed").with_owner(OwnerTrace::reclaim_at(t(2))));
    b.host(HostSpec::hp720("ok"));
    b.host(HostSpec::hp720("owned").with_owner(OwnerTrace::events(vec![(t(1), true)])));
    let mpvm = Mpvm::new(Pvm::new(Arc::new(b.build())));
    let cluster = Arc::clone(&mpvm.pvm().cluster);

    let home = Arc::new(AtomicU64::new(99));
    let h = Arc::clone(&home);
    mpvm.spawn_app(HostId(0), "w", move |task| {
        for _ in 0..60 {
            task.compute(4.5e6);
        }
        h.store(task.host_id().0 as u64, Ordering::SeqCst);
    });
    mpvm.seal();
    let gs = Gs::builder(&cluster)
        .target(Arc::new(MpvmTarget(Arc::clone(&mpvm))))
        .policy(owner_reclaim())
        .spawn();
    cluster.sim.run().unwrap();
    assert_eq!(home.load(Ordering::SeqCst), 1);
    assert_eq!(gs.decisions()[0].dst, HostId(1));
}

#[test]
fn gs_reports_stuck_when_no_destination_exists() {
    // Two hosts, both eventually owner-active: the unit has nowhere to go.
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.host(HostSpec::hp720("h0").with_owner(OwnerTrace::reclaim_at(t(3))));
    b.host(HostSpec::hp720("h1").with_owner(OwnerTrace::reclaim_at(t(1))));
    let mpvm = Mpvm::new(Pvm::new(Arc::new(b.build())));
    let cluster = Arc::clone(&mpvm.pvm().cluster);

    let home = Arc::new(AtomicU64::new(99));
    let h = Arc::clone(&home);
    mpvm.spawn_app(HostId(0), "w", move |task| {
        for _ in 0..50 {
            task.compute(4.5e6);
        }
        h.store(task.host_id().0 as u64, Ordering::SeqCst);
    });
    mpvm.seal();
    let gs = Gs::builder(&cluster)
        .target(Arc::new(MpvmTarget(Arc::clone(&mpvm))))
        .policy(owner_reclaim())
        .spawn();
    cluster.sim.run().unwrap();
    assert_eq!(home.load(Ordering::SeqCst), 0, "task stays put");
    assert!(gs.decisions().is_empty());
    let tr = cluster.sim.take_trace();
    assert!(tr.iter().any(|e| e.tag == "gs.stuck"));
}

#[test]
fn multi_job_evacuation_spreads_both_jobs() {
    // Two independent MPVM jobs share host0; the owner reclaims it. The GS
    // manages both and spreads their units over the two spare hosts,
    // counting units across jobs when scoring destinations.
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.host(HostSpec::hp720("claimed").with_owner(OwnerTrace::reclaim_at(t(2))));
    b.host(HostSpec::hp720("a"));
    b.host(HostSpec::hp720("b"));
    let pvm = Pvm::new(Arc::new(b.build()));
    let cluster = Arc::clone(&pvm.cluster);

    let homes = Arc::new(Mutex::new(Vec::new()));
    let mut targets: Vec<Arc<dyn MigrationTarget>> = Vec::new();
    for job in 0..2 {
        let mpvm = Mpvm::new(Arc::clone(&pvm));
        let homes = Arc::clone(&homes);
        mpvm.spawn_app(HostId(0), format!("job{job}-w"), move |task| {
            for _ in 0..80 {
                task.compute(4.5e6);
            }
            homes.lock().unwrap().push(task.host_id().0);
        });
        mpvm.seal();
        targets.push(Arc::new(MpvmTarget(mpvm)));
    }
    let mut builder = Gs::builder(&cluster).policy(owner_reclaim());
    for t in targets {
        builder = builder.target(t);
    }
    let gs = builder.spawn();
    cluster.sim.run().unwrap();

    let mut homes = homes.lock().unwrap().clone();
    homes.sort();
    assert_eq!(homes, vec![1, 2], "one worker per spare host, across jobs");
    assert_eq!(gs.decisions().len(), 2);
}

#[test]
fn rebalance_policy_moves_work_off_crowded_host() {
    use simcore::SimDuration;
    // Three ULPs start on host0, host1 idle: periodic rebalance should
    // spread them without any owner/load event.
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.quiet_hp720s(2);
    let pvm = Pvm::new(Arc::new(b.build()));
    let cluster = Arc::clone(&pvm.cluster);
    let sys = upvm::Upvm::new(Arc::clone(&pvm));

    let homes = Arc::new(Mutex::new(Vec::new()));
    for i in 0..3 {
        let homes = Arc::clone(&homes);
        sys.spawn_ulp(HostId(0), format!("u{i}"), 1_000_000, move |u| {
            u.set_state_bytes(100_000);
            for _ in 0..60 {
                u.compute(45.0e6 / 4.0); // 15 s of work in slices
            }
            homes.lock().unwrap().push(u.host_id().0);
        })
        .unwrap();
    }
    sys.seal();
    let gs = Gs::builder(&cluster)
        .target(Arc::new(UpvmTarget(Arc::clone(&sys))))
        .policy(rebalance(SimDuration::from_secs(3)))
        .spawn();
    cluster.sim.run().unwrap();
    let homes = homes.lock().unwrap().clone();
    assert!(
        homes.contains(&1),
        "rebalance must move at least one ULP to the idle host: {homes:?}"
    );
    assert!(!gs.decisions().is_empty());
}

#[test]
fn stress_random_worknet_all_tasks_complete_deterministically() {
    // Four hosts with synthesized owner sessions and load bursts; six
    // sliced MPVM workers under owner-reclaim. Everything must finish, off
    // owner-active machines when possible, and the whole run must replay
    // bit-identically.
    fn run(seed: u64) -> (f64, Vec<usize>, usize) {
        let mut b = Cluster::builder(Calib::hp720_ethernet());
        for h in 0..4u64 {
            b.host(
                HostSpec::hp720(format!("h{h}"))
                    .with_owner(OwnerTrace::random_sessions(seed + h, 120.0, 45.0, 20.0))
                    .with_load(LoadTrace::random_bursts(
                        seed + 100 + h,
                        120.0,
                        40.0,
                        15.0,
                        2,
                    )),
            );
        }
        let mpvm = Mpvm::new(Pvm::new(Arc::new(b.build())));
        let cluster = Arc::clone(&mpvm.pvm().cluster);
        let homes = Arc::new(Mutex::new(Vec::new()));
        for i in 0..6 {
            let homes = Arc::clone(&homes);
            mpvm.spawn_app(HostId(i % 4), format!("w{i}"), move |task| {
                task.set_state_bytes(200_000);
                for _ in 0..60 {
                    task.compute(4.5e6); // 6 s of quiet-CPU work in slices
                }
                homes.lock().unwrap().push(task.host_id().0);
            });
        }
        mpvm.seal();
        let gs = Gs::builder(&cluster)
            .target(Arc::new(MpvmTarget(Arc::clone(&mpvm))))
            .policy(owner_reclaim())
            .spawn();
        let end = cluster.sim.run().expect("stress run failed");
        let mut h = homes.lock().unwrap().clone();
        h.sort();
        (end.as_secs_f64(), h, gs.decisions().len())
    }
    let a = run(2024);
    assert_eq!(a.1.len(), 6, "all workers finished");
    let b = run(2024);
    assert_eq!(a, b, "bit-identical replay");
    // A different seed gives a different (still successful) story.
    let c = run(999);
    assert_eq!(c.1.len(), 6);
}

#[test]
fn destination_swap_pairs_hot_hosts_with_cold() {
    use simcore::SimDuration;
    // Units skewed onto hosts 0 and 1 of four. Each swap round pairs the
    // hottest host with the coldest (and second-hottest with
    // second-coldest), moving one unit within each pair — so *both* idle
    // hosts receive work, where a greedy all-to-coldest sweep would herd
    // everything onto one.
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.quiet_hp720s(4);
    let pvm = Pvm::new(Arc::new(b.build()));
    let cluster = Arc::clone(&pvm.cluster);
    let sys = upvm::Upvm::new(Arc::clone(&pvm));

    let homes = Arc::new(Mutex::new(Vec::new()));
    for i in 0..7 {
        let homes = Arc::clone(&homes);
        let start = if i < 4 { HostId(0) } else { HostId(1) };
        sys.spawn_ulp(start, format!("u{i}"), 1_000_000, move |u| {
            u.set_state_bytes(100_000);
            for _ in 0..60 {
                u.compute(45.0e6 / 4.0); // 15 s of work in slices
            }
            homes.lock().unwrap().push(u.host_id().0);
        })
        .unwrap();
    }
    sys.seal();
    let gs = Gs::builder(&cluster)
        .target(Arc::new(UpvmTarget(Arc::clone(&sys))))
        .policy(destination_swap(SimDuration::from_secs(3)))
        .spawn();
    cluster.sim.run().unwrap();
    let homes = homes.lock().unwrap().clone();
    assert!(
        homes.contains(&2) && homes.contains(&3),
        "both idle hosts receive work: {homes:?}"
    );
    assert!(gs.decisions().len() >= 2);
}

#[test]
fn decentralized_gossip_schedules_without_central_gs() {
    use simcore::SimDuration;
    // Same shape as the owner-reclaim test, but no central GS: per-host
    // daemons gossip load vectors and decide locally. Before the owner
    // returns the threshold half sheds one worker to the idle host; the
    // reclaim at t=8s evacuates the rest — always to idle host2, never to
    // busy host1. The whole run must replay bit-identically.
    fn run() -> (f64, Vec<usize>, usize) {
        let mut b = Cluster::builder(Calib::hp720_ethernet());
        b.host(HostSpec::hp720("claimed").with_owner(OwnerTrace::reclaim_at(t(8))));
        b.host(HostSpec::hp720("busy").with_load(LoadTrace::constant(2.0)));
        b.host(HostSpec::hp720("idle"));
        let mpvm = Mpvm::new(Pvm::new(Arc::new(b.build())));
        let cluster = Arc::clone(&mpvm.pvm().cluster);

        let homes = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2 {
            let homes = Arc::clone(&homes);
            mpvm.spawn_app(HostId(0), format!("w{i}"), move |task| {
                task.set_state_bytes(400_000);
                for _ in 0..100 {
                    task.compute(4.5e6); // 10 s total in slices
                }
                homes.lock().unwrap().push(task.host_id().0);
            });
        }
        mpvm.seal();
        let gs = Gs::builder(&cluster)
            .target(Arc::new(MpvmTarget(Arc::clone(&mpvm))))
            .policy(decentralized_gossip(SimDuration::from_secs(1)))
            .spawn();
        let end = cluster.sim.run().unwrap();
        let mut h = homes.lock().unwrap().clone();
        h.sort();
        (end.as_secs_f64(), h, gs.decisions().len())
    }
    let a = run();
    assert_eq!(a.1, vec![2, 2], "all work ends on the idle host: {:?}", a.1);
    assert!(a.2 >= 2, "both moves appear in the shared decision log");
    let b = run();
    assert_eq!(a, b, "bit-identical replay");
}

/// A bookkeeping-only migration system (units are just tids filed under a
/// host) that refuses every migration onto one host.
struct RefusingTarget {
    units: Mutex<Vec<Vec<Tid>>>,
    refused: HostId,
    drain_hooks: Mutex<Vec<DrainHook>>,
}

type DrainHook = Box<dyn FnOnce(&SimCtx) + Send>;

impl MigrationTarget for RefusingTarget {
    fn kind(&self) -> &'static str {
        "ledger"
    }
    fn units_on(&self, host: HostId) -> Vec<Tid> {
        self.units.lock().unwrap()[host.0].clone()
    }
    fn can_migrate(&self, _unit: Tid, _dst: HostId) -> bool {
        true
    }
    fn migrate(&self, _ctx: &SimCtx, unit: Tid, dst: HostId) -> MigrationOutcome {
        if dst == self.refused {
            return MigrationOutcome::Failed {
                error: PvmError::HostDown(dst),
            };
        }
        let mut units = self.units.lock().unwrap();
        for on_host in units.iter_mut() {
            on_host.retain(|u| *u != unit);
        }
        units[dst.0].push(unit);
        MigrationOutcome::Completed { new_tid: unit }
    }
    fn on_drain(&self, f: DrainHook) {
        self.drain_hooks.lock().unwrap().push(f);
    }
}

#[test]
fn decision_log_renders_the_same_whole_as_line_by_line() {
    // Four quiet hosts; host2 — empty, so the preferred destination —
    // refuses every migration, and each first attempt fails onto it.
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    b.quiet_hp720s(4);
    let cluster = Arc::new(b.build());
    let unit = |h: usize, i: u32| Tid::new(HostId(h), i);
    let target = Arc::new(RefusingTarget {
        units: Mutex::new(vec![
            vec![unit(0, 0), unit(0, 1), unit(0, 2)],
            vec![unit(1, 0), unit(1, 1)],
            vec![],
            vec![unit(3, 0)],
        ]),
        refused: HostId(2),
        drain_hooks: Mutex::new(Vec::new()),
    });
    let gs = Gs::builder(&cluster)
        .target(Arc::clone(&target) as Arc<dyn MigrationTarget>)
        .policy(load_threshold(1.5))
        .spawn();
    let feed_mb = gs.feed().expect("central scheduler").clone();
    let metrics = cluster.metrics();
    cluster.sim.spawn("driver", move |ctx| {
        let second = SimDuration::from_secs(1);
        let mut feed = LoadFeed::new(feed_mb.clone(), metrics);
        // Two hot hosts at once: one LoadBatch, a unit peeled off each.
        ctx.advance(second);
        feed.report(HostId(0), Load(3.0));
        feed.report(HostId(1), Load(2.5));
        feed.flush(&ctx);
        // One hot host: a plain LoadChanged.
        ctx.advance(second);
        feed.report(HostId(1), Load(2.0));
        feed.flush(&ctx);
        // The owner of host0 returns: everything left there moves.
        ctx.advance(second);
        feed_mb.send(&ctx, MonitorEvent::OwnerActive(HostId(0)));
        ctx.advance(second);
        for hook in std::mem::take(&mut *target.drain_hooks.lock().unwrap()) {
            hook(&ctx);
        }
    });
    cluster.sim.run().unwrap();

    let log = gs.decisions();
    let has = |p: fn(&MonitorEvent) -> bool| log.iter().any(|d| p(&d.event));
    assert!(has(|e| matches!(e, MonitorEvent::LoadBatch(_))));
    assert!(has(|e| matches!(e, MonitorEvent::LoadChanged(..))));
    assert!(has(|e| matches!(e, MonitorEvent::OwnerActive(_))));
    assert!(log.iter().any(|d| !d.outcome.is_completed()));
    // Both cases the per-run label cache must get right.
    assert!(log.windows(2).any(|w| w[0].event == w[1].event));
    assert!(log.windows(2).any(|w| w[0].event != w[1].event));

    let line_by_line: Vec<String> = log.iter().map(Decision::to_json).collect();
    assert_eq!(gs.decisions_json(), line_by_line);
    assert_eq!(Decision::log_to_json(&log), line_by_line);
    assert!(
        line_by_line[0].contains("\"event\": \"load_batch:0:3,1:2.5\""),
        "{}",
        line_by_line[0]
    );
}
