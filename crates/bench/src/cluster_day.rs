//! cluster_day — a trace-driven cluster day at four-digit host counts.
//!
//! The workload engine (`crates/workload`) synthesizes a diurnal
//! arrival trace — 100k+ VP arrivals/departures over a 24 h horizon,
//! Pareto lifetimes, per-class skew — and this module replays it against
//! real scheduling machinery: one worknet cluster + global scheduler per
//! host class (segment), a [`cpe::LoadFeed`] delivering epoch-batched
//! load deltas into each GS, owner-reclaim faults injected mid-day
//! through the fault plane, and the whole thing partitioned across
//! [`simcore::ShardedSim`] shards by segment.
//!
//! The trace is generated as one canonical stream per host class
//! ([`workload::generate_by_class`]) and each stream is moved into its
//! segment's driver actor, so a single copy of it exists from generation
//! to the end of the run. Decision logs are rendered after the run by
//! [`cpe::Gs::decisions_json`].
//!
//! The replay hot path is pooled: metric names are interned once per
//! segment ([`simcore::CounterId`] & co.), sampled-VP mailboxes come from
//! a [`simcore::MailboxPool`], actor slots are recycled
//! ([`simcore::Sim::set_actor_recycling`]) and residency counts are O(1).
//!
//! Decisions, merged metrics JSON, trace events and virtual end time must
//! be byte-identical across replays, across 1/2/4 shards and under a
//! capped carrier pool (`set_max_idle_carriers`) — asserted by the root
//! package's `tests/gates.rs`.

use cpe::{Load, LoadFeed, MigrationTarget};
use parking_lot::Mutex;
use pvm_rt::{MigrationOutcome, PvmError, Tid};
use simcore::{
    CounterId, GaugeId, HistogramId, Mailbox, MailboxPool, Metrics, MetricsReport, ShardedSim,
    SimCtx, SimDuration, SimTime,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workload::{GeneratorConfig, TraceEventKind, VpId};
use worknet::{Calib, Cluster, Fault, FaultSchedule, HostId, HostSpec};

/// Host classes (→ segments → clusters) the day is spread over.
pub const CD_SEGMENTS: usize = 8;

/// Replay epoch: the driver batches trace events, monitor deltas and the
/// cross-segment pulse into one wakeup per epoch (the generator's own
/// 15-minute diurnal buckets). Also the ring-link latency, i.e. the
/// conservative lookahead bound between shards.
pub const EPOCH: SimDuration = SimDuration::from_secs(15 * 60);

/// Epochs in the 24 h horizon.
pub const EPOCHS: usize = 96;

/// Every `VP_SAMPLE`-th arrival is materialized as a real actor with a
/// mailbox that lives until the VP departs — the churn that exercises
/// slot and mailbox recycling.
pub const VP_SAMPLE: u64 = 64;

/// Which shard a segment lives on: contiguous blocks, like the
/// `par_kernel` sweep.
pub fn cd_shard_of(segment: usize, segments: usize, shards: usize) -> usize {
    segment * shards / segments
}

/// One cluster-day scenario, fully specified.
#[derive(Debug, Clone, Copy)]
pub struct CdConfig {
    /// Trace seed (same seed → byte-identical trace and replay).
    pub seed: u64,
    /// Host classes / segments / clusters / schedulers.
    pub segments: usize,
    /// Hosts per segment; total hosts = `segments * hosts_per_segment`.
    pub hosts_per_segment: usize,
    /// Total VP arrivals (trace events = 2 × arrivals).
    pub arrivals: usize,
    /// Shards to partition the segments across.
    pub shards: usize,
    /// Cap on idle carrier threads per shard, when set.
    pub max_idle_carriers: Option<usize>,
}

impl CdConfig {
    /// The standard scenario at a given host count: 8 segments, 1 shard,
    /// full-size trace unless `smoke`.
    pub fn sized(smoke: bool, hosts_per_segment: usize) -> CdConfig {
        CdConfig {
            seed: 1994,
            segments: CD_SEGMENTS,
            hosts_per_segment,
            arrivals: if smoke { 20_000 } else { 60_000 },
            shards: 1,
            max_idle_carriers: None,
        }
    }
}

/// The observables of one replay.
pub struct CdRun {
    /// Per-segment GS decision logs as deterministic JSON lines.
    pub decisions: Vec<Vec<String>>,
    /// Merged deterministic metrics JSON: per-shard registries merged in
    /// shard order. Every gauge name is per-host (unique) and counters
    /// and histograms merge commutatively, so this is invariant under
    /// the partitioning.
    pub metrics_json: String,
    /// Trace events replayed (arrivals + departures).
    pub trace_events: u64,
    /// Simulator heap entries processed, summed over shards.
    pub kernel_events: u64,
    /// Migrations the schedulers completed (`workload.seg*.migrations`).
    pub migrations: u64,
    /// Epoch pulses delivered over the segment ring.
    pub pulses: u64,
    /// Wall seconds inside `ShardedSim::run` (setup excluded).
    pub wall_secs: f64,
    /// Virtual seconds covered.
    pub sim_secs: f64,
}

/// Interned per-segment metric ids.
struct SegMetricIds {
    arrivals: CounterId,
    departs: CounterId,
    migrations: CounterId,
    lifetime: HistogramId,
    /// Per-host resident-count gauges, indexed by host.
    resident: Vec<GaugeId>,
}

/// Mutable workload state of one segment.
struct SegState {
    /// Resident VP ids per host, ascending.
    residents: Vec<BTreeSet<u64>>,
    /// VP → current host index.
    vp_host: HashMap<u64, usize>,
    /// VP → utilization it contributes to its host's sensed load.
    vp_util: HashMap<u64, f64>,
    /// Per-host utilization sums (the sensed external load).
    util: Vec<f64>,
    /// Hosts whose load changed since the last drain, ascending.
    dirty: BTreeSet<usize>,
}

/// Callback run once when a segment's replay finishes draining.
type DrainHook = Box<dyn FnOnce(&SimCtx) + Send>;

/// The migration target of one segment: a bookkeeping-only system whose
/// "processes" are the trace's VPs. Arrivals and departures come from
/// the replay driver; migrations come from the GS and move the VP's
/// load contribution between hosts at event-delivery cost (like
/// [`cpe::AdmTarget`], the lossless event queue stands in for the
/// transfer itself — the wire-level protocols have their own benches).
pub struct WorkloadTarget {
    metrics: Metrics,
    state: Mutex<SegState>,
    ids: SegMetricIds,
    drain_hooks: Mutex<Vec<DrainHook>>,
}

/// `VpId` → `Tid`: 18 low bits become the task index, the rest the host
/// field, so ids stay unique (and ordered) for billions of VPs without a
/// lookup table.
fn vp_tid(vp: u64) -> Tid {
    Tid::new(HostId((vp >> 18) as usize), (vp & ((1 << 18) - 1)) as u32)
}

/// `Tid` → `VpId` (inverse of [`vp_tid`]).
fn tid_vp(t: Tid) -> u64 {
    ((t.host().0 as u64) << 18) | t.index() as u64
}

impl WorkloadTarget {
    /// A target for `seg` with `hosts` hosts, recording into `metrics`
    /// under names interned here, once.
    pub fn new(seg: usize, hosts: usize, metrics: Metrics) -> Arc<WorkloadTarget> {
        let ids = SegMetricIds {
            arrivals: metrics.intern_counter(format!("workload.seg{seg}.arrivals")),
            departs: metrics.intern_counter(format!("workload.seg{seg}.departs")),
            migrations: metrics.intern_counter(format!("workload.seg{seg}.migrations")),
            lifetime: metrics.intern_histogram(format!("workload.seg{seg}.lifetime_ns")),
            resident: (0..hosts)
                .map(|h| metrics.intern_gauge(format!("workload.c{seg}h{h}.resident")))
                .collect(),
        };
        Arc::new(WorkloadTarget {
            metrics,
            state: Mutex::new(SegState {
                residents: vec![BTreeSet::new(); hosts],
                vp_host: HashMap::new(),
                vp_util: HashMap::new(),
                util: vec![0.0; hosts],
                dirty: BTreeSet::new(),
            }),
            ids,
            drain_hooks: Mutex::new(Vec::new()),
        })
    }

    /// Record the resident-count gauge for `host` (current value `n`).
    fn gauge_resident(&self, host: usize, n: usize) {
        self.metrics.gauge_set_id(self.ids.resident[host], n as f64);
    }

    /// A VP arrives on `host`, contributing `util` load for `lifetime`.
    pub fn arrive(&self, vp: VpId, host: HostId, util: f64, lifetime: SimDuration) {
        let mut s = self.state.lock();
        let h = host.0;
        s.residents[h].insert(vp.0);
        s.vp_host.insert(vp.0, h);
        s.vp_util.insert(vp.0, util);
        s.util[h] += util;
        s.dirty.insert(h);
        let n = s.residents[h].len();
        drop(s);
        self.metrics.counter_add_id(self.ids.arrivals, 1);
        self.metrics
            .histogram_record_id(self.ids.lifetime, lifetime);
        self.gauge_resident(h, n);
    }

    /// The VP departs from wherever it currently resides. O(log n): one
    /// map lookup plus one set removal — no host rescans.
    pub fn depart(&self, vp: VpId) {
        let mut s = self.state.lock();
        let h = s.vp_host.remove(&vp.0).expect("departing VP is resident");
        let util = s.vp_util.remove(&vp.0).expect("departing VP has a load");
        s.residents[h].remove(&vp.0);
        s.util[h] -= util;
        s.dirty.insert(h);
        let n = s.residents[h].len();
        drop(s);
        self.metrics.counter_add_id(self.ids.departs, 1);
        self.gauge_resident(h, n);
    }

    /// Hosts touched since the last call, with their current sensed
    /// load, in ascending host order.
    pub fn drain_dirty(&self) -> Vec<(HostId, f64)> {
        let mut s = self.state.lock();
        let dirty = std::mem::take(&mut s.dirty);
        dirty.into_iter().map(|h| (HostId(h), s.util[h])).collect()
    }

    /// Run the registered drain hooks (the application finished).
    pub fn drain(&self, ctx: &SimCtx) {
        for f in std::mem::take(&mut *self.drain_hooks.lock()) {
            f(ctx);
        }
    }
}

impl MigrationTarget for WorkloadTarget {
    fn kind(&self) -> &'static str {
        "workload"
    }
    fn units_on(&self, host: HostId) -> Vec<Tid> {
        self.state.lock().residents[host.0]
            .iter()
            .map(|&vp| vp_tid(vp))
            .collect()
    }
    fn units_count(&self, host: HostId) -> usize {
        self.state.lock().residents[host.0].len()
    }
    fn can_migrate(&self, unit: Tid, _dst: HostId) -> bool {
        self.state.lock().vp_host.contains_key(&tid_vp(unit))
    }
    fn migrate(&self, ctx: &SimCtx, unit: Tid, dst: HostId) -> MigrationOutcome {
        let vp = tid_vp(unit);
        let mut s = self.state.lock();
        let Some(&src) = s.vp_host.get(&vp) else {
            return MigrationOutcome::Failed {
                error: PvmError::NoSuchTask(unit),
            };
        };
        let util = s.vp_util[&vp];
        s.residents[src].remove(&vp);
        s.residents[dst.0].insert(vp);
        s.vp_host.insert(vp, dst.0);
        s.util[src] -= util;
        s.util[dst.0] += util;
        s.dirty.insert(src);
        s.dirty.insert(dst.0);
        let (n_src, n_dst) = (s.residents[src].len(), s.residents[dst.0].len());
        drop(s);
        self.metrics.counter_add_id(self.ids.migrations, 1);
        self.gauge_resident(src, n_src);
        self.gauge_resident(dst.0, n_dst);
        let _ = ctx;
        MigrationOutcome::Completed { new_tid: unit }
    }
    fn on_drain(&self, f: Box<dyn FnOnce(&SimCtx) + Send>) {
        self.drain_hooks.lock().push(f);
    }
}

/// Replay the cluster day described by `cfg` and return its observables.
///
/// Per segment: a quiet single-segment cluster (hosts `c{seg}h{n}`) with
/// an owner-reclaim fault at hour 8 on its entry host, a load-threshold
/// GS, a [`WorkloadTarget`], and one epoch-batched replay driver. Half
/// of all arrivals land on the entry host (host 0) — the hotspot the
/// threshold policy keeps shedding — and the rest round-robin across the
/// remaining hosts. Drivers pulse an epoch token around the segment ring
/// over [`simcore::ShardLink`]s (latency = [`EPOCH`], the lookahead).
pub fn cluster_day_run(cfg: &CdConfig) -> CdRun {
    assert!(
        cfg.shards >= 1 && cfg.segments.is_multiple_of(cfg.shards),
        "shard count must divide the segment count"
    );
    assert!(
        cfg.hosts_per_segment >= 2,
        "need an entry host plus at least one destination per segment"
    );
    // One canonical stream per host class (→ segment), each moved into
    // its segment's driver below.
    let streams = workload::generate_by_class(&GeneratorConfig::cluster_day(
        cfg.seed,
        cfg.segments as u16,
        cfg.arrivals,
    ));
    let trace_events = streams.iter().map(|s| s.len() as u64).sum();

    let ss = ShardedSim::new(cfg.shards);
    for i in 0..cfg.shards {
        let sim = ss.sim(i);
        sim.set_trace_enabled(false);
        sim.set_actor_recycling(true);
        if let Some(cap) = cfg.max_idle_carriers {
            sim.set_max_idle_carriers(cap);
        }
    }

    let pulses_total = Arc::new(AtomicU64::new(0));
    let mut schedulers = Vec::new();
    let mut targets: Vec<Arc<WorkloadTarget>> = Vec::new();
    let mut clusters = Vec::new();
    for seg in 0..cfg.segments {
        let here = cd_shard_of(seg, cfg.segments, cfg.shards);
        let mut b = Cluster::builder(Calib::hp720_ethernet()).on_sim(ss.sim(here).clone());
        for h in 0..cfg.hosts_per_segment {
            b.host(HostSpec::hp720(format!("c{seg}h{h}")));
        }
        // The fault plane's mid-day event: the entry host's owner comes
        // back at hour 8; the monitor replays it as OwnerActive and the
        // policy evacuates every VP resident there.
        b.fault_schedule(FaultSchedule::new().at(
            SimDuration::from_secs(8 * 3600),
            Fault::OwnerReclaim { host: HostId(0) },
        ));
        let cluster = Arc::new(b.with_metrics().build());
        let target = WorkloadTarget::new(seg, cfg.hosts_per_segment, cluster.metrics());
        let gs = cpe::Gs::builder(&cluster)
            .target(Arc::clone(&target) as Arc<dyn MigrationTarget>)
            .policy(cpe::load_threshold(1.5))
            .name(format!("gs-seg{seg}"))
            .spawn();
        targets.push(Arc::clone(&target));
        clusters.push(Arc::clone(&cluster));
        schedulers.push(gs);
    }

    // Ring mailboxes + links, then the drivers (one per segment).
    let ring: Vec<Mailbox<u32>> = (0..cfg.segments).map(|_| Mailbox::new()).collect();
    for (seg, events) in streams.into_iter().enumerate() {
        let right = (seg + 1) % cfg.segments;
        let here = cd_shard_of(seg, cfg.segments, cfg.shards);
        let to_right = ss.link(here, cd_shard_of(right, cfg.segments, cfg.shards), EPOCH);
        let my_mb = ring[seg].clone();
        let right_mb = ring[right].clone();
        let target = Arc::clone(&targets[seg]);
        let feed_mb = schedulers[seg].feed().expect("central scheduler").clone();
        let metrics = clusters[seg].metrics();
        let pool: Arc<MailboxPool<()>> = Arc::new(MailboxPool::new());
        let pulses = Arc::clone(&pulses_total);
        let spread = cfg.hosts_per_segment - 1;
        ss.sim(here).spawn(format!("driver{seg}"), move |ctx| {
            let mut feed = LoadFeed::new(feed_mb, metrics);
            let mut sampled: HashMap<u64, Mailbox<()>> = HashMap::new();
            let mut cursor = 0usize;
            let mut next = 0usize;
            let mut got = 0u64;
            for epoch in 1..=EPOCHS {
                let end = SimTime(EPOCH.0 * epoch as u64);
                ctx.advance(SimDuration(end.0 - ctx.now().0));
                let last = epoch == EPOCHS;
                while next < events.len()
                    && (events[next].at.0 < end.0 || (last && events[next].at.0 <= end.0))
                {
                    let e = events[next];
                    next += 1;
                    match e.kind {
                        TraceEventKind::Arrive { work, lifetime } => {
                            // Hotspot placement: even VPs pile onto the
                            // entry host, odd ones spread round-robin.
                            let host = if e.vp_id.0 % 2 == 0 {
                                HostId(0)
                            } else {
                                cursor = (cursor + 1) % spread;
                                HostId(1 + cursor)
                            };
                            let util = work.as_secs_f64() / lifetime.as_secs_f64();
                            target.arrive(e.vp_id, host, util, lifetime);
                            if e.vp_id.0.is_multiple_of(VP_SAMPLE) {
                                let mb = pool.acquire();
                                sampled.insert(e.vp_id.0, mb.clone());
                                let pool = Arc::clone(&pool);
                                ctx.spawn(format!("{}", e.vp_id), move |vctx| {
                                    let _ = mb.recv(&vctx);
                                    pool.release(mb);
                                });
                            }
                        }
                        TraceEventKind::Depart => {
                            target.depart(e.vp_id);
                            if let Some(mb) = sampled.remove(&e.vp_id.0) {
                                mb.send(&ctx, ());
                            }
                        }
                    }
                }
                for (h, load) in target.drain_dirty() {
                    feed.report(h, Load(load));
                }
                feed.flush(&ctx);
                let m = right_mb.clone();
                let token = epoch as u32;
                to_right.send(ctx.now(), move |w| m.send_from_world(w, token));
                while my_mb.try_recv().is_some() {
                    got += 1;
                }
            }
            assert!(sampled.is_empty(), "every sampled VP departed in-horizon");
            // The last epochs' pulses are still in flight; block for them.
            while got < EPOCHS as u64 {
                my_mb.recv(&ctx).expect("pulse ring closed early");
                got += 1;
            }
            pulses.fetch_add(got, Ordering::Relaxed);
            target.drain(&ctx);
        });
    }

    let start = Instant::now();
    let end = ss.run().expect("cluster_day failed");
    let wall = start.elapsed().as_secs_f64();

    let mut merged: Option<MetricsReport> = None;
    for i in 0..cfg.shards {
        let r = ss.sim(i).metrics().report();
        match merged.as_mut() {
            Some(m) => m.merge(&r),
            None => merged = Some(r),
        }
    }
    let merged = merged.expect("at least one shard");
    let migrations = merged
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("workload.seg") && k.ends_with(".migrations"))
        .map(|(_, v)| *v)
        .sum();
    CdRun {
        decisions: schedulers.iter().map(cpe::Gs::decisions_json).collect(),
        metrics_json: merged.to_json(),
        trace_events,
        kernel_events: ss.events_processed(),
        migrations,
        pulses: pulses_total.load(Ordering::Relaxed),
        wall_secs: wall,
        sim_secs: end.as_secs_f64(),
    }
}

/// Hosts per segment of the standard scenario.
pub const CD_HOSTS_PER_SEGMENT: usize = 128;
