//! The global scheduler (GS).
//!
//! "All of our systems assume the presence of a network-wide 'global'
//! scheduler that embodies decision-making policies for sensibly
//! scheduling multiple parallel jobs" and initiates migrations by
//! signalling the daemons (§2.0). The GS here is pure mechanism: it
//! consumes monitor events, dispatches them to a pluggable
//! [`SchedulingPolicy`], executes the returned [`Placement`]s, and keeps
//! the retry/blacklist and decision-log bookkeeping.
//!
//! Construct one with [`Gs::builder`]: register one or more
//! [`MigrationTarget`]s, pick a policy (a `Box<dyn SchedulingPolicy>`
//! from constructors like [`crate::owner_reclaim`] or
//! [`crate::rebalance`]), and `spawn()`. The returned [`Gs`] handle
//! exposes the [decision log](Gs::decisions) and the
//! [metrics registry](Gs::metrics) the scheduler records into.
//!
//! A policy whose [`SchedulingPolicy::decentralized`] hook returns a
//! config ([`crate::decentralized_gossip`]) spawns per-host local
//! schedulers instead of the central loop.

use crate::index::LoadIndex;
use crate::monitor::{Load, Monitor, MonitorEvent, MonitorHandle};
use crate::policy::{
    owner_reclaim, seed_index, ClusterView, Placement, SchedulingPolicy, ViewState, MAX_REDECISIONS,
};
use crate::target::MigrationTarget;
use parking_lot::Mutex;
use simcore::{sim_trace, Mailbox, Metrics, SimCtx};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use worknet::{Cluster, HostId};

/// A record of one decision, for tests and reports.
#[derive(Debug, Clone)]
pub struct Decision {
    /// When the decision was made.
    pub at: simcore::SimTime,
    /// What prompted it.
    pub event: MonitorEvent,
    /// Unit ordered to move.
    pub unit: pvm_rt::Tid,
    /// Destination chosen.
    pub dst: HostId,
    /// How the migration system answered the order.
    pub outcome: pvm_rt::MigrationOutcome,
}

impl Decision {
    /// Render the decision as one deterministic JSON object (the same
    /// hand-rolled dialect as [`simcore::MetricsReport::to_json`]).
    pub fn to_json(&self) -> String {
        self.json_line(&event_label(&self.event))
    }

    /// Render a whole decision log, one [`Decision::to_json`] line per
    /// decision. One monitor event usually prompts a run of consecutive
    /// decisions, and a `LoadBatch` label spells out every host in the
    /// batch, so the label is rendered once per run of equal events, not
    /// once per decision.
    pub fn log_to_json(log: &[Decision]) -> Vec<String> {
        let mut lines = Vec::with_capacity(log.len());
        let mut labelled: Option<&MonitorEvent> = None;
        let mut label = String::new();
        for d in log {
            if labelled != Some(&d.event) {
                label = event_label(&d.event);
                labelled = Some(&d.event);
            }
            lines.push(d.json_line(&label));
        }
        lines
    }

    /// The JSON line of this decision, given its event's label.
    fn json_line(&self, event: &str) -> String {
        let outcome = match &self.outcome {
            pvm_rt::MigrationOutcome::Completed { new_tid } => {
                format!("{{\"completed\": \"{new_tid}\"}}")
            }
            pvm_rt::MigrationOutcome::Failed { error } => {
                format!("{{\"failed\": \"{error}\"}}")
            }
        };
        format!(
            "{{\"at_ns\": {}, \"event\": \"{event}\", \"unit\": \"{}\", \"dst\": {}, \"outcome\": {outcome}}}",
            self.at.as_nanos(),
            self.unit,
            self.dst.0,
        )
    }
}

/// The `"event"` label of a decision line.
fn event_label(event: &MonitorEvent) -> String {
    match event {
        MonitorEvent::OwnerActive(h) => format!("owner_active:{}", h.0),
        MonitorEvent::OwnerAway(h) => format!("owner_away:{}", h.0),
        MonitorEvent::LoadChanged(h, l) => format!("load_changed:{}:{}", h.0, l),
        MonitorEvent::LoadBatch(batch) => {
            let mut label = String::from("load_batch:");
            for (i, (h, l)) in batch.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(label, "{sep}{}:{}", h.0, l).expect("writing to a String");
            }
            label
        }
        MonitorEvent::Tick => "tick".to_string(),
    }
}

/// The running GS handle.
pub struct Gs {
    pub(crate) decisions: Arc<Mutex<Vec<Decision>>>,
    pub(crate) metrics: Metrics,
    pub(crate) monitor: MonitorHandle,
    /// Real (wall-clock) nanoseconds spent inside `policy.decide`, and
    /// the number of decide calls. Plain atomics, deliberately *outside*
    /// the metrics registry: wall time is nondeterministic and must never
    /// leak into replay-identical reports. The `sched_scale` bench reads
    /// these to prove per-decision cost stays flat as the cluster grows.
    pub(crate) decide_wall_ns: Arc<AtomicU64>,
    pub(crate) decide_calls: Arc<AtomicU64>,
    /// The central scheduler's event mailbox; `None` in decentralized
    /// mode, which has no central loop to feed.
    pub(crate) feed: Option<Mailbox<MonitorEvent>>,
}

/// Configures a global scheduler before it spawns; see [`Gs::builder`].
pub struct GsBuilder<'a> {
    cluster: &'a Arc<Cluster>,
    targets: Vec<Arc<dyn MigrationTarget>>,
    policy: Box<dyn SchedulingPolicy>,
    name: String,
}

impl GsBuilder<'_> {
    /// Add one application for the GS to manage ("decision-making
    /// policies for sensibly scheduling multiple parallel jobs", §2.0).
    /// Call repeatedly to schedule several applications at once; the GS
    /// shuts down when the *last* one drains.
    pub fn target(mut self, target: Arc<dyn MigrationTarget>) -> Self {
        self.targets.push(target);
        self
    }

    /// Set the scheduling policy (default: [`crate::owner_reclaim`]).
    pub fn policy(mut self, policy: Box<dyn SchedulingPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Name the scheduler actor (default `"global-scheduler"`). Required
    /// when several per-segment schedulers share one simulation — e.g. a
    /// sharded run collapsed to one shard, where every segment's GS lands
    /// in the same world and actor names must stay unique. The GS always
    /// runs on its cluster's sim, so in a sharded run it is pinned to the
    /// shard that cluster was built on.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Install the monitor and spawn the scheduler — the central GS
    /// actor, or one local scheduler per host when the policy is
    /// [decentralized](SchedulingPolicy::decentralized).
    ///
    /// # Panics
    ///
    /// If no [`target`](GsBuilder::target) was registered — a GS with
    /// nothing to schedule would keep the simulation alive forever.
    pub fn spawn(self) -> Gs {
        let GsBuilder {
            cluster,
            targets,
            mut policy,
            name,
        } = self;
        assert!(
            !targets.is_empty(),
            "GsBuilder::spawn: register at least one migration target"
        );
        if let Some(cfg) = policy.decentralized() {
            return crate::local::spawn_decentralized(cluster, targets, cfg);
        }
        let mb: Mailbox<MonitorEvent> = Mailbox::new();
        let mut monitor = Monitor::builder(cluster);
        if let Some(period) = policy.tick_period() {
            monitor = monitor.ticks(period);
        }
        let monitor = monitor.install(&mb);
        let decisions = Arc::new(Mutex::new(Vec::new()));
        // Shut down when the last application finishes.
        let remaining = Arc::new(std::sync::atomic::AtomicUsize::new(targets.len()));
        for t in &targets {
            let mb_close = mb.clone();
            let remaining = Arc::clone(&remaining);
            let monitor = monitor.clone();
            t.on_drain(Box::new(move |ctx| {
                if remaining.fetch_sub(1, std::sync::atomic::Ordering::SeqCst) == 1 {
                    monitor.shutdown();
                    mb_close.close(ctx);
                }
            }));
        }
        let feed = mb.clone();
        let cluster2 = Arc::clone(cluster);
        let dec = Arc::clone(&decisions);
        let decide_wall_ns = Arc::new(AtomicU64::new(0));
        let decide_calls = Arc::new(AtomicU64::new(0));
        let wall = Arc::clone(&decide_wall_ns);
        let calls = Arc::clone(&decide_calls);
        cluster.sim.spawn(name, move |ctx| {
            let mut owner_active: HashSet<HostId> = HashSet::new();
            // The persistent destination index: seeded once from ground
            // truth, then kept current by monitor load deltas and
            // post-migration residency refreshes. Every view of this run
            // borrows it — no per-decision rebuild, no cloning.
            let index = Mutex::new(LoadIndex::new(cluster2.hosts().len()));
            seed_index(&mut index.lock(), ctx.now(), &cluster2, &targets);
            // A non-load event popped while draining load reports; it is
            // handled on the next iteration, after the folded batch.
            let mut pending: Option<MonitorEvent> = None;
            while let Some(ev) = pending.take().or_else(|| mb.recv(&ctx)) {
                // Drain the mailbox of queued load reports before
                // deciding: N stale reports fold — newest observation per
                // host wins, as in a gossip merge — into one batch and
                // cost one decide pass, not N.
                let ev = if is_load_report(&ev) {
                    let mut folded: BTreeMap<HostId, Load> = BTreeMap::new();
                    absorb_load_report(ev, &mut folded);
                    while let Some(next) = mb.try_recv() {
                        if is_load_report(&next) {
                            absorb_load_report(next, &mut folded);
                        } else {
                            pending = Some(next);
                            break;
                        }
                    }
                    let mut ix = index.lock();
                    for (&h, &l) in &folded {
                        ix.set_external(h, l.0);
                    }
                    drop(ix);
                    if folded.len() == 1 {
                        let (&h, &l) = folded.iter().next().unwrap();
                        MonitorEvent::LoadChanged(h, l)
                    } else {
                        MonitorEvent::LoadBatch(folded.into_iter().collect())
                    }
                } else {
                    ev
                };
                sim_trace!(ctx, "gs.event", "{ev:?}");
                match &ev {
                    MonitorEvent::OwnerActive(h) => {
                        owner_active.insert(*h);
                    }
                    MonitorEvent::OwnerAway(h) => {
                        owner_active.remove(h);
                    }
                    _ => {}
                }
                // One ViewState spans the whole event: it carries which
                // units landed (or got stuck) and the per-unit blacklist
                // across successive decide calls. Each call gets a fresh
                // view over the shared index, so destination scores
                // reflect migrations that already happened this event.
                let state = ViewState::new();
                loop {
                    let view = ClusterView::with_index(
                        &ctx,
                        &cluster2,
                        &targets,
                        &owner_active,
                        &state,
                        &index,
                    );
                    let t0 = std::time::Instant::now();
                    let placements = policy.decide(&view, &ev);
                    wall.fetch_add(t0.elapsed().as_nanos() as u64, AtomicOrdering::Relaxed);
                    calls.fetch_add(1, AtomicOrdering::Relaxed);
                    drop(view);
                    if placements.is_empty() {
                        break;
                    }
                    for p in placements {
                        let (src, dst) = (p.src, p.dst);
                        execute(&ctx, &targets, &state, &ev, &dec, p);
                        // A migration (even a failed one) may have moved
                        // residency: refresh both endpoints in place.
                        let mut ix = index.lock();
                        for h in [src, dst] {
                            let units: usize = targets.iter().map(|t| t.units_count(h)).sum();
                            ix.set_residency(h, units, cluster2.host(h).memory_overcommit());
                        }
                    }
                }
            }
        });
        Gs {
            decisions,
            metrics: cluster.metrics(),
            monitor,
            decide_wall_ns,
            decide_calls,
            feed: Some(feed),
        }
    }
}

/// Is this event a load report the drain loop may fold?
fn is_load_report(ev: &MonitorEvent) -> bool {
    matches!(
        ev,
        MonitorEvent::LoadChanged(..) | MonitorEvent::LoadBatch(_)
    )
}

/// Fold one load report into the per-host newest-wins map. Later calls
/// overwrite earlier ones, so queue order decides freshness — exactly the
/// order the monitor delivered the observations in.
fn absorb_load_report(ev: MonitorEvent, folded: &mut BTreeMap<HostId, Load>) {
    match ev {
        MonitorEvent::LoadChanged(h, l) => {
            folded.insert(h, l);
        }
        MonitorEvent::LoadBatch(batch) => {
            for (h, l) in batch {
                folded.insert(h, l);
            }
        }
        _ => unreachable!("absorb_load_report: not a load report"),
    }
}

impl Gs {
    /// Start configuring a global scheduler over `cluster`.
    pub fn builder(cluster: &Arc<Cluster>) -> GsBuilder<'_> {
        GsBuilder {
            cluster,
            targets: Vec::new(),
            policy: owner_reclaim(),
            name: "global-scheduler".into(),
        }
    }

    /// Decisions taken so far (or over the whole run, after it ends).
    pub fn decisions(&self) -> Vec<Decision> {
        self.decisions.lock().clone()
    }

    /// The decision log so far as JSON lines ([`Decision::log_to_json`]),
    /// rendered from the log in place rather than from a clone of it.
    pub fn decisions_json(&self) -> Vec<String> {
        Decision::log_to_json(&self.decisions.lock())
    }

    /// Wall-clock cost of the policy's decide calls so far: `(total
    /// nanoseconds, calls)`. Measured with a real clock around each
    /// `decide` — this is host CPU time, not simulated time, so it never
    /// appears in metrics reports; the decentralized mode (no central
    /// decide loop) reports zeros.
    pub fn decide_wall(&self) -> (u64, u64) {
        (
            self.decide_wall_ns.load(AtomicOrdering::Relaxed),
            self.decide_calls.load(AtomicOrdering::Relaxed),
        )
    }

    /// The metrics registry the GS (and the whole cluster) records into.
    pub fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }

    /// The monitor feeding this scheduler.
    pub fn monitor(&self) -> &MonitorHandle {
        &self.monitor
    }

    /// The central scheduler's event mailbox, for driving it from sources
    /// other than the installed monitor — e.g. a [`crate::LoadFeed`]
    /// replaying a trace-driven workload. `None` in decentralized mode.
    pub fn feed(&self) -> Option<&Mailbox<MonitorEvent>> {
        self.feed.as_ref()
    }
}

/// Execute one placement: drive the migration, record the decision, and
/// feed the verdict back into the per-event state. Tracked placements
/// that fail get their destination blacklisted and count toward the
/// unit's [`MAX_REDECISIONS`] budget — the next `decide` call re-places
/// them; untracked ones are done either way.
fn execute(
    ctx: &SimCtx,
    targets: &[Arc<dyn MigrationTarget>],
    state: &ViewState,
    event: &MonitorEvent,
    decisions: &Arc<Mutex<Vec<Decision>>>,
    p: Placement,
) {
    let metrics = ctx.metrics();
    let target = &targets[p.target];
    let t0 = state.take_charge_started();
    if p.tracked {
        sim_trace!(
            ctx,
            "gs.migrate",
            "{} {} {} -> {}",
            target.kind(),
            p.unit,
            p.src,
            p.dst
        );
    } else {
        // An untracked placement is opportunistic: record the verdict but
        // don't retry — the next tick re-evaluates from scratch.
        sim_trace!(
            ctx,
            "gs.rebalance",
            "{} {} {} -> {}",
            target.kind(),
            p.unit,
            p.src,
            p.dst
        );
    }
    let outcome = target.migrate(ctx, p.unit, p.dst);
    if p.tracked {
        if let Some(t0) = t0 {
            // Decision latency: placement cost plus the migration
            // system's own answer time.
            metrics.histogram_record("gs.decision_ns", ctx.now().since(t0));
        }
    }
    let completed = outcome.is_completed();
    let unit_gone = matches!(
        outcome.error(),
        Some(pvm_rt::PvmError::NoSuchTask(t)) if *t == p.unit
    );
    if let Some(err) = outcome.error() {
        sim_trace!(
            ctx,
            "gs.migrate.failed",
            "{} {} {} -> {}: {err}",
            target.kind(),
            p.unit,
            p.src,
            p.dst
        );
    }
    decisions.lock().push(Decision {
        at: ctx.now(),
        event: event.clone(),
        unit: p.unit,
        dst: p.dst,
        outcome,
    });
    if completed || unit_gone || !p.tracked {
        // Landed, exited between the monitor event and the order, or
        // opportunistic: either way, no further placements this event.
        state.mark_handled(p.target, p.src, p.unit);
        return;
    }
    // Failure feedback loop: blacklist the destination and let the policy
    // re-decide, up to MAX_REDECISIONS attempts per unit.
    state.blacklist(p.unit, p.dst);
    if state.bump_attempts(p.unit) >= MAX_REDECISIONS {
        sim_trace!(
            ctx,
            "gs.stuck",
            "{} on {}: no eligible destination",
            p.unit,
            p.src
        );
        state.mark_handled(p.target, p.src, p.unit);
    } else {
        metrics.counter_add("gs.redecisions", 1);
    }
}
