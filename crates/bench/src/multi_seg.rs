//! multi_segment — the routed worknet under storm churn, 2 → 8 segments.
//!
//! Two claims are measured and gated:
//!
//! * **Store-and-forward is charged per hop.** On a quiet three-segment
//!   chain, a blocking transfer is timed intra-segment, across one
//!   gateway link, and across two; each measured time must match the
//!   analytic sum of its [`worknet::Topology::path`] hops (latency plus
//!   wire occupancy per hop) and the sequence must be strictly
//!   monotonic in hop count.
//! * **Policies prefer intra-segment targets at equal load.** A sweep of
//!   chain topologies (2, 4, 8 segments × [`HOSTS_PER_SEGMENT`] hosts)
//!   runs sched_scale-style churn waves where one host per segment goes
//!   hot and every cold host steps to the *same* sub-threshold load — so
//!   all destinations tie on score and only the segment-distance
//!   tie-break distinguishes them. Replaying the decision log against the
//!   unit→host map yields the fraction of migrations that stayed inside
//!   the source segment; the gate requires a clear majority (symmetry
//!   makes it ~1.0 in practice).
//!
//! Every size runs three times — twice identically and once with the
//! carrier pool capped at 2 idle threads — and the decision logs plus
//! metrics JSON must be byte-identical across all three, extending the
//! replay-identity guarantee to routed clusters. The root package's
//! `tests/gates.rs` asserts the gates.

use cpe::MigrationTarget;
use parking_lot::Mutex;
use pvm_rt::{MigrationOutcome, Tid};
use simcore::{Sim, SimCtx, SimTime};
use std::collections::HashMap;
use std::sync::Arc;
use worknet::{Calib, Cluster, HostId, HostSpec, LinkCalib, LoadTrace, SegmentId, Topology};

/// Hosts per segment in the churn sweep (one hot, the rest cold).
pub const HOSTS_PER_SEGMENT: usize = 4;

/// Segment counts the sweep measures.
pub const SEGMENT_COUNTS: &[usize] = &[2, 4, 8];

/// Churn waves per run.
pub const ROUNDS: usize = 6;

/// Relative tolerance of measured vs analytic per-hop cost.
pub const HOP_COST_TOLERANCE: f64 = 1e-6;

/// One quiet-net routed transfer: measured blocking time vs the analytic
/// per-hop sum.
#[derive(Debug, Clone)]
pub struct HopCost {
    /// Store-and-forward hops the route takes (1 = same segment).
    pub hops: usize,
    /// Virtual duration of `transfer_blocking`, seconds.
    pub measured_s: f64,
    /// Σ per-hop (latency + wire occupancy), seconds.
    pub analytic_s: f64,
}

/// Time a blocking transfer of `bytes` from `src` to `dst` on an
/// otherwise idle routed net, alongside its analytic hop sum.
fn hop_cost(net: &Topology, src: HostId, dst: HostId, bytes: usize) -> HopCost {
    let path = net.path(src, dst);
    let analytic_s = path
        .iter()
        .map(|h| h.latency.as_secs_f64() + bytes as f64 / h.bps)
        .sum();
    let sim = Sim::new();
    let net2 = net.clone();
    let out = Arc::new(Mutex::new(0.0));
    let out2 = Arc::clone(&out);
    sim.spawn("hop-cost", move |ctx| {
        let t0 = ctx.now();
        net2.transfer_blocking(&ctx, src, dst, bytes, 1.0);
        *out2.lock() = ctx.now().since(t0).as_secs_f64();
    });
    sim.run().expect("hop cost run failed");
    let measured_s = *out.lock();
    HopCost {
        hops: path.len(),
        measured_s,
        analytic_s,
    }
}

/// Measure the store-and-forward ladder on a quiet three-segment chain:
/// one intra-segment transfer, one across a gateway link, one across two.
pub fn measure_store_forward(bytes: usize) -> Vec<HopCost> {
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    for name in ["a", "b", "c"] {
        b.segment(
            name,
            (0..2)
                .map(|i| HostSpec::hp720(format!("{name}{i}")))
                .collect(),
        );
    }
    b.link(SegmentId(0), SegmentId(1), LinkCalib::bridged_ether());
    b.link(SegmentId(1), SegmentId(2), LinkCalib::bridged_ether());
    let cluster = b.build();
    let net = cluster.net();
    vec![
        hop_cost(net, HostId(0), HostId(1), bytes),
        hop_cost(net, HostId(1), HostId(3), bytes),
        hop_cost(net, HostId(1), HostId(5), bytes),
    ]
}

/// A deferred GS drain hook (what `MigrationTarget::on_drain` receives).
type DrainHook = Box<dyn FnOnce(&SimCtx) + Send>;

/// An in-memory unit→host migration target (instant, always succeeds):
/// the sweep measures where the scheduler *sends* units, not what a
/// migration system charges to move them.
struct SegTarget {
    units: Mutex<HashMap<Tid, HostId>>,
    hooks: Mutex<Vec<DrainHook>>,
}

impl SegTarget {
    fn new(hot: &[HostId], units_per_hot: usize) -> Arc<Self> {
        let mut units = HashMap::new();
        for &h in hot {
            for j in 0..units_per_hot {
                units.insert(Tid::new(h, j as u32 + 1), h);
            }
        }
        Arc::new(SegTarget {
            units: Mutex::new(units),
            hooks: Mutex::new(Vec::new()),
        })
    }

    fn drain(&self, ctx: &SimCtx) {
        for hook in self.hooks.lock().drain(..) {
            hook(ctx);
        }
    }
}

impl MigrationTarget for SegTarget {
    fn kind(&self) -> &'static str {
        "synthetic"
    }
    fn units_on(&self, host: HostId) -> Vec<Tid> {
        let mut v: Vec<Tid> = self
            .units
            .lock()
            .iter()
            .filter(|(_, h)| **h == host)
            .map(|(t, _)| *t)
            .collect();
        v.sort();
        v
    }
    fn can_migrate(&self, _unit: Tid, _dst: HostId) -> bool {
        true
    }
    fn migrate(&self, _ctx: &SimCtx, unit: Tid, dst: HostId) -> MigrationOutcome {
        self.units.lock().insert(unit, dst);
        MigrationOutcome::Completed { new_tid: unit }
    }
    fn on_drain(&self, f: Box<dyn FnOnce(&SimCtx) + Send>) {
        self.hooks.lock().push(f);
    }
}

/// The observables of one churn run at one segment count.
struct SegRun {
    decisions_json: Vec<String>,
    metrics_json: String,
    decisions: usize,
    intra: usize,
}

/// One churn wave hits at `10 + 5k` seconds; every host transitions.
fn wave_time(k: usize) -> SimTime {
    SimTime((10 + 5 * k as u64) * 1_000_000_000)
}

/// Run storm churn on a chain of `segments` segments. The second host of
/// every segment goes hot (above the 1.5 threshold, value varying per
/// wave); every cold host steps to the *same* wave-dependent value, so
/// destinations tie on score and only segment distance breaks the tie.
fn seg_run(segments: usize, rounds: usize, idle_carriers: Option<usize>) -> SegRun {
    let mut b = Cluster::builder(Calib::hp720_ethernet());
    let mut sids = Vec::new();
    for s in 0..segments {
        let specs = (0..HOSTS_PER_SEGMENT)
            .map(|i| {
                let h = s * HOSTS_PER_SEGMENT + i;
                let steps: Vec<(SimTime, f64)> = (0..rounds)
                    .map(|k| {
                        let load = if i == 1 {
                            2.0 + 0.1 * ((h + k) % 4) as f64
                        } else {
                            // Identical across every cold host: the tie
                            // the segment-distance preference must break.
                            0.2 + 0.1 * (k % 3) as f64
                        };
                        (wave_time(k), load)
                    })
                    .collect();
                HostSpec::hp720(format!("s{s}h{i}")).with_load(LoadTrace::steps(steps))
            })
            .collect();
        let (sid, _) = b.segment(format!("seg{s}"), specs);
        sids.push(sid);
    }
    for w in sids.windows(2) {
        b.link(w[0], w[1], LinkCalib::fddi_backbone());
    }
    let cluster = Arc::new(b.with_metrics().build());
    if let Some(cap) = idle_carriers {
        cluster.sim.set_max_idle_carriers(cap);
    }
    let hot: Vec<HostId> = (0..segments)
        .map(|s| HostId(s * HOSTS_PER_SEGMENT + 1))
        .collect();
    // Enough units that a hot host never runs dry mid-sweep.
    let target = SegTarget::new(&hot, rounds + 2);
    let gs = cpe::Gs::builder(&cluster)
        .target(Arc::clone(&target) as Arc<dyn MigrationTarget>)
        .policy(cpe::load_threshold(1.5))
        .spawn();
    let t_end = wave_time(rounds) + simcore::SimDuration::from_secs(10);
    let driver_target = Arc::clone(&target);
    cluster.sim.spawn("seg-driver", move |ctx| {
        ctx.advance(t_end.since(SimTime::ZERO));
        driver_target.drain(&ctx);
    });
    let end = cluster.sim.run().expect("multi_segment run failed");
    let report = cluster.metrics_report(end.since(SimTime::ZERO));

    // Replay the decision log against the unit→host map to count the
    // migrations that stayed inside the source's segment.
    let net = cluster.net();
    let mut at: HashMap<Tid, HostId> = HashMap::new();
    for &h in &hot {
        for j in 0..rounds + 2 {
            at.insert(Tid::new(h, j as u32 + 1), h);
        }
    }
    let decisions = gs.decisions();
    let mut intra = 0;
    for d in decisions.iter() {
        let src = *at.get(&d.unit).expect("decision for unknown unit");
        if net.segment_of(src) == net.segment_of(d.dst) {
            intra += 1;
        }
        at.insert(d.unit, d.dst);
    }
    SegRun {
        decisions_json: decisions.iter().map(|d| d.to_json()).collect(),
        metrics_json: report.to_json(),
        decisions: decisions.len(),
        intra,
    }
}

/// One measured segment count of the sweep.
#[derive(Debug, Clone)]
pub struct SegCell {
    /// Segments in the chain.
    pub segments: usize,
    /// Scheduler decisions taken.
    pub decisions: usize,
    /// Decisions whose destination shared the source's segment.
    pub intra: usize,
    /// Whether the second identical run *and* the capped-carrier-pool run
    /// both produced byte-identical decision logs and metrics JSON.
    pub replay_identical: bool,
}

impl SegCell {
    /// Fraction of migrations that stayed intra-segment.
    pub fn intra_fraction(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.intra as f64 / self.decisions as f64
        }
    }
}

/// Run the sweep: every [`SEGMENT_COUNTS`] entry three times (twice
/// identical, once with the carrier pool capped at 2).
pub fn measure_multi_segment() -> Vec<SegCell> {
    SEGMENT_COUNTS
        .iter()
        .map(|&segments| {
            let a = seg_run(segments, ROUNDS, None);
            let b = seg_run(segments, ROUNDS, None);
            let c = seg_run(segments, ROUNDS, Some(2));
            let replay_identical = a.decisions_json == b.decisions_json
                && a.metrics_json == b.metrics_json
                && a.decisions_json == c.decisions_json
                && a.metrics_json == c.metrics_json;
            SegCell {
                segments,
                decisions: a.decisions,
                intra: a.intra,
                replay_identical,
            }
        })
        .collect()
}
