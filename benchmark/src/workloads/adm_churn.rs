//! `adm_churn` — ADMopt under alternating withdraw/rejoin events.
//!
//! Small-dim exemplars (68 bytes each, 150 000 of them) make the gradient
//! arithmetic tiny, so the host time is the ADM machinery: the
//! processed-flag store being reset, fragmented and reassembled, the
//! repartition planner, and the consensus rounds of every redistribution.

use super::{actor_intervals, layer_counts, mean, size_obj, Digest, Params, Replay, SimOut};
use crate::json::Json;
use crate::spans::span;
use opt_app::data::SplitMix64;
use opt_app::{run_adm_opt_on, run_sequential, AdmAction, AdmSchedule, OptConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use worknet::{Calib, Cluster};

const SLAVES: usize = 3;
/// Mean loss per iteration must match the sequential reference this
/// closely. Repartitioning regroups the f32 reductions, nothing more; a
/// lost or double-counted exemplar moves the mean by far more.
const LOSS_TOLERANCE: f64 = 1e-3;

struct Shape {
    data_bytes: usize,
    iterations: usize,
    /// Alternating withdraw / rejoin events.
    events: usize,
    /// Virtual seconds from one event slot to the next (each event lands a
    /// seeded eighth of a gap into its slot): longer than a redistribution
    /// of this much data takes, so a rejoin never races the withdrawal it
    /// undoes, and short enough that the iterations outlast the last event.
    gap_s: f64,
    /// Master-side replanning work per redistribution round.
    round_flops: f64,
}

fn shape(quick: bool) -> Shape {
    if quick {
        Shape {
            data_bytes: 1_020_000,
            iterations: 160,
            events: 4,
            gap_s: 2.0,
            round_flops: 4.5e6,
        }
    } else {
        Shape {
            data_bytes: 10_200_000,
            iterations: 70,
            events: 28,
            gap_s: 8.0,
            round_flops: 45.0e6,
        }
    }
}

fn cfg_for(p: &Params) -> OptConfig {
    let sh = shape(p.quick);
    let mut cfg = OptConfig::paper(sh.data_bytes, sh.iterations).with_adm_overhead();
    cfg.dim = 16;
    cfg.ncats = 4;
    cfg.nslaves = SLAVES;
    cfg.nhosts = SLAVES;
    cfg.adm_round_flops = sh.round_flops;
    cfg.seed = p.seed;
    cfg
}

pub fn sizes(quick: bool) -> Json {
    let sh = shape(quick);
    size_obj(&[
        ("data_bytes", sh.data_bytes as f64),
        ("dim", 16.0),
        ("ncats", 4.0),
        ("slaves", SLAVES as f64),
        ("iterations", sh.iterations as f64),
        ("events", sh.events as f64),
        ("event_gap_sim_s", sh.gap_s),
    ])
}

pub fn opt_configs(p: &Params) -> Vec<OptConfig> {
    vec![cfg_for(p)]
}

/// Withdraw slave 1, let it rejoin, withdraw slave 2, let it rejoin, …
fn schedule(seed: u64, sh: &Shape) -> Vec<AdmSchedule> {
    let mut rng = SplitMix64(seed ^ 0x00ad_0c42);
    (0..sh.events)
        .map(|k| AdmSchedule {
            at_secs: 1.0 + (k as f64 + rng.next_f64() / 8.0) * sh.gap_s,
            slave: 1 + (k / 2) % (SLAVES - 1),
            action: if k % 2 == 0 {
                AdmAction::Withdraw
            } else {
                AdmAction::Rejoin
            },
        })
        .collect()
}

pub fn run(p: &Params) -> Replay {
    let sh = shape(p.quick);
    let (iterations, events) = (sh.iterations, sh.events);
    let cfg = cfg_for(p);
    let t_setup = Instant::now();
    let sched = schedule(p.seed, &sh);
    let mut b = Cluster::builder(Calib::hp720_ethernet()).with_hosts(cfg.nhosts);
    if p.traced {
        b = b.with_metrics();
    }
    let cluster = Arc::new(b.build());
    let setup_s = t_setup.elapsed().as_secs_f64();

    // The runner generates its training set itself, so that cost sits
    // inside the window here (and in `opt.dataset_gen_s` of the ledger).
    let t_run = Instant::now();
    let r = span("opt.run_adm_opt_on", || {
        run_adm_opt_on(Arc::clone(&cluster), &cfg, &sched, None)
    });
    let wall_s = t_run.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let withdrawals = (events / 2) as u64;
    let (redist, open) = actor_intervals(&r.trace, "adm.event", "", "adm.redist.done");
    if redist.len() as u64 != withdrawals || open != 0 {
        failures.push(format!(
            "{} of {withdrawals} withdrawals redistributed, {open} left open",
            redist.len()
        ));
    }
    let rejoined = r.trace.iter().filter(|e| e.tag == "adm.rejoined").count() as u64;
    if rejoined != withdrawals {
        failures.push(format!("{rejoined} of {withdrawals} rejoins took effect"));
    }
    if r.result.losses.len() != iterations || r.result.final_loss() >= r.result.losses[0] {
        failures.push("training did not run every iteration to a lower loss".into());
    }
    // Exemplar conservation: every iteration of every partitioning must
    // have seen each exemplar exactly once, or its mean loss drifts from
    // the sequential run over the same data (computed once per process:
    // seed and sizes do not change between replays).
    static REFERENCE: OnceLock<Vec<f64>> = OnceLock::new();
    let reference = REFERENCE.get_or_init(|| run_sequential(&cfg).losses);
    let drift = r
        .result
        .losses
        .iter()
        .zip(reference)
        .map(|(a, b)| ((a - b) / b).abs())
        .fold(0.0, f64::max);
    if drift.partial_cmp(&LOSS_TOLERANCE) != Some(std::cmp::Ordering::Less) {
        failures.push(format!(
            "per-iteration loss drifts {drift:e} from the sequential reference: exemplars lost or duplicated"
        ));
    }

    let mut digest = Digest::new();
    digest.f64(r.wall).u64(r.result.checksum);
    for l in &r.result.losses {
        digest.f64(*l);
    }
    for &(t0, _, t1) in &redist {
        digest.u64(t0.as_nanos()).u64(t1.as_nanos());
    }
    let mut counts = BTreeMap::new();
    if p.traced {
        layer_counts(
            &cluster,
            simcore::SimTime::ZERO + simcore::SimDuration::from_secs_f64(r.wall),
            &mut counts,
        );
    }
    counts.insert("simcore.events", r.events as f64);
    counts.insert("adm.repartitions", (redist.len() as u64 + rejoined) as f64);
    let exemplars = cfg.data_bytes / opt_app::data::Exemplar::byte_size(cfg.dim);
    counts.insert("adm.exemplars", exemplars as f64);

    Replay {
        setup_s,
        wall_s,
        work_units: events as u64,
        // Loss curve, conservation.
        checks: 2,
        failures,
        sim: SimOut {
            makespan_s: r.wall,
            migrate_s: Some(mean(
                redist.iter().map(|&(t0, _, t1)| t1.since(t0).as_secs_f64()),
            )),
            freeze_s: None,
            paper_err_pct: None,
            digest: digest.finish(),
        },
        counts,
    }
}
