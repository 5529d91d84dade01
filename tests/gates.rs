//! The exact gates of the reproduction: every property here is a pure
//! function of the simulated program — replay byte-identity, 1-shard ≡
//! sequential kernel, shard-count invariance, capped-carrier-pool identity,
//! and the virtual-time ratios and counts the scheduling, routing and
//! migration designs promise. None of them reads a clock; host cost is
//! measured by `benchmark/`, not asserted here.
//!
//! Scenarios come from `bench_tables` at sizes chosen for a debug build.
//! Runs that several tests inspect are computed once behind a `OnceLock`.

use adaptive_pvm::opt::{run_mpvm_opt, run_mpvm_opt_sharded, RunStats};
use adaptive_pvm::simcore::ShardedSim;
use adaptive_pvm::worknet::Calib;
use bench_tables::cluster_day::{cluster_day_run, CdConfig, CdRun, CD_HOSTS_PER_SEGMENT};
use bench_tables::multi_seg::{
    measure_multi_segment, measure_store_forward, HopCost, SegCell, HOP_COST_TOLERANCE,
};
use bench_tables::par_kernel::{gossip_two_seg, par_storm, ParRun, GOSSIP_ROUNDS, PAR_SEGMENTS};
use bench_tables::scale::{measure_sched_scale, ScaleCell};
use bench_tables::scenarios::{
    day_in_the_life, figure1_scenario, policy_day_cell, policy_storm_cell, storm_run, DayConfig,
    DayRun, PolicyCell, StormRun, POLICIES,
};
use proptest::prelude::*;
use std::sync::OnceLock;

// ---- figure 1: the MPVM migration protocol run -------------------------

fn figure1_sequential() -> &'static RunStats {
    static RUN: OnceLock<RunStats> = OnceLock::new();
    RUN.get_or_init(|| {
        let (cfg, plan) = figure1_scenario();
        run_mpvm_opt(Calib::hp720_ethernet(), &cfg, &plan)
    })
}

fn trace_lines(r: &RunStats) -> Vec<String> {
    r.trace.iter().map(|e| e.to_string()).collect()
}

#[test]
fn figure1_replays_identically() {
    let a = figure1_sequential();
    assert!(
        a.trace.iter().any(|e| e.tag == "mpvm.resumed"),
        "the gate-sized run must contain the migration"
    );
    let (cfg, plan) = figure1_scenario();
    let b = run_mpvm_opt(Calib::hp720_ethernet(), &cfg, &plan);
    assert_eq!(a.events, b.events);
    assert_eq!(a.wall, b.wall);
    assert_eq!(trace_lines(a), trace_lines(&b));
}

#[test]
fn figure1_one_shard_matches_sequential() {
    let seq = figure1_sequential();
    let (cfg, plan) = figure1_scenario();
    let ss = ShardedSim::new(1);
    let par = run_mpvm_opt_sharded(&ss, Calib::hp720_ethernet(), &cfg, &plan);
    assert_eq!(seq.wall, par.wall);
    assert_eq!(seq.events, par.events);
    assert_eq!(seq.result.losses, par.result.losses);
    assert_eq!(trace_lines(seq), trace_lines(&par));
}

// ---- day in the life ----------------------------------------------------

fn gate_day() -> &'static DayRun {
    static RUN: OnceLock<DayRun> = OnceLock::new();
    RUN.get_or_init(|| day_in_the_life(&DayConfig::gate()))
}

fn metrics_json(r: &DayRun) -> String {
    r.metrics.as_ref().expect("metrics on").to_json()
}

fn decision_log(r: &DayRun) -> Vec<String> {
    r.gs_decisions.iter().map(|d| d.to_json()).collect()
}

#[test]
fn day_converges_and_records_migration_spans() {
    let r = gate_day();
    assert!(r.converged, "day-in-the-life training did not converge");
    let spans = r.metrics.as_ref().unwrap().spans_with_prefix("migrate:");
    assert!(
        !spans.is_empty(),
        "the gate day must overlap an owner session, or the replay gates compare nothing"
    );
}

#[test]
fn day_one_shard_matches_sequential() {
    let seq = gate_day();
    let par = day_in_the_life(&DayConfig {
        shards: 1,
        ..DayConfig::gate()
    });
    assert_eq!(seq.events, par.events);
    assert_eq!(seq.sim_end_secs, par.sim_end_secs);
    assert_eq!(metrics_json(seq), metrics_json(&par));
    assert_eq!(decision_log(seq), decision_log(&par));
}

/// `pvm.bytes.copied` of this exact run (1 MB set, 120 iterations, seed
/// 1994, 600 s horizon) under the deep-copy message plane the zero-copy
/// one replaced (copy-in pack, clone per unpack, clone per multicast
/// destination), recorded immediately before the replacement. The number is
/// only comparable to a run of the same configuration.
const DEEP_COPY_PLANE_COPIED_BYTES: u64 = 12_998_540;

#[test]
fn day_copied_bytes_at_most_half_the_deep_copy_plane() {
    let r = day_in_the_life(&DayConfig {
        seed: 1994,
        data_bytes: 1_000_000,
        iters: 120,
        ..DayConfig::gate()
    });
    let copied = r.metrics.as_ref().unwrap().counters["pvm.bytes.copied"];
    assert!(
        copied * 2 <= DEEP_COPY_PLANE_COPIED_BYTES,
        "pvm.bytes.copied {copied} is more than half of {DEEP_COPY_PLANE_COPIED_BYTES}"
    );
}

// ---- migration storm: chunked pre-copy vs monolithic stop-and-copy ------

fn storm_chunked() -> &'static StormRun {
    static RUN: OnceLock<StormRun> = OnceLock::new();
    RUN.get_or_init(|| storm_run(Calib::hp720_ethernet(), false, 0).0)
}

fn storm_monolithic() -> &'static StormRun {
    static RUN: OnceLock<StormRun> = OnceLock::new();
    RUN.get_or_init(|| storm_run(Calib::hp720_ethernet().monolithic_migration(), false, 0).0)
}

fn storm_severed() -> &'static (StormRun, String) {
    static RUN: OnceLock<(StormRun, String)> = OnceLock::new();
    RUN.get_or_init(|| storm_run(Calib::hp720_ethernet(), true, 0))
}

#[test]
fn storm_chunked_freeze_at_most_half_of_monolithic() {
    let ratio = storm_chunked().freeze_ns_mean / storm_monolithic().freeze_ns_mean.max(1.0);
    assert!(
        ratio <= 0.5,
        "chunked freeze only dropped to {ratio:.3} of monolithic"
    );
}

#[test]
fn storm_chunked_span_within_1_1x_of_monolithic() {
    let ratio = storm_chunked().migrate_ns_mean / storm_monolithic().migrate_ns_mean.max(1.0);
    assert!(
        ratio <= 1.1,
        "chunked migrate span regressed to {ratio:.3}x monolithic"
    );
}

#[test]
fn storm_severed_stream_resumes_chunks() {
    let (run, _) = storm_severed();
    assert!(run.chunks_resumed >= 1, "severed run resumed no chunks");
}

#[test]
fn storm_severed_replays_byte_identical() {
    let (_, json_a) = storm_severed();
    let (_, json_b) = storm_run(Calib::hp720_ethernet(), true, 0);
    assert_eq!(*json_a, json_b);
}

#[test]
fn storm_severed_one_shard_matches_sequential() {
    let (seq, json_seq) = storm_severed();
    let (par, json_par) = storm_run(Calib::hp720_ethernet(), true, 1);
    assert_eq!(seq.events, par.events);
    assert_eq!(seq.sim_secs, par.sim_secs);
    assert_eq!(*json_seq, json_par);
}

// ---- sharded kernel: two-segment gossip and the 8-segment ring storm ----

#[test]
fn two_segment_gossip_one_shard_matches_sequential() {
    let (m_seq, d_seq, end_seq) = gossip_two_seg(false);
    let (m_par, d_par, end_par) = gossip_two_seg(true);
    assert!(!d_seq.is_empty(), "gossip scenario made no decisions");
    assert_eq!(end_seq, end_par);
    assert_eq!(d_seq, d_par);
    assert_eq!(m_seq, m_par);
}

fn par_one_shard() -> &'static ParRun {
    static RUN: OnceLock<ParRun> = OnceLock::new();
    RUN.get_or_init(|| par_storm(1))
}

fn assert_same_virtual_time(a: &ParRun, b: &ParRun) {
    assert_eq!(a.decisions, b.decisions, "decision logs diverged");
    assert_eq!(a.events, b.events);
    assert_eq!(a.handoffs, b.handoffs);
    assert_eq!(a.gossip_msgs, b.gossip_msgs);
    assert_eq!(a.sim_secs, b.sim_secs);
}

/// A run at `shards` matches the 1-shard run on every virtual-time
/// observable, and a second run at the same count is byte-identical down
/// to the merged metrics JSON (which names the shards, so it is only
/// comparable within one count).
fn check_par_storm(shards: usize) {
    let a = par_storm(shards);
    assert_same_virtual_time(&a, par_one_shard());
    let again;
    let b = if shards == 1 {
        par_one_shard()
    } else {
        again = par_storm(shards);
        &again
    };
    assert_same_virtual_time(&a, b);
    assert_eq!(a.metrics_json, b.metrics_json);
}

#[test]
fn par_storm_does_scheduling_work_and_delivers_every_gossip_report() {
    let r = par_one_shard();
    assert!(
        r.decisions.iter().map(Vec::len).sum::<usize>() > 0,
        "the storm produced no scheduler decisions"
    );
    assert_eq!(r.gossip_msgs, 2 * GOSSIP_ROUNDS * PAR_SEGMENTS as u64);
}

#[test]
fn par_storm_replays_byte_identical_on_1_shard() {
    check_par_storm(1);
}

#[test]
fn par_storm_on_2_shards_replays_and_matches_1_shard() {
    check_par_storm(2);
}

#[test]
fn par_storm_on_4_shards_replays_and_matches_1_shard() {
    check_par_storm(4);
}

#[test]
fn par_storm_on_8_shards_replays_and_matches_1_shard() {
    check_par_storm(8);
}

// ---- trace-driven cluster day -------------------------------------------

fn observables(r: &CdRun) -> (&Vec<Vec<String>>, &String, u64, f64) {
    (&r.decisions, &r.metrics_json, r.trace_events, r.sim_secs)
}

fn cluster_day(shards: usize, max_idle_carriers: Option<usize>) -> CdRun {
    cluster_day_run(&CdConfig {
        shards,
        max_idle_carriers,
        ..CdConfig::sized(true, CD_HOSTS_PER_SEGMENT)
    })
}

fn cluster_day_one_shard() -> &'static CdRun {
    static RUN: OnceLock<CdRun> = OnceLock::new();
    RUN.get_or_init(|| cluster_day(1, None))
}

#[test]
fn cluster_day_does_scheduling_work() {
    let r = cluster_day_one_shard();
    assert!(r.migrations > 0, "the day produced no migrations");
    assert!(r.decisions.iter().map(Vec::len).sum::<usize>() > 0);
}

#[test]
fn cluster_day_replays_byte_identical_on_1_shard() {
    assert_eq!(
        observables(&cluster_day(1, None)),
        observables(cluster_day_one_shard())
    );
}

fn check_cluster_day(shards: usize) {
    let a = cluster_day(shards, None);
    assert_eq!(observables(&a), observables(&cluster_day(shards, None)));
    assert_eq!(observables(&a), observables(cluster_day_one_shard()));
}

#[test]
fn cluster_day_on_2_shards_replays_and_matches_1_shard() {
    check_cluster_day(2);
}

#[test]
fn cluster_day_on_4_shards_replays_and_matches_1_shard() {
    check_cluster_day(4);
}

#[test]
fn cluster_day_capped_carrier_pool_matches_uncapped() {
    assert_eq!(
        observables(&cluster_day(4, Some(2))),
        observables(cluster_day_one_shard())
    );
}

/// A tiny day: 4 segments × 8 hosts, a few hundred VPs.
fn tiny(seed: u64, shards: usize, max_idle_carriers: Option<usize>) -> CdConfig {
    CdConfig {
        seed,
        segments: 4,
        hosts_per_segment: 8,
        arrivals: 600,
        shards,
        max_idle_carriers,
    }
}

#[test]
fn tiny_day_does_real_scheduling_work() {
    let r = cluster_day_run(&tiny(7, 1, None));
    assert_eq!(r.trace_events, 1200);
    assert!(
        r.migrations > 0,
        "owner reclaim at hour 8 forces migrations"
    );
    assert!(r.decisions.iter().map(Vec::len).sum::<usize>() > 0);
    // One pulse per epoch per segment made it around the ring.
    assert_eq!(r.pulses, 96 * 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sharding is a wall-clock-only knob: 1, 2 and 4 shards replay the
    /// same day byte-for-byte.
    #[test]
    fn replay_is_identical_across_shard_counts(seed in 0u64..1000) {
        let base = cluster_day_run(&tiny(seed, 1, None));
        for shards in [2usize, 4] {
            let r = cluster_day_run(&tiny(seed, shards, None));
            prop_assert_eq!(observables(&r), observables(&base), "diverged at {} shards", shards);
        }
    }

    /// Capping the carrier pool reuses OS threads aggressively but must
    /// not move any virtual-time observable.
    #[test]
    fn replay_is_identical_with_capped_carrier_pool(seed in 0u64..1000) {
        let free = cluster_day_run(&tiny(seed, 2, None));
        let capped = cluster_day_run(&tiny(seed, 2, Some(1)));
        prop_assert_eq!(observables(&capped), observables(&free));
    }
}

// ---- scheduler scalability: 64 → 1024 hosts -----------------------------

fn sched_scale() -> &'static [ScaleCell] {
    static SWEEP: OnceLock<Vec<ScaleCell>> = OnceLock::new();
    SWEEP.get_or_init(measure_sched_scale)
}

#[test]
fn sched_scale_replays_identically_incl_capped_carrier_pool() {
    for c in sched_scale() {
        assert!(
            c.replay_identical,
            "{} hosts: decisions/metrics diverged across replays or carrier-pool sizes",
            c.hosts
        );
    }
}

#[test]
fn sched_scale_decision_count_is_constant_across_sizes() {
    let cells = sched_scale();
    assert!(cells[0].decisions > 0, "no decisions taken");
    for c in cells {
        assert_eq!(
            c.decisions, cells[0].decisions,
            "{} hosts: the decision workload is not constant",
            c.hosts
        );
    }
}

#[test]
fn sched_scale_decision_latency_within_2x_from_64_to_1024_hosts() {
    let cells = sched_scale();
    let (first, last) = (&cells[0], &cells[cells.len() - 1]);
    let ratio = last.decision_ns_mean / first.decision_ns_mean.max(1.0);
    assert!(
        ratio <= 2.0,
        "mean gs.decision_ns grew {ratio:.2}x from {} to {} hosts",
        first.hosts,
        last.hosts
    );
}

// ---- routed multi-segment worknet ---------------------------------------

/// The 1/3/4-hop ladder on a quiet three-segment chain at 300 kB.
fn hop_ladder() -> Vec<HopCost> {
    measure_store_forward(300_000)
}

#[test]
fn store_and_forward_cost_matches_analytic_hop_sums() {
    for h in hop_ladder() {
        let rel = (h.measured_s - h.analytic_s).abs() / h.analytic_s;
        assert!(
            rel < HOP_COST_TOLERANCE,
            "{}-hop route took {:.6}s vs analytic {:.6}s",
            h.hops,
            h.measured_s,
            h.analytic_s
        );
    }
}

#[test]
fn store_and_forward_cost_grows_with_every_hop() {
    let ladder = hop_ladder();
    for pair in ladder.windows(2) {
        assert!(
            pair[1].measured_s > pair[0].measured_s,
            "{}-hop route not slower than {}-hop",
            pair[1].hops,
            pair[0].hops
        );
    }
}

fn multi_segment() -> &'static [SegCell] {
    static SWEEP: OnceLock<Vec<SegCell>> = OnceLock::new();
    SWEEP.get_or_init(measure_multi_segment)
}

#[test]
fn multi_segment_replays_identically_incl_capped_carrier_pool() {
    for c in multi_segment() {
        assert!(
            c.replay_identical,
            "{} segments: decisions/metrics diverged across replays or carrier-pool sizes",
            c.segments
        );
    }
}

#[test]
fn multi_segment_majority_of_migrations_stay_intra_segment() {
    for c in multi_segment() {
        assert!(c.decisions > 0, "{} segments: no decisions", c.segments);
        assert!(
            c.intra_fraction() > 0.5,
            "{} segments: only {:.0}% of migrations stayed intra-segment",
            c.segments,
            c.intra_fraction() * 100.0
        );
    }
}

// ---- scheduling-policy ablation -----------------------------------------

fn policy_storm() -> &'static [PolicyCell] {
    static CELLS: OnceLock<Vec<PolicyCell>> = OnceLock::new();
    CELLS.get_or_init(|| POLICIES.iter().map(|p| policy_storm_cell(p)).collect())
}

#[test]
fn policy_storm_replays_byte_identical_under_every_policy() {
    for c in policy_storm() {
        assert!(c.replay_identical, "{} did not replay", c.policy);
    }
}

#[test]
fn policy_storm_leaves_no_failed_migration_unretried() {
    for c in policy_storm() {
        assert!(c.end_secs > 0.0, "{}: storm did not complete", c.policy);
        assert_eq!(c.failed_unretried, 0, "{}: stranded work", c.policy);
    }
}

#[test]
fn policy_storm_gossip_imbalance_within_1_5x_of_rebalance() {
    let imbalance = |p: &str| {
        let c = policy_storm().iter().find(|c| c.policy == p);
        c.expect("every policy runs the storm").imbalance
    };
    let (gossip, central) = (imbalance("decentralized_gossip"), imbalance("rebalance"));
    assert!(
        gossip <= 1.5 * central,
        "decentralized imbalance {gossip:.4} exceeds 1.5 x rebalance {central:.4}"
    );
}

fn check_policy_day(policy: &'static str) {
    assert!(
        policy_day_cell(policy).replay_identical,
        "{policy} day did not replay"
    );
}

#[test]
fn policy_day_replays_byte_identical_owner_reclaim() {
    check_policy_day("owner_reclaim");
}

#[test]
fn policy_day_replays_byte_identical_load_threshold() {
    check_policy_day("load_threshold");
}

#[test]
fn policy_day_replays_byte_identical_rebalance() {
    check_policy_day("rebalance");
}

#[test]
fn policy_day_replays_byte_identical_destination_swap() {
    check_policy_day("destination_swap");
}

#[test]
fn policy_day_replays_byte_identical_decentralized_gossip() {
    check_policy_day("decentralized_gossip");
}
