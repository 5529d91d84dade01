//! The metric tables: what the benchmark reports, in which unit and time
//! base, which direction is better, and what each per-layer number should
//! move. `BENCHMARK.json` repeats the names; the smoke test holds the two
//! together.

/// An end-to-end metric. `BENCHMARK.json` hands the driver the measured
/// ones — every workload has them and no run reads them as zero or as a
/// constant; the exact ones are checked for equality instead. Host seconds (`s`) are what the simulator costs
/// to run; simulated seconds (`sim_s`) are what the modelled 1994 worknet
/// would take.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Deterministic for a seed: compared for equality, never by bound.
    pub exact: bool,
    /// Share of the baseline median by which a measured metric may worsen.
    pub bound: f64,
}

const fn e(name: &'static str, unit: &'static str, lower: bool, exact: bool, bound: f64) -> E2e {
    E2e {
        name,
        unit,
        lower_is_better: lower,
        exact,
        bound,
    }
}

/// The host bounds are set by the host, not by the benchmark: replays
/// within one pinned run agree to 1–4 %, but the 2-CPU container this was
/// sized on drifts 10–16 % in level over tens of minutes (the same commit
/// read 2.07 s, then 2.28 s on `ulp_pingpong` half an hour apart), and a
/// bound below that calls drift a regression. Compare commits in
/// alternating pairs (`compare`), not across sessions.
pub const E2E: [E2e; 9] = [
    e("wall_s", "s", true, false, 0.20),
    e("work_per_s", "1/s", false, false, 0.20),
    e("setup_s", "s", true, false, 0.25),
    e("peak_rss_mb", "MB", true, false, 0.10),
    e("fail_share", "share", true, true, 0.0),
    e("sim_makespan_s", "sim_s", true, true, 0.0),
    e("sim_migrate_s", "sim_s", true, true, 0.0),
    e("sim_freeze_s", "sim_s", true, true, 0.0),
    e("paper_err_pct", "%", true, true, 0.0),
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Exact count the program exposes (or the benchmark's own bodies count).
    Count,
    /// Span recorded around the benchmark's own calls into the layer.
    Span,
    /// Timed probe over the layer's public functions.
    Probe,
    /// Computed from the others.
    Derived,
}

/// A per-layer metric.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub source: Source,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    lower: bool,
    source: Source,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        lower_is_better: lower,
        source,
        moves,
    }
}

use Source::{Count, Derived, Probe, Span};

// One row per metric: kept as a table.
#[rustfmt::skip]
pub const LAYERS: [Layer; 72] = [
    l("simcore.events", "count", true, Count, "wall_s of every workload, with ns_per_event"),
    l("simcore.ns_per_event", "ns", true, Derived, "= wall_s / events"),
    l("simcore.shard_handoffs", "count", true, Count, "cluster_day.wall_s"),
    l("simcore.handoff_ns", "ns", true, Probe, "ulp_pingpong.wall_s (nearly all of it), then migrate_storm"),
    l("simcore.handoff_share", "share", true, Derived, "upper bound: handoff_ns x events / wall_s"),
    l("simcore.self_advance_ns", "ns", true, Probe, "migrate_storm.wall_s"),
    l("simcore.mailbox_ns", "ns", true, Probe, "ulp_pingpong.wall_s, then migrate_storm"),
    l("simcore.spawn_ns", "ns", true, Probe, "cluster_day.wall_s"),
    l("simcore.metrics_on_ns", "ns", true, Probe, "cluster_day.wall_s"),
    l("simcore.metrics_off_ns", "ns", true, Probe, "every untraced wall_s (one relaxed load per site)"),
    l("worknet.wire_bytes", "bytes", true, Count, "sim_migrate_s; must stay exact"),
    l("worknet.fault_events", "count", true, Count, "input of migrate_storm, not a cost"),
    l("worknet.tcp_send_ns", "ns", true, Probe, "migrate_storm.wall_s"),
    l("worknet.tcp_events_per_mb", "count", true, Probe, "migrate_storm.wall_s"),
    l("worknet.route_ns", "ns", true, Probe, "migrate_storm.wall_s"),
    l("worknet.compute_slice_ns", "ns", true, Probe, "migrate_storm.wall_s"),
    l("worknet.compute_busy_s", "s", true, Span, "migrate_storm.wall_s"),
    l("pvm.msgs_sent", "count", true, Count, "ulp_pingpong.wall_s, migrate_storm.wall_s"),
    l("pvm.bytes_sent", "bytes", true, Count, "mcast_bulk.wall_s"),
    l("pvm.bytes_copied", "bytes", true, Count, "mcast_bulk.wall_s, peak_rss_mb"),
    l("pvm.copy_ratio", "ratio", true, Derived, "mcast_bulk.wall_s, peak_rss_mb (= copied / sent)"),
    l("pvm.bytes_per_msg", "bytes", true, Derived, "tells mcast_bulk from ulp_pingpong"),
    l("pvm.pack_ns_per_mb", "ns", true, Probe, "mcast_bulk.wall_s"),
    l("pvm.unpack_ns_per_mb", "ns", true, Probe, "mcast_bulk.wall_s, peak_rss_mb"),
    l("pvm.route_daemon_ns", "ns", true, Probe, "migrate_storm.wall_s"),
    l("pvm.route_direct_ns", "ns", true, Probe, "migrate_storm.wall_s"),
    l("pvm.pack_busy_s", "s", true, Span, "mcast_bulk.wall_s"),
    l("pvm.send_busy_s", "s", true, Span, "mcast_bulk.wall_s"),
    l("pvm.recv_wait_s", "s", true, Span, "mcast_bulk.wall_s"),
    l("pvm.bcast_busy_s", "s", true, Span, "mcast_bulk.wall_s"),
    l("mpvm.migrations", "count", false, Count, "denominator of host_us_per_migration"),
    l("mpvm.chunks_sent", "count", true, Count, "migrate_storm.wall_s, sim_migrate_s"),
    l("mpvm.chunks_resumed", "count", false, Count, "sim_migrate_s under severed streams"),
    l("mpvm.flushed_msgs", "count", true, Count, "migrate_storm.wall_s"),
    l("mpvm.events_per_migration", "count", true, Derived, "migrate_storm.wall_s"),
    l("mpvm.host_us_per_migration", "us", true, Derived, "= migrate_storm.wall_s / migrations"),
    l("mpvm.remap_hit_ns", "ns", true, Probe, "migrate_storm.wall_s"),
    l("mpvm.remap_miss_ns", "ns", true, Probe, "migrate_storm.wall_s"),
    l("mpvm.gate_check_ns", "ns", true, Probe, "migrate_storm.wall_s"),
    l("mpvm.inject_busy_s", "s", true, Span, "migrate_storm.wall_s"),
    l("upvm.local_handoffs", "count", false, Count, "denominator of host_ns_per_roundtrip"),
    l("upvm.host_ns_per_roundtrip", "ns", true, Derived, "= ulp_pingpong.wall_s / round trips"),
    l("upvm.sched_switch_ns", "ns", true, Probe, "ulp_pingpong.wall_s"),
    l("upvm.addr_alloc_ns", "ns", true, Probe, "ulp_pingpong.setup_s"),
    l("upvm.send_busy_s", "s", true, Span, "ulp_pingpong.wall_s"),
    l("upvm.recv_wait_s", "s", true, Span, "ulp_pingpong.wall_s"),
    l("adm.repartitions", "count", false, Count, "denominator of host_ms_per_repartition"),
    l("adm.consensus_rounds", "count", true, Count, "adm_churn.wall_s"),
    l("adm.host_ms_per_repartition", "ms", true, Derived, "= adm_churn.wall_s / repartitions"),
    l("adm.plan_ns", "ns", true, Probe, "adm_churn.wall_s"),
    l("adm.flags_reset_ns", "ns", true, Probe, "adm_churn.wall_s"),
    l("adm.flags_scan_ns", "ns", true, Probe, "adm_churn.wall_s"),
    l("cpe.decisions", "count", true, Count, "cluster_day.wall_s"),
    l("cpe.decide_calls", "count", true, Count, "cluster_day.wall_s"),
    l("cpe.redecisions", "count", true, Count, "cluster_day.wall_s"),
    l("cpe.decide_ns", "ns", true, Probe, "cluster_day.wall_s"),
    l("cpe.index_update_ns", "ns", true, Probe, "cluster_day.wall_s"),
    l("cpe.feed_batch_ns", "ns", true, Probe, "cluster_day.wall_s"),
    l("opt.gradient_s", "s", true, Probe, "paper_tables.wall_s (run_sequential cost of the same runs)"),
    l("opt.dataset_gen_s", "s", true, Probe, "paper_tables.setup_s and wall_s"),
    l("opt.arith_share", "share", true, Derived, "= gradient_s / wall_s: bounds any kernel gain on paper_tables"),
    l("opt.mflops", "MFLOP/s", false, Probe, "paper_tables.wall_s"),
    l("workload.trace_rows", "count", false, Count, "denominator of cluster_day.work_per_s"),
    l("workload.gen_rows_per_s", "1/s", false, Probe, "cluster_day.setup_s"),
    l("workload.write_rows_per_s", "1/s", false, Probe, "no workload: the writer beside the reader"),
    l("workload.parse_rows_per_s", "1/s", false, Probe, "no workload: trace ingestion"),
    l("trace.overhead_pct", "%", true, Derived, "traced replay wall / untraced median - 1"),
    l("trace.spans", "count", true, Span, "size of the traced pass"),
    l("sim.makespan_s", "sim_s", true, Count, "exact: a simulator-only change leaves it bit-equal"),
    l("sim.migrate_s", "sim_s", true, Count, "exact: the paper's migration cost"),
    l("sim.freeze_s", "sim_s", true, Count, "exact: the paper's obtrusiveness"),
    l("sim.paper_err_pct", "%", true, Count, "exact: paper_tables only, reference = the paper's tables"),
];
