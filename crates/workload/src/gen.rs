//! The seeded synthetic trace generator: diurnal-curve arrival rates,
//! Pareto-tailed lifetimes, per-class skew.
//!
//! Everything is derived from [`GeneratorConfig::seed`] through a
//! SplitMix64 stream, and arrival counts are apportioned to
//! (class, time-bucket) cells by deterministic cumulative rounding — so a
//! config always yields the exact requested arrival count and the exact
//! same event stream, on every host, at every shard count.

use crate::{sort_canonical, HostClass, TraceEvent, TraceEventKind, VpId};
use simcore::{SimDuration, SimTime};

/// Parameters of one synthetic cluster-day trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Seed of the whole stream; same seed → byte-identical trace.
    pub seed: u64,
    /// Host classes to spread arrivals over (class `c` → segment `c`).
    pub classes: u16,
    /// Total arrivals to emit. Every arrival gets a matching departure
    /// inside the horizon, so the trace holds `2 * arrivals` events.
    pub arrivals: usize,
    /// Trace horizon and diurnal period (one simulated "day").
    pub horizon: SimDuration,
    /// Depth of the diurnal swing, `0.0..=1.0`: 0 is a flat arrival rate,
    /// 1 drops the nightly trough to zero.
    pub diurnal_amplitude: f64,
    /// Pareto tail exponent of lifetimes (smaller → heavier tail).
    pub pareto_alpha: f64,
    /// Minimum (and Pareto scale) lifetime.
    pub min_lifetime: SimDuration,
    /// Mean utilization a VP asks of its host (`work = utilization ×
    /// lifetime`), `0.0..=1.0`.
    pub mean_utilization: f64,
    /// Linear per-class arrival skew: class `c` weighs `1 + skew·c`, so
    /// higher classes (→ higher segments) see proportionally more churn.
    pub class_skew: f64,
}

impl GeneratorConfig {
    /// The `cluster_day` scenario's shape: a day-long diurnal curve over
    /// `classes` classes with a heavy lifetime tail and mild skew.
    pub fn cluster_day(seed: u64, classes: u16, arrivals: usize) -> Self {
        GeneratorConfig {
            seed,
            classes,
            arrivals,
            horizon: SimDuration::from_secs(24 * 3600),
            diurnal_amplitude: 0.8,
            pareto_alpha: 1.5,
            min_lifetime: SimDuration::from_secs(60),
            mean_utilization: 0.35,
            class_skew: 0.25,
        }
    }
}

/// Time buckets the diurnal curve is discretized into (15-minute slots of
/// a 24 h horizon).
const BUCKETS: usize = 96;

/// SplitMix64 — the same tiny deterministic stream `worknet`'s trace
/// synthesizers use.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never zero, so Pareto inversion is finite.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Relative arrival weight of time bucket `b`: a raised-cosine day with
/// its trough at t=0 (midnight) and peak mid-horizon.
fn bucket_weight(cfg: &GeneratorConfig, b: usize) -> f64 {
    let phase = std::f64::consts::TAU * (b as f64 + 0.5) / BUCKETS as f64;
    1.0 - cfg.diurnal_amplitude * phase.cos()
}

/// Relative arrival weight of class `c`.
fn class_weight(cfg: &GeneratorConfig, c: u16) -> f64 {
    1.0 + cfg.class_skew * c as f64
}

/// Generate the trace described by `cfg`, in canonical replay order.
///
/// # Panics
///
/// Panics on a degenerate config: zero classes, a zero horizon shorter
/// than the minimum lifetime, or a non-positive Pareto exponent.
pub fn generate(cfg: &GeneratorConfig) -> Vec<TraceEvent> {
    let mut events = generate_by_class(cfg).concat();
    sort_canonical(&mut events);
    events
}

/// Generate the trace described by `cfg` as one stream per host class
/// (index = class), each in canonical replay order — the shape a replay
/// that partitions by class consumes, without ever holding or sorting the
/// interleaved whole. [`generate`] is these streams concatenated and
/// re-sorted.
///
/// Each class is ordered by its structure instead of by comparison-sorting
/// whole rows: arrivals are drawn bucket by bucket and buckets are disjoint
/// time ranges, so sorting each bucket's slice orders them; departures are
/// sorted as bare `(at, vp)` keys and merged in.
///
/// # Panics
///
/// As [`generate`].
pub fn generate_by_class(cfg: &GeneratorConfig) -> Vec<Vec<TraceEvent>> {
    assert!(cfg.classes > 0, "generate: need at least one host class");
    assert!(
        cfg.horizon.0 > cfg.min_lifetime.0,
        "generate: horizon must exceed the minimum lifetime"
    );
    assert!(cfg.pareto_alpha > 0.0, "generate: pareto_alpha must be > 0");
    let mut rng = Rng(cfg.seed);
    let bucket_ns = (cfg.horizon.0 / BUCKETS as u64).max(1);

    // Apportion the exact arrival total over (class, bucket) cells by
    // cumulative rounding: cell quotas are fractional, but the running
    // rounded sum hands each cell an integer share and the last cell
    // lands the total exactly.
    let total_weight: f64 = (0..cfg.classes).map(|c| class_weight(cfg, c)).sum::<f64>()
        * (0..BUCKETS).map(|b| bucket_weight(cfg, b)).sum::<f64>();
    let mut exact = 0.0f64;
    let mut assigned = 0usize;
    let mut next_vp = 0u64;
    let mut classes = Vec::with_capacity(cfg.classes as usize);
    for c in 0..cfg.classes {
        // The class's quotas first, so its buffers are sized exactly.
        let mut quota = [0usize; BUCKETS];
        for (b, n) in quota.iter_mut().enumerate() {
            exact +=
                cfg.arrivals as f64 * class_weight(cfg, c) * bucket_weight(cfg, b) / total_weight;
            let upto = exact.round() as usize;
            *n = upto.saturating_sub(assigned);
            assigned = assigned.max(upto);
        }
        let total: usize = quota.iter().sum();
        let mut arrivals = Vec::with_capacity(total);
        let mut departures: Vec<(SimTime, VpId)> = Vec::with_capacity(total);
        for (b, &n) in quota.iter().enumerate() {
            let bucket_start = arrivals.len();
            for _ in 0..n {
                let at = SimTime(b as u64 * bucket_ns + rng.next_u64() % bucket_ns);
                // Pareto lifetime, clamped so the departure stays inside
                // the horizon (a real trace ends with its observation
                // window, so clamping — not dropping — keeps arrive and
                // depart counts paired).
                let raw = cfg.min_lifetime.0 as f64 * rng.unit().powf(-1.0 / cfg.pareto_alpha);
                let cap = cfg.horizon.0.saturating_sub(at.0).max(1);
                let lifetime = SimDuration((raw as u64).clamp(1, cap).max(1));
                // Utilization uniform in (0, 2·mean], clamped to one host.
                let util = (2.0 * cfg.mean_utilization * rng.unit()).min(1.0);
                let work = SimDuration(((lifetime.0 as f64 * util) as u64).max(1));
                let vp_id = VpId(next_vp);
                next_vp += 1;
                arrivals.push(TraceEvent {
                    at,
                    host_class: HostClass(c),
                    vp_id,
                    kind: TraceEventKind::Arrive { work, lifetime },
                });
                departures.push((at + lifetime, vp_id));
            }
            // VP ids are unique, so the unstable sorts are deterministic.
            arrivals[bucket_start..].sort_unstable_by_key(|e| (e.at, e.vp_id));
        }
        departures.sort_unstable();
        classes.push(merge_departures(HostClass(c), arrivals, departures));
    }
    debug_assert_eq!(assigned, cfg.arrivals);
    classes
}

/// Merge one class's ordered arrivals and ordered departure keys into its
/// canonical stream (an arrival goes first on an `(at, vp)` tie, as in
/// [`sort_canonical`]).
fn merge_departures(
    host_class: HostClass,
    arrivals: Vec<TraceEvent>,
    departures: Vec<(SimTime, VpId)>,
) -> Vec<TraceEvent> {
    let depart = |(at, vp_id)| TraceEvent {
        at,
        host_class,
        vp_id,
        kind: TraceEventKind::Depart,
    };
    let mut out = Vec::with_capacity(arrivals.len() + departures.len());
    let mut departures = departures.into_iter().peekable();
    for a in arrivals {
        while let Some(d) = departures.next_if(|&d| d < (a.at, a.vp_id)) {
            out.push(depart(d));
        }
        out.push(a);
    }
    out.extend(departures.map(depart));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_str, stats, write_str};
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn exact_arrival_count_and_pairing() {
        let cfg = GeneratorConfig::cluster_day(7, 4, 1000);
        let events = generate(&cfg);
        let s = stats(&events);
        assert_eq!(s.arrivals, 1000);
        assert_eq!(s.departures, 1000);
        assert_eq!(s.events, 2000);
        assert!(s.horizon.0 <= cfg.horizon.0);
        // Every VP departs exactly `lifetime` after arriving, same class.
        let mut arrived: HashMap<VpId, (HostClass, SimTime, SimDuration)> = HashMap::new();
        for e in &events {
            match e.kind {
                TraceEventKind::Arrive { lifetime, .. } => {
                    assert!(arrived
                        .insert(e.vp_id, (e.host_class, e.at, lifetime))
                        .is_none());
                }
                TraceEventKind::Depart => {
                    let (class, at, lifetime) = arrived.remove(&e.vp_id).expect("depart pairs");
                    assert_eq!(class, e.host_class);
                    assert_eq!(e.at, at + lifetime);
                }
            }
        }
        assert!(arrived.is_empty());
    }

    #[test]
    fn diurnal_curve_shapes_arrivals() {
        let cfg = GeneratorConfig::cluster_day(11, 2, 20_000);
        let events = generate(&cfg);
        let quarter = cfg.horizon.0 / 4;
        let mut by_quarter = [0usize; 4];
        for e in &events {
            if let TraceEventKind::Arrive { .. } = e.kind {
                by_quarter[((e.at.0 / quarter) as usize).min(3)] += 1;
            }
        }
        // Midday quarters far outweigh the midnight-adjacent ones.
        assert!(by_quarter[1] + by_quarter[2] > 2 * (by_quarter[0] + by_quarter[3]));
    }

    #[test]
    fn class_skew_shapes_classes() {
        let mut cfg = GeneratorConfig::cluster_day(13, 3, 9_000);
        cfg.class_skew = 1.0;
        let events = generate(&cfg);
        let mut per_class = [0usize; 3];
        for e in &events {
            if let TraceEventKind::Arrive { .. } = e.kind {
                per_class[e.host_class.0 as usize] += 1;
            }
        }
        assert!(per_class[2] > per_class[1]);
        assert!(per_class[1] > per_class[0]);
        // Weights 1 : 2 : 3 — the skewed class gets roughly triple.
        let ratio = per_class[2] as f64 / per_class[0] as f64;
        assert!((2.0..4.5).contains(&ratio), "skew ratio {ratio}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig::cluster_day(1, 2, 200));
        let b = generate(&GeneratorConfig::cluster_day(2, 2, 200));
        assert_ne!(a, b);
    }

    /// 64-bit FNV-1a, the digest the pinned constants below were taken with.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The generator's output is pinned byte for byte: these digests of
    /// `write_str(&generate(&cfg))` were computed before the generation
    /// loop was restructured per class, and every replay digest downstream
    /// (`cluster_day`'s `sim_digest`) depends on them not moving.
    #[test]
    fn generated_documents_are_pinned() {
        let mut flat_skewed = GeneratorConfig::cluster_day(13, 3, 9_000);
        flat_skewed.class_skew = 1.0;
        flat_skewed.diurnal_amplitude = 0.0;
        for (cfg, pinned) in [
            (
                GeneratorConfig::cluster_day(1994, 8, 5_000),
                0xf8fd_fefe_356f_56d2u64,
            ),
            (
                GeneratorConfig::cluster_day(7, 3, 1_000),
                0xa018_a57c_b324_d50a,
            ),
            (flat_skewed, 0xa0e8_98b3_9c7b_5237),
        ] {
            let got = fnv1a(write_str(&generate(&cfg)).as_bytes());
            assert_eq!(got, pinned, "{cfg:?}: got {got:#018x}");
        }
    }

    fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
        (
            proptest::prelude::any::<u64>(),
            1u16..5,
            1usize..400,
            0.0f64..1.0,
            0.0f64..2.0,
        )
            .prop_map(
                |(seed, classes, arrivals, amplitude, skew)| GeneratorConfig {
                    seed,
                    classes,
                    arrivals,
                    horizon: SimDuration::from_secs(3600),
                    diurnal_amplitude: amplitude,
                    pareto_alpha: 1.2,
                    min_lifetime: SimDuration::from_secs(5),
                    mean_utilization: 0.4,
                    class_skew: skew,
                },
            )
    }

    proptest! {
        /// Satellite property 1: a fixed seed is a fixed trace.
        #[test]
        fn generator_is_deterministic(cfg in config_strategy()) {
            prop_assert_eq!(generate(&cfg), generate(&cfg));
        }

        /// The per-class streams are exactly the canonical trace
        /// partitioned by class (order preserved), and re-sorting their
        /// concatenation gives the canonical trace back.
        #[test]
        fn by_class_is_the_canonical_trace_partitioned(cfg in config_strategy()) {
            let whole = generate(&cfg);
            let by_class = generate_by_class(&cfg);
            prop_assert_eq!(by_class.len(), cfg.classes as usize);
            for (c, stream) in by_class.iter().enumerate() {
                let expected: Vec<TraceEvent> = whole
                    .iter()
                    .filter(|e| e.host_class.0 as usize == c)
                    .copied()
                    .collect();
                prop_assert_eq!(stream, &expected);
            }
            let mut concatenated = by_class.concat();
            sort_canonical(&mut concatenated);
            prop_assert_eq!(concatenated, whole);
        }

        /// Satellite property 2: generate → write → read is the identity
        /// on the event stream, for any config.
        #[test]
        fn generated_traces_roundtrip(cfg in config_strategy()) {
            let events = generate(&cfg);
            prop_assert_eq!(stats(&events).arrivals, cfg.arrivals);
            let doc = write_str(&events);
            prop_assert_eq!(parse_str(&doc).unwrap(), events);
        }
    }
}
