//! workload — trace-driven cluster-scale workloads for the adaptive-PVM
//! simulator.
//!
//! The repo's original scenarios were built from static worklists: a fixed
//! set of tasks spawned up front, churned by owner/load traces. Datacenter
//! migration studies are instead driven by *arrival/departure traces* —
//! hundreds of thousands of short-lived virtual processors landing on and
//! leaving a big cluster over a day. This crate supplies that layer:
//!
//! * [`TraceEvent`] — one arrival or departure of a virtual processor
//!   (VP), stamped with virtual time and a [`HostClass`] (mapped to a
//!   worknet segment at replay time).
//! * [`write_str`] / [`parse_str`] — a compact line format
//!   (`workload-trace-v1`) modeled on the dslab-iaas Azure/Huawei dataset
//!   readers, so converted real cloud traces and synthetic ones replay
//!   through the same path.
//! * [`generate`] — a seeded synthetic generator: diurnal-curve arrival
//!   rates, Pareto-tailed lifetimes, per-class skew. Same
//!   [`GeneratorConfig`] → byte-identical trace, always.
//!   [`generate_by_class`] yields the same events as one canonical stream
//!   per host class, the shape the replay driver consumes.
//!
//! The replay driver itself lives in the bench crate (`cluster_day`),
//! where it feeds these events through the GS, monitor, migration and
//! fault machinery partitioned across `ShardedSim` shards by segment.

#![warn(missing_docs)]

use simcore::{SimDuration, SimTime};
use std::fmt::{self, Write as _};

mod gen;

pub use gen::{generate, generate_by_class, GeneratorConfig};

/// Identity of one virtual processor across its arrive/depart pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VpId(pub u64);

impl fmt::Display for VpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vp{}", self.0)
    }
}

/// The class of host a VP asks for. Replay maps each class to one worknet
/// segment (class 0 → segment 0, …), which is also the unit of
/// `ShardedSim` partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostClass(pub u16);

/// What happened to the VP at [`TraceEvent::at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The VP arrives, asking for `work` of compute over a planned
    /// `lifetime` of residence. `work / lifetime` is the utilization the
    /// VP contributes to its host's sensed load while resident.
    Arrive {
        /// Total compute demand over the VP's life.
        work: SimDuration,
        /// Planned residence span; the matching [`TraceEventKind::Depart`]
        /// lands exactly `lifetime` after the arrival.
        lifetime: SimDuration,
    },
    /// The VP leaves (job finished or was withdrawn).
    Depart,
}

/// One line of a workload trace: at `at`, VP `vp_id` of class `host_class`
/// arrives or departs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual instant of the event.
    pub at: SimTime,
    /// Host class (→ segment) the VP belongs to.
    pub host_class: HostClass,
    /// The VP's identity.
    pub vp_id: VpId,
    /// Arrival (with demand) or departure.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// The canonical total-order key: time, then VP id, then
    /// arrive-before-depart. Two events of one VP never share an instant
    /// (lifetimes are at least 1 ns), so the kind rank only disambiguates
    /// *different* VPs colliding on `(at, vp)` — impossible for generated
    /// traces, cheap insurance for converted ones.
    fn key(&self) -> (u64, u64, u8) {
        let rank = match self.kind {
            TraceEventKind::Arrive { .. } => 0,
            TraceEventKind::Depart => 1,
        };
        (self.at.0, self.vp_id.0, rank)
    }
}

/// Sort `events` into the canonical replay order: by instant, then VP
/// id, with arrivals before departures at the same instant.
pub fn sort_canonical(events: &mut [TraceEvent]) {
    events.sort_by_key(|e| e.key());
}

/// The header line every `workload-trace-v1` document starts with.
pub const FORMAT_HEADER: &str = "workload-trace-v1";

/// Render `events` in the compact line format:
///
/// ```text
/// workload-trace-v1
/// A <at_ns> <class> <vp> <work_ns> <lifetime_ns>
/// D <at_ns> <class> <vp>
/// ```
///
/// One event per line, fields space-separated, times in integer
/// nanoseconds — the same shape as the per-row VM records of the
/// dslab-iaas Azure/Huawei dataset readers, so external traces convert in
/// with a one-line-per-event mapping.
pub fn write_str(events: &[TraceEvent]) -> String {
    let mut out = String::from(FORMAT_HEADER);
    out.push('\n');
    let header = out.len();
    // Size the buffer once, from an evenly strided sample of rows rendered
    // in place (every row when there are few): rows widen along the trace
    // with the digits of `at`, so the first rows alone would run short.
    let stride = events.len().div_ceil(256).max(1);
    let sample = events.iter().step_by(stride);
    let sampled = sample.len().max(1);
    for e in sample {
        push_row(&mut out, e);
    }
    let row_bytes = (out.len() - header).div_ceil(sampled);
    out.truncate(header);
    out.reserve(events.len() * row_bytes);
    for e in events {
        push_row(&mut out, e);
    }
    out
}

/// Append one event's line to `out`.
fn push_row(out: &mut String, e: &TraceEvent) {
    let (at, class, vp) = (e.at.0, e.host_class.0, e.vp_id.0);
    match e.kind {
        TraceEventKind::Arrive { work, lifetime } => {
            writeln!(out, "A {at} {class} {vp} {} {}", work.0, lifetime.0)
        }
        TraceEventKind::Depart => writeln!(out, "D {at} {class} {vp}"),
    }
    .expect("writing to a String");
}

/// A malformed trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn field<T: std::str::FromStr>(
    parts: &mut std::str::SplitWhitespace,
    line: usize,
    name: &str,
) -> Result<T, ParseError> {
    let raw = parts.next().ok_or_else(|| ParseError {
        line,
        message: format!("missing field: {name}"),
    })?;
    raw.parse().map_err(|_| ParseError {
        line,
        message: format!("bad {name}: {raw:?}"),
    })
}

/// Parse a `workload-trace-v1` document produced by [`write_str`] (or
/// converted from an external dataset). Event order is preserved as
/// written; blank lines and `#` comment lines are skipped.
pub fn parse_str(doc: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut lines = doc.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == FORMAT_HEADER => {}
        Some((_, h)) => {
            return Err(ParseError {
                line: 1,
                message: format!("expected header {FORMAT_HEADER:?}, got {h:?}"),
            })
        }
        None => {
            return Err(ParseError {
                line: 1,
                message: "empty document".into(),
            })
        }
    }
    let mut events = Vec::new();
    for (i, raw) in lines {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let tag = parts.next().expect("non-empty line has a first token");
        let at = SimTime(field(&mut parts, line, "at_ns")?);
        let host_class = HostClass(field(&mut parts, line, "class")?);
        let vp_id = VpId(field(&mut parts, line, "vp")?);
        let kind = match tag {
            "A" => TraceEventKind::Arrive {
                work: SimDuration(field(&mut parts, line, "work_ns")?),
                lifetime: SimDuration(field(&mut parts, line, "lifetime_ns")?),
            },
            "D" => TraceEventKind::Depart,
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unknown event tag {other:?}"),
                })
            }
        };
        if parts.next().is_some() {
            return Err(ParseError {
                line,
                message: "trailing fields".into(),
            });
        }
        events.push(TraceEvent {
            at,
            host_class,
            vp_id,
            kind,
        });
    }
    Ok(events)
}

/// Summary counts of a trace, as the replay driver and the bench report
/// use them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total events (arrivals + departures).
    pub events: usize,
    /// Arrival events.
    pub arrivals: usize,
    /// Departure events.
    pub departures: usize,
    /// Largest number of VPs resident at once (over the whole trace).
    pub peak_resident: usize,
    /// Last event instant.
    pub horizon: SimTime,
}

/// Walk a canonically ordered trace and compute its [`TraceStats`].
pub fn stats(events: &[TraceEvent]) -> TraceStats {
    let mut s = TraceStats::default();
    let mut resident: isize = 0;
    for e in events {
        s.events += 1;
        match e.kind {
            TraceEventKind::Arrive { .. } => {
                s.arrivals += 1;
                resident += 1;
                s.peak_resident = s.peak_resident.max(resident as usize);
            }
            TraceEventKind::Depart => {
                s.departures += 1;
                resident -= 1;
            }
        }
        s.horizon = s.horizon.max(e.at);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(at: u64, class: u16, vp: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime(at),
            host_class: HostClass(class),
            vp_id: VpId(vp),
            kind,
        }
    }

    #[test]
    fn roundtrip_hand_written() {
        let events = vec![
            ev(
                5,
                0,
                1,
                TraceEventKind::Arrive {
                    work: SimDuration(100),
                    lifetime: SimDuration(200),
                },
            ),
            ev(205, 0, 1, TraceEventKind::Depart),
        ];
        let doc = write_str(&events);
        assert!(doc.starts_with(FORMAT_HEADER));
        assert_eq!(parse_str(&doc).unwrap(), events);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let doc = "workload-trace-v1\n# converted from azure rows\n\nD 9 2 7\n";
        let events = parse_str(doc).unwrap();
        assert_eq!(events, vec![ev(9, 2, 7, TraceEventKind::Depart)]);
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(parse_str("").unwrap_err().message.contains("empty"));
        assert!(parse_str("not-a-trace\n")
            .unwrap_err()
            .message
            .contains("header"));
        let bad_tag = parse_str("workload-trace-v1\nX 1 2 3\n").unwrap_err();
        assert_eq!(bad_tag.line, 2);
        assert!(bad_tag.message.contains("unknown event tag"));
        let missing = parse_str("workload-trace-v1\nA 1 2 3 4\n").unwrap_err();
        assert!(missing.message.contains("lifetime_ns"));
        let trailing = parse_str("workload-trace-v1\nD 1 2 3 4\n").unwrap_err();
        assert!(trailing.message.contains("trailing"));
        let junk = parse_str("workload-trace-v1\nA x 2 3 4 5\n").unwrap_err();
        assert!(junk.message.contains("bad at_ns"));
    }

    #[test]
    fn sort_canonical_orders_by_time_vp_kind() {
        let mut events = vec![
            ev(10, 0, 2, TraceEventKind::Depart),
            ev(
                10,
                0,
                2,
                TraceEventKind::Arrive {
                    work: SimDuration(1),
                    lifetime: SimDuration(1),
                },
            ),
            ev(
                5,
                0,
                9,
                TraceEventKind::Arrive {
                    work: SimDuration(1),
                    lifetime: SimDuration(1),
                },
            ),
        ];
        sort_canonical(&mut events);
        assert_eq!(events[0].at, SimTime(5));
        assert!(matches!(events[1].kind, TraceEventKind::Arrive { .. }));
        assert!(matches!(events[2].kind, TraceEventKind::Depart));
    }

    #[test]
    fn stats_tracks_peak_residency() {
        let mk = |at, vp, kind| ev(at, 0, vp, kind);
        let arrive = TraceEventKind::Arrive {
            work: SimDuration(1),
            lifetime: SimDuration(10),
        };
        let events = vec![
            mk(0, 1, arrive),
            mk(1, 2, arrive),
            mk(2, 1, TraceEventKind::Depart),
            mk(3, 3, arrive),
            mk(4, 2, TraceEventKind::Depart),
            mk(5, 3, TraceEventKind::Depart),
        ];
        let s = stats(&events);
        assert_eq!(s.events, 6);
        assert_eq!(s.arrivals, 3);
        assert_eq!(s.departures, 3);
        assert_eq!(s.peak_resident, 2);
        assert_eq!(s.horizon, SimTime(5));
    }

    fn event_strategy() -> impl Strategy<Value = TraceEvent> {
        (
            0u64..1_000_000,
            0u16..8,
            0u64..10_000,
            prop_oneof![
                (1u64..1_000_000, 1u64..1_000_000).prop_map(|(w, l)| TraceEventKind::Arrive {
                    work: SimDuration(w),
                    lifetime: SimDuration(l),
                }),
                Just(TraceEventKind::Depart),
            ],
        )
            .prop_map(|(at, class, vp, kind)| ev(at, class, vp, kind))
    }

    proptest! {
        /// Any event stream — not just generator output — survives a
        /// write/parse roundtrip byte-for-byte.
        #[test]
        fn roundtrip_arbitrary_streams(events in proptest::collection::vec(event_strategy(), 0..64)) {
            let doc = write_str(&events);
            prop_assert_eq!(parse_str(&doc).unwrap(), events);
        }
    }
}
