//! The benchmark's span recorder: host-time spans around the calls the
//! benchmark's own actor bodies and drivers make into a layer.
//!
//! Off (one relaxed load per call site) during the timed replays; on for
//! the single traced replay. Actor bodies run on the simulator's carrier
//! threads, so every thread records into its own buffer with no shared
//! lock on the hot path; a buffer folds into the process-wide sink when its
//! thread ends (the simulator joins its carriers before `run` returns) or
//! when [`collect`] is called on it. Per-name totals are exact; raw spans
//! are kept up to [`RAW_CAP`] per thread so the trace file stays small on
//! the 400 000-message workload.

use crate::json::{obj, Json};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Raw spans kept per thread; totals keep counting past it.
const RAW_CAP: usize = 4096;

static ON: AtomicBool = AtomicBool::new(false);
static REPLAY: AtomicU32 = AtomicU32::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Collected> = Mutex::new(Collected::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub replay: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Exact per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Busy time minus the part child spans cover.
    pub self_ns: u64,
}

/// Everything recorded so far.
#[derive(Debug, Default)]
pub struct Collected {
    pub totals: BTreeMap<&'static str, Total>,
    pub raw: Vec<Span>,
    pub dropped: u64,
}

impl Collected {
    const fn new() -> Collected {
        Collected {
            totals: BTreeMap::new(),
            raw: Vec::new(),
            dropped: 0,
        }
    }

    fn absorb(&mut self, other: &mut Collected) {
        for (name, t) in std::mem::take(&mut other.totals) {
            let e = self.totals.entry(name).or_default();
            e.count += t.count;
            e.busy_ns += t.busy_ns;
            e.self_ns += t.self_ns;
        }
        self.raw.append(&mut other.raw);
        self.dropped += std::mem::take(&mut other.dropped);
    }

    /// Seconds spent inside spans of this name (0 if none ran).
    pub fn busy_s(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| t.busy_ns as f64 / 1e9)
    }

    /// The trace file: totals, then raw spans ordered by start.
    pub fn to_json(&self) -> Json {
        let totals = obj(self.totals.iter().map(|(name, t)| {
            (
                *name,
                obj([
                    ("count", Json::from(t.count)),
                    ("busy_ns", Json::from(t.busy_ns)),
                    ("self_ns", Json::from(t.self_ns)),
                ]),
            )
        }));
        let mut raw: Vec<&Span> = self.raw.iter().collect();
        raw.sort_by_key(|s| (s.start_ns, s.id));
        let spans = raw
            .into_iter()
            .map(|s| {
                obj([
                    ("id", Json::from(s.id)),
                    ("parent", Json::from(s.parent)),
                    ("replay", Json::from(u64::from(s.replay))),
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                ])
            })
            .collect();
        obj([
            ("schema", Json::from("benchmark-trace-v1")),
            ("time_base", Json::from("host ns since recorder start")),
            ("totals", totals),
            ("raw_spans_dropped", Json::from(self.dropped)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

struct Local {
    data: Collected,
    /// Open spans: (id, child time so far).
    stack: Vec<(u64, u64)>,
}

impl Drop for Local {
    fn drop(&mut self) {
        SINK.lock()
            .unwrap_or_else(|e| e.into_inner())
            .absorb(&mut self.data);
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { data: Collected::new(), stack: Vec::new() })
    };
}

/// Turn recording on for replay `replay`, or off.
pub fn set_enabled(on: bool, replay: u32) {
    epoch();
    REPLAY.store(replay, Ordering::Relaxed);
    ON.store(on, Ordering::SeqCst);
}

/// Run `f` inside a span named `name` (a plain call when recording is off).
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().map_or(0, |&(id, _)| id);
        l.stack.push((id, 0));
        parent
    });
    let start = epoch().elapsed().as_nanos() as u64;
    let out = f();
    let end = epoch().elapsed().as_nanos() as u64;
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (_, child_ns) = l.stack.pop().expect("span stack underflow");
        let dur = end - start;
        if let Some(top) = l.stack.last_mut() {
            top.1 += dur;
        }
        let t = l.data.totals.entry(name).or_default();
        t.count += 1;
        t.busy_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns);
        if l.data.raw.len() < RAW_CAP {
            l.data.raw.push(Span {
                id,
                parent,
                replay: REPLAY.load(Ordering::Relaxed),
                name,
                start_ns: start,
                end_ns: end,
            });
        } else {
            l.data.dropped += 1;
        }
    });
    out
}

/// Take everything recorded so far: the calling thread's buffer plus
/// every buffer already folded in by an ended thread.
pub fn collect() -> Collected {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    LOCAL.with(|l| sink.absorb(&mut l.borrow_mut().data));
    std::mem::take(&mut *sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the recorder is process-global state.
    #[test]
    fn nesting_threads_and_off_switch() {
        span("off", || ());
        set_enabled(true, 7);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        std::thread::spawn(|| span("worker", || ())).join().unwrap();
        set_enabled(false, 0);
        span("off", || ());
        let c = collect();
        let count = |name: &str| c.totals.get(name).map_or(0, |t| t.count);
        assert_eq!(count("off"), 0);
        assert_eq!((count("outer"), count("inner"), count("worker")), (1, 1, 1));
        let (outer, inner) = (c.totals["outer"], c.totals["inner"]);
        assert!(inner.busy_ns >= 2_000_000 && outer.busy_ns >= inner.busy_ns);
        assert_eq!(outer.self_ns, outer.busy_ns - inner.busy_ns);
        let inner_raw = c.raw.iter().find(|s| s.name == "inner").unwrap();
        let outer_raw = c.raw.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!((inner_raw.parent, inner_raw.replay), (outer_raw.id, 7));
        assert!(Json::parse(&c.to_json().pretty()).is_ok());
        assert_eq!(collect().totals.len(), 0);
    }
}
