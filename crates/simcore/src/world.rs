//! The shared simulation state guarded by the kernel lock.
//!
//! `World` holds the virtual clock, the pending-event queue, and one slot per
//! actor. Exactly one actor executes at any instant (`World::running`); all
//! other actor threads are parked, each on its own per-actor condvar. Because
//! every state-changing operation happens under the single kernel lock and
//! event ordering is the total order `(time, sequence)`, simulations are
//! deterministic regardless of how the OS schedules the carrier threads.
//!
//! # The slab-indexed event queue
//!
//! Pending entries (actor wake-ups and kernel events) live in a slab of
//! reusable nodes ordered by an indexed binary heap: every node knows its
//! heap position, so *cancellation removes the node in O(log n)* instead of
//! leaving a tombstone for the dispatch loop to skip. Actor re-wakes
//! (interrupting a timed wait, waking a parked actor) eagerly remove the
//! superseded entry the same way, so the heap only ever contains live
//! entries and node allocations are recycled through a free list.

use crate::error::{ActorReport, SimError};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;
use parking_lot::Condvar;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Identifies an actor for the lifetime of a simulation.
///
/// Packs the actor's slot index with a generation counter (like [`EventId`]).
/// By default slots are never reused, so the generation is always zero and an
/// id is just its index. When slot recycling is enabled
/// ([`World::set_actor_recycling`]) an exited actor's slot may be handed to a
/// later spawn with a bumped generation; a stale id then no longer matches
/// the occupant, and [`World::wake_actor`] / [`World::post_signal`] /
/// [`World::has_signal`] treat it as referring to an exited actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub(crate) u64);

impl ActorId {
    pub(crate) fn new(index: usize, gen: u32) -> ActorId {
        ActorId(((gen as u64) << 32) | index as u64)
    }

    /// The slot index of this actor. Stable for the actor's lifetime; reused
    /// by later spawns only when slot recycling is enabled.
    pub fn index(self) -> usize {
        (self.0 & u32::MAX as u64) as usize
    }

    pub(crate) fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.index())
    }
}

/// Identifies a scheduled kernel event; used to cancel it. Packs the node's
/// slab index with a generation counter so a handle from a fired or
/// cancelled event can never alias a recycled node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    fn new(index: u32, gen: u32) -> EventId {
        EventId(((gen as u64) << 32) | index as u64)
    }
    fn index(self) -> u32 {
        self.0 as u32
    }
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Why a yielded actor was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// The timer set by `advance` expired normally.
    Timer,
    /// Another actor (or a kernel event) called `wake`.
    Woken,
    /// A signal was posted while the actor was in an interruptible wait.
    Interrupted,
}

/// A boxed payload delivered asynchronously to an actor, modelling a Unix
/// signal plus its out-of-band argument (e.g. "migrate to host 3").
pub type Signal = Box<dyn Any + Send>;

/// A kernel event: a closure run at its scheduled time with exclusive access
/// to the world. Used for message arrivals, transfer completions, and other
/// things that happen "in the wires" with no actor attached.
pub type KernelEvent = Box<dyn FnOnce(&mut World) + Send>;

pub(crate) enum ActorState {
    /// Slot created, first wake queued, body not yet entered.
    NotStarted,
    /// Currently holds the execution token.
    Running,
    /// Sleeping until a queued timer entry fires.
    Timed { interruptible: bool },
    /// Parked indefinitely, waiting for `wake` (or a signal if interruptible).
    Parked { reason: String, interruptible: bool },
    /// A wake entry has been queued; the actor will run when it is popped.
    Ready,
    /// Body returned.
    Exited,
}

pub(crate) struct ActorSlot {
    pub name: String,
    pub state: ActorState,
    /// Bumped each time the slot is recycled for a new actor; the occupant's
    /// id carries the matching generation. Always zero when recycling is off.
    pub gen: u32,
    /// The slab node of this actor's pending wake entry, if one is queued.
    /// At most one wake entry per actor is ever live; superseding it (wake,
    /// interrupt) removes the old node from the heap.
    pub pending_wake: Option<u32>,
    pub wake_reason: Option<WakeReason>,
    pub signals: VecDeque<Signal>,
    /// This actor's private parking spot: its carrier thread waits here (with
    /// the kernel lock) and is the only thread notified when the dispatcher
    /// hands it the token — one targeted wake per handoff, no thundering herd.
    pub parker: Arc<Condvar>,
}

enum NodeKind {
    Wake {
        actor: ActorId,
    },
    Event {
        f: Option<KernelEvent>,
    },
    /// On the free list.
    Free,
}

/// One slab entry: a pending heap node (or a free slot awaiting reuse).
struct Node {
    at: SimTime,
    seq: u64,
    gen: u32,
    /// Position in `World::heap`; meaningless while free.
    pos: usize,
    kind: NodeKind,
}

/// The outcome of draining the event queue until an actor becomes runnable.
pub(crate) enum Dispatch {
    /// `World::running` has been set to an actor; wake its carrier.
    Run,
    /// All actors exited and nothing is pending.
    Finished,
    /// Live actors remain but nothing can make progress.
    Deadlock(Vec<ActorReport>),
    /// Bounded mode only: the next pending entry (if any) is at or past
    /// `World::limit`, so the shard must stop and wait for its controller
    /// to raise the bound. Never produced in unbounded (sequential) mode.
    Paused,
}

/// Key ordering cross-shard envelopes in the inbox: `(arrival time,
/// shard-link id, per-link sequence)`. The link id — not the source shard —
/// is the tie-breaker so that same-instant envelopes from two different
/// links order identically at every shard count (at 1 shard all senders
/// share a shard index, which would collide). The per-link sequence is
/// deterministic because each sending shard executes serially.
pub(crate) type EnvelopeKey = (SimTime, u32, u64);

/// Shared simulation state. Public methods on `World` are the API available
/// to kernel-event closures.
pub struct World {
    pub(crate) now: SimTime,
    pub(crate) actors: Vec<ActorSlot>,
    /// Slot indices of exited actors available for reuse. Only populated
    /// when `recycle_actors` is on.
    free_actors: Vec<u32>,
    /// Opt-in: reuse exited actors' slots for later spawns. Off by default
    /// because recycling makes slot indices — and therefore `actor#N`
    /// display names — non-unique across a run, which would perturb golden
    /// trace output. High-churn workloads (cluster-day replay) enable it so
    /// slot storage stays proportional to peak concurrency, not total
    /// spawns.
    recycle_actors: bool,
    pub(crate) running: Option<ActorId>,
    pub(crate) live_actors: usize,
    /// Slab of pending-entry nodes (see module docs).
    nodes: Vec<Node>,
    /// Free slab indices available for reuse.
    free: Vec<u32>,
    /// Binary min-heap of slab indices ordered by `(at, seq)`.
    heap: Vec<u32>,
    next_seq: u64,
    /// Cross-shard envelopes not yet folded into the heap, ordered by
    /// [`EnvelopeKey`]. Entries are flushed into the heap lazily, exactly
    /// when their arrival instant is the next instant to process, so heap
    /// sequence numbers — and therefore same-time ordering against local
    /// events — are independent of *when* (in wall time) an envelope landed.
    pub(crate) inbox: BTreeMap<EnvelopeKey, KernelEvent>,
    /// Bounded mode: dispatch pauses instead of processing entries at or
    /// past `limit`, and reports `Paused` (never `Finished`/`Deadlock`)
    /// when the queue runs dry. Set once by the shard controller before
    /// the simulation starts.
    pub(crate) bounded: bool,
    /// Exclusive virtual-time bound for bounded dispatch.
    pub(crate) limit: SimTime,
    /// Set when bounded dispatch returned `Paused`; cleared by the
    /// controller when it resumes the shard.
    pub(crate) paused: bool,
    pub(crate) finished: bool,
    pub(crate) aborted: bool,
    pub(crate) deadlock: Option<Vec<ActorReport>>,
    pub(crate) panic_info: Option<(String, String)>,
    /// A cross-shard envelope landed in this shard's past (see
    /// `push_envelope`). Recorded once; the run aborts and surfaces it.
    pub(crate) violation: Option<SimError>,
    pub(crate) trace: Vec<TraceEvent>,
    pub(crate) trace_enabled: bool,
    pub(crate) events_processed: u64,
}

impl World {
    pub(crate) fn new() -> Self {
        World {
            now: SimTime::ZERO,
            actors: Vec::new(),
            free_actors: Vec::new(),
            recycle_actors: false,
            running: None,
            live_actors: 0,
            nodes: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            next_seq: 0,
            inbox: BTreeMap::new(),
            bounded: false,
            limit: SimTime(u64::MAX),
            paused: false,
            finished: false,
            aborted: false,
            deadlock: None,
            panic_info: None,
            violation: None,
            trace: Vec::new(),
            trace_enabled: true,
            events_processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total heap entries processed so far: actor handoffs plus kernel
    /// events.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    // ---- slab + indexed heap ------------------------------------------

    fn node_less(&self, a: u32, b: u32) -> bool {
        let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        (na.at, na.seq) < (nb.at, nb.seq)
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.node_less(self.heap[pos], self.heap[parent]) {
                self.heap.swap(pos, parent);
                self.nodes[self.heap[pos] as usize].pos = pos;
                self.nodes[self.heap[parent] as usize].pos = parent;
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let mut smallest = pos;
            for child in [2 * pos + 1, 2 * pos + 2] {
                if child < self.heap.len() && self.node_less(self.heap[child], self.heap[smallest])
                {
                    smallest = child;
                }
            }
            if smallest == pos {
                break;
            }
            self.heap.swap(pos, smallest);
            self.nodes[self.heap[pos] as usize].pos = pos;
            self.nodes[self.heap[smallest] as usize].pos = smallest;
            pos = smallest;
        }
    }

    /// Insert a node into the slab and heap; returns its slab index.
    fn insert_node(&mut self, at: SimTime, kind: NodeKind) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len();
        let idx = match self.free.pop() {
            Some(idx) => {
                let n = &mut self.nodes[idx as usize];
                debug_assert!(matches!(n.kind, NodeKind::Free));
                n.at = at;
                n.seq = seq;
                n.pos = pos;
                n.kind = kind;
                idx
            }
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node {
                    at,
                    seq,
                    gen: 0,
                    pos,
                    kind,
                });
                idx
            }
        };
        self.heap.push(idx);
        self.sift_up(pos);
        idx
    }

    /// Detach a node from the heap and recycle its slab slot, returning its
    /// kind. O(log n).
    fn remove_node(&mut self, idx: u32) -> NodeKind {
        let pos = self.nodes[idx as usize].pos;
        debug_assert_eq!(self.heap[pos], idx);
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.heap.pop();
        if pos <= last && pos < self.heap.len() {
            self.nodes[self.heap[pos] as usize].pos = pos;
            self.sift_down(pos);
            self.sift_up(pos);
        }
        self.release_node(idx)
    }

    /// Pop the minimum node, recycle its slot, and return its kind.
    fn pop_node(&mut self) -> Option<(SimTime, NodeKind)> {
        let idx = *self.heap.first()?;
        let at = self.nodes[idx as usize].at;
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.pop();
        if !self.heap.is_empty() {
            self.nodes[self.heap[0] as usize].pos = 0;
            self.sift_down(0);
        }
        Some((at, self.release_node(idx)))
    }

    fn release_node(&mut self, idx: u32) -> NodeKind {
        let n = &mut self.nodes[idx as usize];
        let kind = std::mem::replace(&mut n.kind, NodeKind::Free);
        n.gen = n.gen.wrapping_add(1);
        self.free.push(idx);
        kind
    }

    /// Number of live pending entries (for tests).
    #[cfg(test)]
    pub(crate) fn pending_entries(&self) -> usize {
        self.heap.len()
    }

    // ---- scheduling API -----------------------------------------------

    /// Enable or disable actor-slot recycling for subsequent spawns (see the
    /// field docs on the `recycle_actors` flag). Takes effect for actors that
    /// exit after the call; already-exited slots are never reclaimed
    /// retroactively.
    pub fn set_actor_recycling(&mut self, on: bool) {
        self.recycle_actors = on;
    }

    /// Total actor slots ever allocated (live + exited). With recycling on,
    /// this tracks peak concurrency rather than total spawns — the
    /// cluster-day bench gates on it staying bounded under churn.
    pub fn actor_slots(&self) -> usize {
        self.actors.len()
    }

    /// Create a new actor slot (with its own parker condvar) and queue its
    /// first wake at the current time. With recycling on, an exited slot is
    /// reused (generation bumped) instead of growing the slot vector.
    pub(crate) fn add_actor(&mut self, name: String) -> ActorId {
        let id = if let Some(idx) = if self.recycle_actors {
            self.free_actors.pop()
        } else {
            None
        } {
            let slot = &mut self.actors[idx as usize];
            debug_assert!(matches!(slot.state, ActorState::Exited));
            debug_assert!(slot.pending_wake.is_none() && slot.signals.is_empty());
            slot.name = name;
            slot.state = ActorState::NotStarted;
            slot.gen = slot.gen.wrapping_add(1);
            slot.wake_reason = None;
            ActorId::new(idx as usize, slot.gen)
        } else {
            let id = ActorId::new(self.actors.len(), 0);
            self.actors.push(ActorSlot {
                name,
                state: ActorState::NotStarted,
                gen: 0,
                pending_wake: None,
                wake_reason: None,
                signals: VecDeque::new(),
                parker: Arc::new(Condvar::new()),
            });
            id
        };
        self.live_actors += 1;
        let now = self.now;
        self.queue_wake(id, now);
        id
    }

    /// Transition an actor to `Exited`: drop its signals and remove any
    /// still-queued wake entry so nothing stale survives in the heap. With
    /// recycling on, the slot joins the free list for a later spawn.
    pub(crate) fn mark_exited(&mut self, actor: ActorId) {
        let slot = &mut self.actors[actor.index()];
        slot.state = ActorState::Exited;
        slot.signals.clear();
        if let Some(idx) = slot.pending_wake.take() {
            self.remove_node(idx);
        }
        self.live_actors -= 1;
        if self.recycle_actors {
            self.free_actors.push(actor.index() as u32);
        }
    }

    /// The slot occupied by `actor`, or `None` if the id is stale (its slot
    /// was recycled for a newer actor). Non-stale ids always resolve.
    fn slot_mut(&mut self, actor: ActorId) -> Option<&mut ActorSlot> {
        let slot = &mut self.actors[actor.index()];
        (slot.gen == actor.gen()).then_some(slot)
    }

    /// Queue (or re-queue) the actor's single wake entry at `at`.
    pub(crate) fn queue_wake(&mut self, actor: ActorId, at: SimTime) {
        if let Some(old) = self.actors[actor.index()].pending_wake.take() {
            self.remove_node(old);
        }
        let idx = self.insert_node(at, NodeKind::Wake { actor });
        self.actors[actor.index()].pending_wake = Some(idx);
    }

    /// Schedule a kernel event `after` from now. Returns a handle that can be
    /// passed to [`World::cancel_event`].
    pub fn schedule_in(
        &mut self,
        after: SimDuration,
        f: impl FnOnce(&mut World) + Send + 'static,
    ) -> EventId {
        let at = self.now + after;
        let idx = self.insert_node(
            at,
            NodeKind::Event {
                f: Some(Box::new(f)),
            },
        );
        EventId::new(idx, self.nodes[idx as usize].gen)
    }

    /// Cancel a pending kernel event. Returns `true` if it had not yet fired.
    /// O(log n): the entry is removed from the heap outright, not left as a
    /// tombstone.
    pub fn cancel_event(&mut self, id: EventId) -> bool {
        let idx = id.index();
        match self.nodes.get(idx as usize) {
            Some(n) if n.gen == id.gen() && matches!(n.kind, NodeKind::Event { .. }) => {
                self.remove_node(idx);
                true
            }
            _ => false,
        }
    }

    /// Wake a parked actor at the current time. Returns `true` if the actor
    /// was parked and has now been made ready; `false` if it was in any other
    /// state (already ready, running, timed, or exited), in which case the
    /// call is a no-op.
    pub fn wake_actor(&mut self, actor: ActorId) -> bool {
        let now = self.now;
        let Some(slot) = self.slot_mut(actor) else {
            return false; // stale id: the actor exited and its slot moved on
        };
        match slot.state {
            ActorState::Parked { .. } => {
                slot.state = ActorState::Ready;
                slot.wake_reason = Some(WakeReason::Woken);
                self.queue_wake(actor, now);
                true
            }
            _ => false,
        }
    }

    /// Post an asynchronous signal to an actor. If the actor is in an
    /// interruptible wait (timed or parked), it is woken immediately with
    /// [`WakeReason::Interrupted`]; otherwise the signal stays queued until
    /// the actor next checks for signals or enters an interruptible wait.
    pub fn post_signal(&mut self, actor: ActorId, sig: Signal) {
        let now = self.now;
        let Some(slot) = self.slot_mut(actor) else {
            return; // stale id: same treatment as a signal to an exited actor
        };
        if matches!(slot.state, ActorState::Exited) {
            return;
        }
        slot.signals.push_back(sig);
        let interrupt = matches!(
            slot.state,
            ActorState::Timed {
                interruptible: true,
                ..
            } | ActorState::Parked {
                interruptible: true,
                ..
            }
        );
        if interrupt {
            slot.state = ActorState::Ready;
            slot.wake_reason = Some(WakeReason::Interrupted);
            self.queue_wake(actor, now);
        }
    }

    /// True if the actor has at least one queued signal. Stale ids (recycled
    /// slots) report `false`.
    pub fn has_signal(&self, actor: ActorId) -> bool {
        let slot = &self.actors[actor.index()];
        slot.gen == actor.gen() && !slot.signals.is_empty()
    }

    /// Number of live (spawned, not yet exited) actors.
    pub fn live_actors(&self) -> usize {
        self.live_actors
    }

    /// The name given to an actor at spawn time. With recycling on, a stale
    /// id reports the slot's *current* occupant's name.
    pub fn actor_name(&self, actor: ActorId) -> &str {
        &self.actors[actor.index()].name
    }

    /// Record a trace event (used by protocol code to reproduce the paper's
    /// figures). No-op when tracing is disabled — but the caller has already
    /// built `detail`; prefer [`World::trace_event_with`] on hot paths.
    pub fn trace_event(&mut self, actor: Option<ActorId>, tag: &str, detail: String) {
        if !self.trace_enabled {
            return;
        }
        self.push_trace(actor, tag, detail);
    }

    /// Record a trace event, building the detail string only if tracing is
    /// enabled. The pay-as-you-go variant for hot paths.
    pub fn trace_event_with(
        &mut self,
        actor: Option<ActorId>,
        tag: &str,
        detail: impl FnOnce() -> String,
    ) {
        if !self.trace_enabled {
            return;
        }
        let detail = detail();
        self.push_trace(actor, tag, detail);
    }

    fn push_trace(&mut self, actor: Option<ActorId>, tag: &str, detail: String) {
        let actor_name = actor.map(|a| self.actors[a.index()].name.clone());
        self.trace.push(TraceEvent {
            at: self.now,
            actor,
            actor_name,
            tag: tag.to_string(),
            detail,
        });
    }

    /// Flag the world aborted and wake every parked carrier (each on its
    /// own parker). Callers that can reach the `SimShared` condvar must
    /// also notify `run_cv` (see `sim::abort_all`); world-internal callers
    /// rely on dispatch returning `Paused` to trigger that notification.
    pub(crate) fn mark_aborted(&mut self) {
        self.aborted = true;
        for slot in &self.actors {
            slot.parker.notify_all();
        }
    }

    pub(crate) fn deadlock_report(&self) -> Vec<ActorReport> {
        self.actors
            .iter()
            .filter_map(|a| match &a.state {
                ActorState::Parked { reason, .. } => Some(ActorReport {
                    name: a.name.clone(),
                    state: format!("parked: {reason}"),
                }),
                ActorState::NotStarted => Some(ActorReport {
                    name: a.name.clone(),
                    state: "not started".into(),
                }),
                _ => None,
            })
            .collect()
    }

    /// Earliest pending instant across the heap and the envelope inbox, or
    /// `None` when both are empty. In sharded runs the controller reads
    /// this (only while the shard is paused) as the shard's `t_next`.
    pub(crate) fn next_pending_time(&self) -> Option<SimTime> {
        let h = self.heap.first().map(|&i| self.nodes[i as usize].at);
        let i = self.inbox.keys().next().map(|k| k.0);
        match (h, i) {
            (Some(h), Some(i)) => Some(h.min(i)),
            (h, i) => h.or(i),
        }
    }

    /// Deposit a cross-shard envelope: a kernel event that fires at `at`,
    /// ordered against other envelopes by `(at, link, seq)`. The entry
    /// stays in the inbox until dispatch reaches its instant.
    ///
    /// An arrival in this shard's past is a causality violation — a
    /// protocol bug or a caller handing `ShardLink::send` a stale `now`.
    /// Processing it would silently reorder the replay, so it is a real
    /// runtime error (not just a debug assert): the world is marked
    /// aborted, the violation recorded for `Sim::failure`, and the
    /// envelope dropped.
    pub(crate) fn push_envelope(
        &mut self,
        at: SimTime,
        link: u32,
        seq: u64,
        f: KernelEvent,
    ) -> Result<(), SimError> {
        if at < self.now {
            let err = SimError::CausalityViolation {
                at: self.now,
                arrival: at,
                link,
            };
            if self.violation.is_none() {
                self.violation = Some(err.clone());
            }
            self.mark_aborted();
            return Err(err);
        }
        let prev = self.inbox.insert((at, link, seq), f);
        debug_assert!(prev.is_none(), "duplicate envelope key");
        Ok(())
    }

    /// Drain due events until an actor becomes runnable, the simulation
    /// finishes, a deadlock is detected, or (bounded mode) the virtual-time
    /// bound is reached. Caller must have `running == None`.
    ///
    /// Envelope flush rule: inbox entries are folded into the heap only
    /// when their arrival instant is the minimum pending instant, and then
    /// *all* entries at exactly that instant are folded at once, in key
    /// order. Flushing any earlier would hand envelopes heap sequence
    /// numbers before same-time local events exist; flushing by the racy
    /// `limit` would make ordering depend on controller timing. This rule
    /// makes the interleaving a pure function of virtual time.
    pub(crate) fn dispatch(&mut self) -> Dispatch {
        debug_assert!(self.running.is_none());
        loop {
            // Stop dispatching the moment the world is aborted — in
            // particular when a kernel event just recorded a causality
            // violation via `push_envelope` (it cannot signal anyone
            // itself; the waiters in `resume_until`/`Sim::run` and parked
            // carriers all re-check `aborted` once notified).
            if self.aborted {
                self.paused = true;
                return Dispatch::Paused;
            }
            if let Some(&(at, _, _)) = self.inbox.keys().next() {
                let heap_min = self.heap.first().map(|&i| self.nodes[i as usize].at);
                if heap_min.is_none_or(|h| at <= h) {
                    if self.bounded && at >= self.limit {
                        self.paused = true;
                        return Dispatch::Paused;
                    }
                    while let Some(e) = self.inbox.first_entry() {
                        if e.key().0 != at {
                            break;
                        }
                        let (_, f) = e.remove_entry();
                        self.insert_node(at, NodeKind::Event { f: Some(f) });
                    }
                    continue;
                }
            }
            if self.bounded {
                match self.heap.first().map(|&i| self.nodes[i as usize].at) {
                    Some(at) if at < self.limit => {}
                    _ => {
                        self.paused = true;
                        return Dispatch::Paused;
                    }
                }
            }
            let Some((at, kind)) = self.pop_node() else {
                return if self.live_actors == 0 {
                    Dispatch::Finished
                } else {
                    Dispatch::Deadlock(self.deadlock_report())
                };
            };
            debug_assert!(at >= self.now, "event scheduled in the past");
            match kind {
                NodeKind::Wake { actor } => {
                    self.now = at;
                    self.events_processed += 1;
                    let slot = &mut self.actors[actor.index()];
                    debug_assert!(
                        !matches!(slot.state, ActorState::Exited),
                        "wake entry for exited actor survived"
                    );
                    slot.pending_wake = None;
                    slot.state = ActorState::Running;
                    self.running = Some(actor);
                    return Dispatch::Run;
                }
                NodeKind::Event { f } => {
                    let f = f.expect("pending kernel event with no closure");
                    self.now = at;
                    self.events_processed += 1;
                    f(self);
                    // The event may have woken actors or scheduled more
                    // events; keep draining in (time, seq) order.
                }
                NodeKind::Free => unreachable!("free node in heap"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world_with_actor() -> (World, ActorId) {
        let mut w = World::new();
        w.actors.push(ActorSlot {
            name: "a".into(),
            state: ActorState::Parked {
                reason: "test".into(),
                interruptible: false,
            },
            gen: 0,
            pending_wake: None,
            wake_reason: None,
            signals: VecDeque::new(),
            parker: Arc::new(Condvar::new()),
        });
        w.live_actors = 1;
        (w, ActorId::new(0, 0))
    }

    #[test]
    fn cancel_removes_entry_from_heap() {
        let (mut w, _) = world_with_actor();
        let id = w.schedule_in(SimDuration::from_secs(1), |_| {});
        assert_eq!(w.pending_entries(), 1);
        assert!(w.cancel_event(id));
        assert_eq!(w.pending_entries(), 0, "no tombstone left behind");
        assert!(!w.cancel_event(id), "double cancel reports false");
    }

    #[test]
    fn recycled_node_does_not_alias_old_event_id() {
        let (mut w, _) = world_with_actor();
        let id1 = w.schedule_in(SimDuration::from_secs(1), |_| {});
        assert!(w.cancel_event(id1));
        // The node is recycled for a new event; the old handle must be dead.
        let id2 = w.schedule_in(SimDuration::from_secs(2), |_| {});
        assert_ne!(id1, id2);
        assert!(!w.cancel_event(id1));
        assert!(w.cancel_event(id2));
    }

    #[test]
    fn requeueing_a_wake_leaves_single_entry() {
        let (mut w, a) = world_with_actor();
        w.queue_wake(a, SimTime(5));
        w.queue_wake(a, SimTime(3));
        assert_eq!(w.pending_entries(), 1, "old wake entry removed eagerly");
        match w.dispatch() {
            Dispatch::Run => {
                assert_eq!(w.now, SimTime(3), "second wake's time wins");
                assert_eq!(w.running, Some(a));
            }
            _ => panic!("expected Run"),
        }
    }

    #[test]
    fn heap_orders_by_time_then_seq() {
        let (mut w, _) = world_with_actor();
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for (i, at) in [(0u64, 30u64), (1, 10), (2, 10), (3, 20)] {
            let log = std::sync::Arc::clone(&log);
            w.schedule_in(SimDuration::from_nanos(at), move |_| {
                log.lock().unwrap().push(i);
            });
        }
        match w.dispatch() {
            Dispatch::Deadlock(_) => {}
            _ => panic!("expected deadlock after draining events"),
        }
        // Same-time events fire in scheduling order.
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3, 0]);
    }

    #[test]
    fn recycling_off_keeps_slots_unique() {
        let mut w = World::new();
        let a = w.add_actor("a".into());
        w.mark_exited(a);
        let b = w.add_actor("b".into());
        assert_ne!(a.index(), b.index(), "slots never reused by default");
        assert_eq!(w.actor_slots(), 2);
    }

    #[test]
    fn recycling_reuses_slots_with_bumped_generation() {
        let mut w = World::new();
        w.set_actor_recycling(true);
        let a = w.add_actor("a".into());
        w.mark_exited(a);
        let b = w.add_actor("b".into());
        assert_eq!(a.index(), b.index(), "exited slot reused");
        assert_ne!(a, b, "generation distinguishes occupants");
        assert_eq!(w.actor_slots(), 1, "slot vector did not grow");
        assert_eq!(w.actor_name(b), "b");
    }

    #[test]
    fn slot_count_tracks_peak_concurrency_under_churn() {
        let mut w = World::new();
        w.set_actor_recycling(true);
        for i in 0..1000 {
            let a = w.add_actor(format!("vp{i}"));
            w.mark_exited(a);
        }
        assert_eq!(w.actor_slots(), 1, "sequential churn reuses one slot");
    }

    #[test]
    fn stale_ids_are_noops_after_recycle() {
        let mut w = World::new();
        w.set_actor_recycling(true);
        let a = w.add_actor("a".into());
        w.mark_exited(a);
        let b = w.add_actor("b".into());
        // Park the new occupant so a live wake would succeed.
        w.actors[b.index()].state = ActorState::Parked {
            reason: "test".into(),
            interruptible: true,
        };
        assert!(!w.wake_actor(a), "stale wake is a no-op");
        w.post_signal(a, Box::new(()));
        assert!(!w.has_signal(a), "stale signal dropped");
        assert!(!w.has_signal(b), "stale signal did not leak to occupant");
        assert!(w.wake_actor(b), "current occupant still wakeable");
    }

    #[test]
    fn many_insert_cancel_cycles_stay_compact() {
        let (mut w, _) = world_with_actor();
        for round in 0..100u64 {
            let ids: Vec<EventId> = (0..10)
                .map(|i| w.schedule_in(SimDuration::from_nanos(round * 50 + i), |_| {}))
                .collect();
            for id in ids.iter().rev() {
                assert!(w.cancel_event(*id));
            }
        }
        assert_eq!(w.pending_entries(), 0);
        assert!(w.nodes.len() <= 16, "slab reuses freed nodes");
    }
}
