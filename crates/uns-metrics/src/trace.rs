//! A bounded ring of recent structured control-plane events.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What happened. The meaning of an event's `a`/`b` payload words depends
/// on the kind — see each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceKind {
    /// A stream was created (`a` = owning worker, `b` unused).
    StreamCreated,
    /// A stream was restored from a snapshot (`a` = owning worker).
    StreamRestored,
    /// A stream was rebuilt from durable state at startup (`a` = owning
    /// worker, `b` = lifetime recoveries after the rebuild).
    StreamRecovered,
    /// A stream self-healed in place after a panic or broken WAL writer
    /// (`b` = lifetime recoveries after the heal).
    StreamHealed,
    /// A stream was lost: recovery failed or the server is not durable
    /// (`a`/`b` unused).
    StreamLost,
    /// A checkpoint compaction persisted a snapshot and reset the log
    /// (`a` = log bytes before the reset, `b` = lifetime compactions).
    Compaction,
    /// A worker caught a panic from a stream operation (`a` = internal
    /// stream id, `b` unused).
    WorkerPanic,
    /// Fault injection tore a write short (`a` = bytes written, `b` =
    /// bytes requested).
    FaultTornWrite,
    /// Fault injection failed an fsync (`a`/`b` unused).
    FaultFsyncFailed,
    /// Fault injection dropped a reply (`a`/`b` unused).
    FaultReplyDropped,
    /// Fault injection delayed a reply (`a` = delay in milliseconds).
    FaultReplyDelayed,
    /// Fault injection scheduled a worker panic (`a`/`b` unused).
    FaultPanic,
    /// A floor-trajectory sample: the minimum published floor over the
    /// last window of batches (`a` = stream position in elements, `b` =
    /// the window-min floor).
    FloorSample,
    /// A replica attached (or re-attached) to its primary's replication
    /// feed (`a` = the generation attached under, `b` = the sequence the
    /// catch-up started from).
    ReplicaAttach,
    /// A replica promoted itself to primary for a stream (`a` = owning
    /// worker on the promoting node, `b` = the bumped generation).
    Promote,
    /// Fault injection severed a transport for a seeded window (`a` =
    /// window length in transport operations).
    FaultSevered,
    /// A node demoted itself to replica for a stream it had been serving
    /// as primary (`a` = the worker that owned it, `b` unused).
    Demote,
}

impl TraceKind {
    /// Stable lowercase name used in the rendered trace text.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::StreamCreated => "stream_created",
            TraceKind::StreamRestored => "stream_restored",
            TraceKind::StreamRecovered => "stream_recovered",
            TraceKind::StreamHealed => "stream_healed",
            TraceKind::StreamLost => "stream_lost",
            TraceKind::Compaction => "compaction",
            TraceKind::WorkerPanic => "worker_panic",
            TraceKind::FaultTornWrite => "fault_torn_write",
            TraceKind::FaultFsyncFailed => "fault_fsync_failed",
            TraceKind::FaultReplyDropped => "fault_reply_dropped",
            TraceKind::FaultReplyDelayed => "fault_reply_delayed",
            TraceKind::FaultPanic => "fault_panic",
            TraceKind::FloorSample => "floor_sample",
            TraceKind::ReplicaAttach => "replica_attach",
            TraceKind::Promote => "promote",
            TraceKind::FaultSevered => "fault_severed",
            TraceKind::Demote => "demote",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded event. `stream` is shared (an `Arc<str>` clone), so
/// pushing an event allocates nothing once the ring is at capacity.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Deterministic sequence number: `n` for the ring's n-th event ever
    /// (counting from 0), so two runs with the same seed produce
    /// comparable ids.
    pub seq: u64,
    /// What happened.
    pub kind: TraceKind,
    /// The stream the event concerns (empty for process-wide events).
    pub stream: Arc<str>,
    /// First kind-specific payload word (see [`TraceKind`]).
    pub a: u64,
    /// Second kind-specific payload word (see [`TraceKind`]).
    pub b: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {} stream={:?} a={} b={}",
            self.seq, self.kind, &*self.stream, self.a, self.b
        )
    }
}

/// A fixed-capacity ring of the most recent [`TraceEvent`]s.
///
/// Pushing is a mutex lock plus a `VecDeque` rotation — control-plane
/// rates only (creates, heals, compactions, one floor sample per window of
/// batches), never the per-element path. The ring is pre-allocated, so a
/// push at capacity allocates nothing; the oldest event is dropped.
///
/// Sequence numbers are **deterministic**: they start at 0 and increment
/// by one per event, so runs driven by the same deterministic schedule
/// produce events with identical sequence numbers even after the ring has
/// wrapped.
#[derive(Debug)]
pub struct TraceLog {
    events: Mutex<VecDeque<TraceEvent>>,
    next_seq: AtomicU64,
    capacity: usize,
}

impl TraceLog {
    /// A ring holding the last `capacity` events, first event numbered 0.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            events: Mutex::new(VecDeque::with_capacity(capacity)),
            next_seq: AtomicU64::new(0),
            capacity,
        }
    }

    /// Records an event, dropping the oldest if the ring is full.
    pub fn push(&self, kind: TraceKind, stream: &Arc<str>, a: u64, b: u64) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent { seq, kind, stream: Arc::clone(stream), a, b };
        let mut events = self.events.lock().expect("trace log lock poisoned");
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace log lock poisoned").iter().cloned().collect()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace log lock poisoned").len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded: the sequence number the next event gets.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Renders the retained events as text, one `#seq kind stream a b`
    /// line per event, oldest first.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for event in self.events() {
            let _ = writeln!(out, "{event}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_seeded_sequence_numbers() {
        let log = TraceLog::new(3);
        let stream: Arc<str> = Arc::from("s");
        for i in 0..5u64 {
            log.push(TraceKind::Compaction, &stream, i, 0);
        }
        let events = log.events();
        assert_eq!(events.len(), 3);
        // Oldest two dropped; sequence numbers keep counting from 0.
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(events[0].a, 2);
        assert_eq!(log.next_seq(), 5);
        assert_eq!(log.capacity(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    fn render_is_one_line_per_event() {
        let log = TraceLog::new(8);
        let stream: Arc<str> = Arc::from("alpha");
        log.push(TraceKind::StreamCreated, &stream, 1, 0);
        log.push(TraceKind::FloorSample, &stream, 4096, 17);
        let text = log.render();
        assert_eq!(
            text,
            "#0 stream_created stream=\"alpha\" a=1 b=0\n\
                          #1 floor_sample stream=\"alpha\" a=4096 b=17\n"
        );
    }
}
