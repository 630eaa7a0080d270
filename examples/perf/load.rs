//! The load threads: one per connection, closed or open loop, timing every
//! request through the public client-side codec and framing functions.

use std::io;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use uns_core::NodeId;
use uns_service::protocol::{Request, Response};
use uns_service::sampler::ServiceSampler;
use uns_service::wire::{read_frame, write_frame};

use crate::stats::{sub_seed, PoissonSchedule, SplitMix};
use crate::trace::{request_id, Layer, Tracer};
use crate::verify::digest;
use crate::workload::{batch_ids, Load};

/// Open-loop requests slower than this from their due time miss the
/// latency objective.
const SLO: Duration = Duration::from_millis(1);

/// How long an open-loop connection waits for a reply before giving up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The run's time line, shared by every load thread.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    /// Warm-up starts here; open-loop schedules count from it.
    pub origin: Instant,
    pub window_start: Instant,
    pub window_end: Instant,
    /// In traced runs the window alternates untraced and traced slices of
    /// this length (client spans are recorded in the traced ones only), so
    /// the two halves measure the tracing overhead side by side.
    pub trace_slice: Option<Duration>,
}

impl Clock {
    pub fn in_window(&self, t: Instant) -> bool {
        t >= self.window_start && t < self.window_end
    }

    /// Whether a request sent (or due) at `t` is traced.
    pub fn traced(&self, t: Instant) -> bool {
        match self.trace_slice {
            Some(slice) if self.in_window(t) => {
                let into = t.duration_since(self.window_start).as_nanos();
                (into / slice.as_nanos().max(1)) % 2 == 1
            }
            _ => false,
        }
    }
}

/// One acknowledged `FeedBatch`, as the replay needs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fed {
    /// Batch index on its connection (selects the ids from the pool).
    pub k: u64,
    /// Stream length after the batch (the reply position).
    pub position: u64,
    /// Digest of the reply's admitted count and outputs.
    pub digest: u64,
    /// Whether the live request was traced (the replay then traces it too).
    pub traced: bool,
}

/// Everything a load thread observed.
pub struct ConnLog {
    pub conn: usize,
    pub fed: Vec<Fed>,
    /// Admitted counts summed over `fed`.
    pub admitted: u64,
    /// Latency of this connection's probed requests due in the window, µs.
    pub latency_us: Vec<f64>,
    /// How late each probed request was sent, µs: after its due time (open
    /// loop) or after the previous reply (closed loop).
    pub lag_us: Vec<f64>,
    /// Probed requests in the window that failed or missed [`SLO`].
    pub slo_misses: u64,
    /// Identifiers of acknowledged writes sent in the window (refused and
    /// failed batches excluded), split by trace slice.
    pub window_elems: u64,
    /// Closed loop: for each acknowledged batch sent in the window, the
    /// time from its send to the next send, µs.
    pub cycle_us: Vec<f64>,
    pub traced_elems: u64,
    pub untraced_elems: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Stream lengths reported by `Stats` reads (each must be a position).
    pub stats_positions: Vec<u64>,
    /// Read replies that were malformed (a `Snapshot` that did not restore).
    pub bad_reads: u64,
    /// Span buffers of this connection's threads (traced runs only).
    pub tracers: Vec<Tracer>,
}

impl ConnLog {
    fn new(conn: usize, tracer: Option<Tracer>) -> Self {
        Self {
            conn,
            fed: Vec::new(),
            admitted: 0,
            latency_us: Vec::new(),
            lag_us: Vec::new(),
            slo_misses: 0,
            window_elems: 0,
            cycle_us: Vec::new(),
            traced_elems: 0,
            untraced_elems: 0,
            attempted: 0,
            failed: 0,
            stats_positions: Vec::new(),
            bad_reads: 0,
            tracers: tracer.into_iter().collect(),
        }
    }

    fn count_window_elems(&mut self, clock: &Clock, sent: Instant, elems: usize) {
        if !clock.in_window(sent) {
            return;
        }
        self.window_elems += elems as u64;
        if clock.trace_slice.is_some() {
            if clock.traced(sent) {
                self.traced_elems += elems as u64;
            } else {
                self.untraced_elems += elems as u64;
            }
        }
    }

    fn probe(&mut self, latency: Duration, ok: bool) {
        self.latency_us.push(latency.as_secs_f64() * 1e6);
        if !ok || latency > SLO {
            self.slo_misses += 1;
        }
    }

    /// Checks the reply to the `FeedBatch` sent (or due) at `at` and logs
    /// it; `false` on anything else. Only acknowledged batches count toward
    /// throughput, so refusing requests faster never reads as a gain.
    fn feed_reply(
        &mut self,
        response: Result<Response, uns_service::ServiceError>,
        k: u64,
        batch: usize,
        clock: &Clock,
        at: Instant,
    ) -> bool {
        match response {
            Ok(Response::Fed { position, admitted, outputs }) if outputs.len() == batch => {
                let traced = clock.traced(at);
                self.fed.push(Fed { k, position, digest: digest(admitted, &outputs), traced });
                self.admitted += admitted;
                self.count_window_elems(clock, at, batch);
                true
            }
            _ => {
                self.failed += 1;
                false
            }
        }
    }

    /// Checks a read reply; `false` on an error reply.
    fn read_reply(
        &mut self,
        response: Result<Response, uns_service::ServiceError>,
        op: ReadOp,
    ) -> bool {
        match (op, response) {
            (ReadOp::Floor, Ok(Response::Value(_))) => true,
            (ReadOp::Stats, Ok(Response::Stats(stats))) => {
                self.stats_positions.push(stats.pipeline.elements);
                true
            }
            (ReadOp::Snapshot, Ok(Response::Snapshot(blob))) => {
                if ServiceSampler::restore(&blob).is_err() {
                    self.bad_reads += 1;
                }
                true
            }
            _ => {
                self.failed += 1;
                false
            }
        }
    }
}

/// What a connection thread needs to run.
pub struct ConnRun<'a> {
    pub conn: usize,
    pub tcp: TcpStream,
    pub stream: &'a str,
    pub load: Load,
    pub pool: &'a [NodeId],
    /// Whether this connection's requests feed the latency metrics.
    pub probe: bool,
    pub seed: u64,
    pub tracer: Option<Tracer>,
}

/// Closed loop: the next batch goes out when the previous reply is in,
/// until the window ends. Latency runs from the start of the call
/// (encode) to the decoded reply, as a `ServiceClient::feed_batch` caller
/// sees it.
pub fn run_closed(run: ConnRun<'_>, clock: &Clock) -> io::Result<ConnLog> {
    let ConnRun { conn, mut tcp, stream, load, pool, probe, tracer, .. } = run;
    let batch = load.batch().expect("closed loops write");
    let mut log = ConnLog::new(conn, tracer);
    let (mut send, mut recv) = (Vec::new(), Vec::new());
    let mut last_reply = Instant::now();
    // The send time of the previous batch, if it counts toward the cycles.
    let mut cycle_start: Option<Instant> = None;
    for k in 0u64.. {
        let t0 = Instant::now();
        if let Some(start) = cycle_start.take() {
            log.cycle_us.push(t0.duration_since(start).as_secs_f64() * 1e6);
        }
        if t0 >= clock.window_end {
            break;
        }
        let ids = batch_ids(pool, batch, k);
        Request::encode_batch(&mut send, true, stream, ids);
        let t1 = Instant::now();
        write_frame(&mut tcp, &send).map_err(io::Error::other)?;
        let t2 = Instant::now();
        if !read_frame(&mut tcp, &mut recv).map_err(io::Error::other)? {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let t3 = Instant::now();
        let response = Response::decode(&recv);
        let t4 = Instant::now();
        log.attempted += 1;
        let ok = log.feed_reply(response, k, batch, clock, t0);
        if clock.in_window(t0) && probe {
            log.probe(t4 - t0, ok);
            log.lag_us.push(t0.duration_since(last_reply).as_secs_f64() * 1e6);
        }
        if ok && clock.in_window(t0) {
            cycle_start = Some(t0);
        }
        if let (true, Some(tracer)) = (clock.traced(t0), log.tracers.first_mut()) {
            let req = request_id(conn, k);
            tracer.record(Layer::ClientEncode, req, t0, t1, batch);
            tracer.record(Layer::ClientSend, req, t1, t2, batch);
            tracer.record(Layer::ClientWait, req, t2, t3, batch);
            tracer.record(Layer::ClientDecode, req, t3, t4, batch);
        }
        last_reply = t4;
    }
    Ok(log)
}

#[derive(Clone, Copy, Debug)]
enum ReadOp {
    Floor,
    Stats,
    Snapshot,
}

/// A request on the wire, handed from the sender to the receiver.
struct Pending {
    due: Instant,
    sent: Instant,
    seq: u64,
    read: Option<ReadOp>,
    traced: bool,
}

/// Open loop: a sender sends every request when its Poisson due time
/// comes, pipelined, so a stalled server never slows the schedule; a
/// receiver reassembles the replies and times each request from when it
/// was due.
///
/// The two halves run on two threads because a socket read timeout is
/// rounded up to the kernel tick (4 ms at `HZ=250`): one thread waiting
/// for replies with a timeout bounded by the next due time would wake
/// milliseconds late. The sender sleeps on a high-resolution timer
/// instead, and the receiver blocks in `read` until a reply is complete.
pub fn run_open(run: ConnRun<'_>, clock: &Clock) -> io::Result<ConnLog> {
    let ConnRun { conn, mut tcp, stream, load, pool, probe, seed, tracer } = run;
    let (rate, batch) = match load {
        Load::OpenWrites { rate, batch } => (rate, Some(batch)),
        Load::OpenReads { rate } => (rate, None),
        Load::Closed { .. } => unreachable!("closed loops run in run_closed"),
    };
    let mut reader = tcp.try_clone()?;
    reader.set_read_timeout(Some(DRAIN_TIMEOUT))?;
    let receiver_tracer = tracer.as_ref().map(|t| t.sibling(format!("conn {conn} replies")));
    let (tx, rx) = mpsc::channel::<Pending>();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut log = ConnLog::new(conn, receiver_tracer);
            let mut recv = Vec::new();
            // Ends when the sender is done and every request is answered.
            for pending in rx {
                if !read_frame(&mut reader, &mut recv).map_err(io::Error::other)? {
                    return Err(io::Error::from(io::ErrorKind::UnexpectedEof));
                }
                let t3 = Instant::now();
                let response = Response::decode(&recv);
                let t4 = Instant::now();
                let ok = match (pending.read, batch) {
                    (None, Some(batch)) => {
                        log.feed_reply(response, pending.seq, batch, clock, pending.due)
                    }
                    (Some(op), _) => log.read_reply(response, op),
                    (None, None) => unreachable!("writes carry a batch"),
                };
                if clock.in_window(pending.due) && probe {
                    log.probe(t4 - pending.due, ok);
                }
                if let Some(batch) = batch {
                    if let (true, Some(tracer)) = (pending.traced, log.tracers.first_mut()) {
                        let req = request_id(conn, pending.seq);
                        tracer.record(Layer::ClientWait, req, pending.sent, t3, batch);
                        tracer.record(Layer::ClientDecode, req, t3, t4, batch);
                    }
                }
            }
            Ok(log)
        });
        let mut tracer = tracer;
        let mut schedule = PoissonSchedule::new(rate, sub_seed(seed, &[0x0FE7, conn as u64]));
        let mut mix = SplitMix::new(sub_seed(seed, &[0x4EAD, conn as u64]));
        let (mut send, mut attempted, mut lag_us) = (Vec::new(), 0u64, Vec::new());
        let sent = (|| -> io::Result<()> {
            for seq in 0u64.. {
                let due = clock.origin + Duration::from_nanos(schedule.next_due_ns());
                if due >= clock.window_end {
                    return Ok(());
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t0 = Instant::now();
                let read = match batch {
                    Some(batch) => {
                        Request::encode_batch(&mut send, true, stream, batch_ids(pool, batch, seq));
                        None
                    }
                    None => {
                        let u = mix.unit();
                        let op = if u < 0.6 {
                            ReadOp::Floor
                        } else if u < 0.9 {
                            ReadOp::Stats
                        } else {
                            ReadOp::Snapshot
                        };
                        match op {
                            ReadOp::Floor => Request::FloorEstimate { name: stream },
                            ReadOp::Stats => Request::Stats { name: stream },
                            ReadOp::Snapshot => Request::Snapshot { name: stream },
                        }
                        .encode(&mut send);
                        Some(op)
                    }
                };
                let t1 = Instant::now();
                write_frame(&mut tcp, &send).map_err(io::Error::other)?;
                let t2 = Instant::now();
                let traced = clock.traced(due);
                tx.send(Pending { due, sent: t2, seq, read, traced })
                    .map_err(|_| io::Error::other("the reply reader stopped"))?;
                attempted += 1;
                if probe && clock.in_window(due) {
                    lag_us.push(t0.duration_since(due).as_secs_f64() * 1e6);
                }
                if let (true, None, Some(tracer)) = (traced, read, tracer.as_mut()) {
                    let req = request_id(conn, seq);
                    let elems = batch.unwrap_or(0);
                    tracer.record(Layer::ClientEncode, req, t0, t1, elems);
                    tracer.record(Layer::ClientSend, req, t1, t2, elems);
                }
            }
            Ok(())
        })();
        drop(tx);
        let received =
            receiver.join().map_err(|_| io::Error::other("the reply reader panicked"))?;
        sent?;
        let mut log = received?;
        log.attempted = attempted;
        log.lag_us = lag_us;
        log.tracers.extend(tracer);
        Ok(log)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uns_service::ServiceError;

    #[test]
    fn only_acknowledged_batches_count_toward_throughput() {
        let origin = Instant::now();
        let clock = Clock {
            origin,
            window_start: origin,
            window_end: origin + Duration::from_secs(60),
            trace_slice: None,
        };
        let mut log = ConnLog::new(0, None);
        let fed = |n| Response::Fed { position: 4, admitted: 1, outputs: vec![NodeId::new(1); n] };
        assert!(log.feed_reply(Ok(fed(4)), 0, 4, &clock, origin));
        assert!(!log.feed_reply(Err(ServiceError::Busy), 1, 4, &clock, origin));
        assert!(!log.feed_reply(Err(ServiceError::RateLimited("x".into())), 2, 4, &clock, origin));
        assert!(!log.feed_reply(Ok(fed(3)), 3, 4, &clock, origin), "a short reply");
        assert_eq!((log.window_elems, log.failed, log.fed.len()), (4, 3, 1));
    }
}
