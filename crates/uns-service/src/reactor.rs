//! Readiness-based connection layer: one reactor thread, ten thousand
//! sockets.
//!
//! A sampling service sitting inside every node of a large overlay sees
//! thousands of mostly-idle peers, each sending a small batch every few
//! seconds. Ten thousand parked threads at ~8 MiB of stack reservation
//! apiece is the wrong tool. The reactor serves them from **one** thread
//! that owns the listener and every connection socket through the
//! vendored [`epoll`] poller. It drives each socket's bytes through the
//! sans-IO connection core (`conn.rs`) — the same state machine
//! in-process socket pairs run — and hands complete requests to the worker
//! pool through the bounded queues.
//! Nothing it runs waits on a worker or a disk: creation and restore are
//! worker jobs like any other, and replica shipments are jobs on the
//! replica applier. Two requests are answered at routing, on the reactor
//! thread: the CPU-only `Metrics` render, and `FloorEstimate`, one atomic
//! load of the floor that the stream's last answered write published.
//!
//! Replies leave from the thread that computed them (run to completion,
//! as in IX, Belay et al., OSDI 2014). When a connection has no reply
//! bytes pending at dispatch, the worker, release thread or replica
//! applier gets a share of its socket (`CompletionSender`), encodes the
//! reply frame and writes it to the nonblocking socket itself. The reactor
//! hears back through its completion queue only to resume parsing and to
//! take over any bytes the socket did not accept — usually none. The
//! socket is shared by `Arc`, never duplicated, so its descriptor closes
//! when the last holder drops it and no stray duplicate keeps an epoll
//! registration alive.
//!
//! What the reactor adds on top of the connection core:
//!
//! * a **connection cap** — accepts beyond [`ReactorConfig::max_connections`]
//!   are answered with a `Busy` frame and closed;
//! * the per-connection **token bucket** ([`RateLimit`]) and
//!   **buffered-bytes ceiling** ([`ReactorConfig::max_buffered_bytes`]),
//!   enforced by the core, with reads deregistered while a connection is
//!   paused;
//! * **accounting** — per-connection buffer memory in the
//!   `uns_reactor_buffered_bytes` gauge, alongside connection counts,
//!   rejection counters and how replies left (`uns_reactor_replies_total`,
//!   see [`crate::metrics`]).

use crate::conn::{with_reply_frame, Conn, Limiter};
use crate::metrics::ReactorMetrics;
use crate::protocol::Response;
use crate::server::{BufferPool, Dispatch, ReplyTo, Router, Server};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use uns_metrics::Counter;

/// Per-connection admission rate limit: a token bucket refilled at
/// [`RateLimit::per_sec`] with capacity [`RateLimit::burst`]. Each parsed
/// request spends one token; an empty bucket answers
/// [`crate::protocol::ErrorCode::RateLimited`] without involving a worker.
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Sustained requests per second each connection may submit.
    pub per_sec: u32,
    /// Bucket capacity: how far a quiet connection may burst.
    pub burst: u32,
}

/// Tuning knobs of [`Server::serve_reactor`].
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Most connections the reactor holds open at once. An accept beyond
    /// the cap is answered with a best-effort `Busy` frame and closed —
    /// a coded refusal, not a silent drop.
    pub max_connections: usize,
    /// Per-connection admission rate limit; `None` admits everything.
    pub rate_limit: Option<RateLimit>,
    /// Per-connection ceiling on buffered reply bytes. A peer that stops
    /// reading its replies gets its *requests* paused at this point —
    /// backpressure through the socket, never unbounded buffering.
    pub max_buffered_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self { max_connections: 10_240, rate_limit: None, max_buffered_bytes: 1 << 20 }
    }
}

/// Completion handle the replying thread holds for a reactor-routed job.
/// Never blocks.
pub(crate) struct CompletionSender {
    conn: u64,
    /// The connection's socket, when it had no reply bytes pending at
    /// dispatch ([`Conn::direct_reply`]): the reply may go out directly.
    socket: Option<Arc<TcpStream>>,
    completions: Arc<Completions>,
}

impl CompletionSender {
    /// Encodes the reply frame, writes what the socket takes without
    /// blocking (when this sender holds it), then queues the unsent tail —
    /// usually empty — for the reactor and wakes it. A failed write leaves
    /// the tail too: the reactor's flush meets the same error and closes
    /// the connection.
    pub(crate) fn send(self, response: Response) {
        let Self { conn, socket, completions } = self;
        let tail = with_reply_frame(response, &completions.pool, |frame| {
            let written = socket.as_deref().map_or(0, |socket| write_nonblocking(socket, frame));
            frame[written..].to_vec()
        });
        // Let go of the socket before the reactor may close the connection.
        drop(socket);
        let path = if tail.is_empty() { &completions.direct } else { &completions.deferred };
        path.inc();
        completions.queue.lock().expect("completion queue poisoned").push((conn, tail));
        completions.waker.wake();
    }
}

/// Writes `frame` to the nonblocking `socket` until it is out, the socket
/// would block, or the write fails. Returns the bytes written.
fn write_nonblocking(mut socket: &TcpStream, frame: &[u8]) -> usize {
    let mut written = 0;
    while written < frame.len() {
        match socket.write(&frame[written..]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    written
}

/// What replying threads share with the reactor: the queue of reply bytes
/// they left for it (per connection, what its socket did not take), the
/// waker that interrupts its poller wait, the buffer pool Fed outputs
/// recycle into, and the direct/deferred reply counters.
struct Completions {
    queue: Mutex<Vec<(u64, Vec<u8>)>>,
    waker: Arc<epoll::Waker>,
    pool: Arc<BufferPool>,
    direct: Arc<Counter>,
    deferred: Arc<Counter>,
}

/// What a settle pass needs besides the connection: routing, replies, and
/// the tick's clock reading.
struct Ctx<'a> {
    router: &'a Router,
    completions: &'a Arc<Completions>,
    now: Instant,
}

impl Ctx<'_> {
    /// Submits `next` — and whatever a bounce lets the connection parse
    /// next — to the workers, sharing the socket with the replying thread
    /// when no reply bytes are pending; a bounced dispatch is answered on
    /// the spot.
    fn submit(&self, slot: &mut Slot, token: u64, mut next: Option<Dispatch>) {
        while let Some(dispatch) = next {
            let reply = CompletionSender {
                conn: token,
                socket: slot.conn.direct_reply().then(|| Arc::clone(&slot.stream)),
                completions: Arc::clone(self.completions),
            };
            next = match self.router.submit(dispatch, ReplyTo::Reactor(reply)) {
                None => None,
                Some(bounce) => with_reply_frame(bounce, &self.router.pool, |frame| {
                    slot.conn.complete(frame, self.router, self.now)
                }),
            };
        }
    }
}

/// Poller token of the listener.
const LISTENER: u64 = 0;
/// Poller token of the completion waker.
const WAKER: u64 = 1;
/// First connection token.
const FIRST_CONN: u64 = 2;

/// How long the listener stays deregistered after an accept failure that
/// retrying cannot clear (fd exhaustion): level-triggered epoll would
/// otherwise re-report the still-queued connection on every wait and
/// hot-spin the reactor at 100% CPU.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Defensive upper bound on one poller wait; the waker is the real
/// signal for stop() and completions.
const WAIT_TIMEOUT: Duration = Duration::from_secs(1);

/// How often the reactor returns the buffers of quiet connections to a
/// small footprint ([`Conn::trim`]). A connection served since the
/// previous sweep keeps its buffers, so one that keeps sending large
/// frames does not reallocate them per request; one gone quiet is
/// trimmed within two periods.
const TRIM_PERIOD: Duration = Duration::from_secs(1);

/// One connection owned by the reactor: its socket and its core.
struct Slot {
    /// Shared with the thread computing the in-flight reply, if that
    /// thread may write it directly.
    stream: Arc<TcpStream>,
    conn: Conn,
    /// Interest currently registered with the poller.
    interest: epoll::Interest,
    /// Bytes currently accounted into the buffered-bytes gauge.
    accounted: i64,
    /// Settled since the last trim sweep: its buffers stay.
    served: bool,
}

/// Runs the reactor loop on the calling thread until [`Server::stop`].
pub(crate) fn run(server: &Server, listener: TcpListener, config: ReactorConfig) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = epoll::Poller::new()?;
    poller.register(&listener, LISTENER, epoll::Interest::READ)?;
    let waker = Arc::new(epoll::Waker::new(&poller, WAKER)?);
    // Register with the server so stop() reaches a reactor mid-wait; the
    // guard unregisters on every exit path.
    server.accept_wakers.lock().expect("accept waker lock poisoned").push(Arc::clone(&waker));
    let _guard = WakerGuard { server, waker: Arc::clone(&waker) };
    let router = &*server.router;
    let rmetrics = server.metrics().reactor();
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        waker,
        pool: Arc::clone(&router.pool),
        direct: Arc::clone(&rmetrics.replies_direct),
        deferred: Arc::clone(&rmetrics.replies_deferred),
    });
    let mut slots: HashMap<u64, Slot> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut events: Vec<epoll::Event> = Vec::new();
    let mut done: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    // When set, the listener is deregistered until this instant (accept
    // backoff after fd exhaustion).
    let mut accept_resume: Option<Instant> = None;
    let mut next_trim = Instant::now() + TRIM_PERIOD;

    while !server.shutdown.load(Ordering::Relaxed) {
        // The wakers are the real signal for stop() and completions; the
        // timeout is a defensive bound, not a polling cadence — unless
        // the listener is parked, in which case it must also cover the
        // re-arm deadline.
        let timeout = accept_resume.map_or(WAIT_TIMEOUT, |at| {
            at.saturating_duration_since(Instant::now()).min(WAIT_TIMEOUT)
        });
        poller.wait(&mut events, Some(timeout))?;
        completions.waker.drain();
        let ctx = Ctx { router, completions: &completions, now: Instant::now() };

        if let Some(at) = accept_resume {
            if ctx.now >= at {
                // Level-triggered: connections that queued while parked
                // make the listener readable on the very next wait.
                poller.register(&listener, LISTENER, epoll::Interest::READ)?;
                accept_resume = None;
            }
        }

        // Completions first: they free connections to resume parsing
        // frames that are already buffered (no readable event will
        // re-announce bytes we hold in userspace).
        done.append(&mut completions.queue.lock().expect("completion queue poisoned"));
        for (token, tail) in done.drain(..) {
            // The connection died while its job was in flight: the unsent
            // tail goes nowhere.
            let Some(slot) = slots.get_mut(&token) else { continue };
            let next = slot.conn.complete(&tail, router, ctx.now);
            ctx.submit(slot, token, next);
            touched.push(token);
        }

        for event in &events {
            match event.token {
                LISTENER => {
                    let backoff = accept_ready(
                        server,
                        &listener,
                        &poller,
                        &config,
                        &rmetrics,
                        &mut slots,
                        &mut next_token,
                        ctx.now,
                    )?;
                    if backoff {
                        // Persistent accept failure (fd exhaustion):
                        // park the listener briefly instead of spinning
                        // on a readiness we cannot act on.
                        let _ = poller.deregister(&listener);
                        accept_resume = Some(ctx.now + ACCEPT_BACKOFF);
                    }
                }
                WAKER => {}
                token => {
                    let Some(slot) = slots.get_mut(&token) else { continue };
                    if event.readable {
                        while let Some(space) = slot.conn.read_space() {
                            let read = (&*slot.stream).read(space);
                            if !slot.conn.received(read) {
                                break;
                            }
                        }
                        let next = slot.conn.advance(router, ctx.now);
                        ctx.submit(slot, token, next);
                    }
                    touched.push(token);
                }
            }
        }

        // Settle every touched connection once: flush writes, re-arm
        // interest, account memory, close the finished.
        touched.sort_unstable();
        touched.dedup();
        for token in touched.drain(..) {
            let Some(slot) = slots.get_mut(&token) else { continue };
            flush(slot, token, &ctx);
            slot.served = true;
            account(slot, &rmetrics);
            if slot.conn.finished() {
                let slot = slots.remove(&token).expect("present above");
                close(&poller, slot, &rmetrics);
            } else {
                rearm(&poller, slot, token);
            }
        }

        if ctx.now >= next_trim {
            for slot in slots.values_mut() {
                if !std::mem::take(&mut slot.served) {
                    slot.conn.trim();
                    account(slot, &rmetrics);
                }
            }
            next_trim = ctx.now + TRIM_PERIOD;
        }
    }

    // Orderly exit: drop every connection (sockets close; completions for
    // jobs still in flight land in a queue nobody drains).
    for (_, slot) in slots.drain() {
        close(&poller, slot, &rmetrics);
    }
    Ok(())
}

/// Unregisters the reactor's stop waker from the server on drop.
struct WakerGuard<'a> {
    server: &'a Server,
    waker: Arc<epoll::Waker>,
}

impl Drop for WakerGuard<'_> {
    fn drop(&mut self) {
        let mut wakers = self.server.accept_wakers.lock().expect("accept waker lock poisoned");
        wakers.retain(|registered| !Arc::ptr_eq(registered, &self.waker));
    }
}

/// Drains the listener: admit up to the cap, refuse the rest with a coded
/// `Busy` frame. Returns `true` when the caller should park the listener
/// briefly (an accept failure retrying cannot clear, e.g. fd exhaustion).
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    server: &Server,
    listener: &TcpListener,
    poller: &epoll::Poller,
    config: &ReactorConfig,
    rmetrics: &ReactorMetrics,
    slots: &mut HashMap<u64, Slot>,
    next_token: &mut u64,
    now: Instant,
) -> io::Result<bool> {
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            // The handshake died before we got to it: skip that one
            // connection, keep draining the queue for everyone else.
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset
                ) =>
            {
                continue
            }
            Err(err) if server.shutdown.load(Ordering::Relaxed) => return Err(err),
            // Anything else — EMFILE/ENFILE fd exhaustion being the
            // realistic case — will not clear by retrying, and the
            // still-queued connection keeps the level-triggered listener
            // readable forever: back off instead of hot-spinning.
            Err(_) => return Ok(true),
        };
        if slots.len() >= config.max_connections {
            refuse(stream, rmetrics);
            continue;
        }
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        if poller.register(&stream, token, epoll::Interest::READ).is_err() {
            continue;
        }
        rmetrics.accepted.inc();
        rmetrics.connections.inc();
        let limiter = config
            .rate_limit
            .map(|limit| Limiter::new(limit, Arc::clone(&rmetrics.rate_limited), now));
        let conn = Conn::new(config.max_buffered_bytes, limiter);
        let stream = Arc::new(stream);
        let interest = epoll::Interest::READ;
        slots.insert(token, Slot { stream, conn, interest, accounted: 0, served: false });
    }
}

/// Best-effort coded refusal of an over-cap accept: one `Busy` frame,
/// then the socket drops.
fn refuse(mut stream: TcpStream, rmetrics: &ReactorMetrics) {
    rmetrics.rejected.inc();
    let mut frame = Vec::new();
    crate::conn::push_frame(&Response::Busy, &mut frame);
    stream.set_nonblocking(true).ok();
    let _ = stream.write(&frame);
}

/// Writes pending reply bytes until the socket would block. Each write
/// feeds back into the core, which may parse (and dispatch) further
/// frames the drain unblocked — their replies join the same flush.
fn flush(slot: &mut Slot, token: u64, ctx: &Ctx<'_>) {
    loop {
        let output = slot.conn.output();
        if output.is_empty() {
            return;
        }
        match (&*slot.stream).write(output) {
            Ok(0) => return slot.conn.fail(),
            Ok(n) => {
                let next = slot.conn.consume(n, ctx.router, ctx.now);
                ctx.submit(slot, token, next);
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return slot.conn.fail(),
        }
    }
}

/// Re-registers the connection's poller interest to match its core:
/// reads unless paused, writes only while replies are pending.
fn rearm(poller: &epoll::Poller, slot: &mut Slot, token: u64) {
    // No reads after EOF either (the core stops wanting them): a hung-up
    // fd stays level-triggered readable forever and would spin the
    // reactor while replies drain.
    let want =
        epoll::Interest { read: slot.conn.wants_read(), write: !slot.conn.output().is_empty() };
    if want.read != slot.interest.read || want.write != slot.interest.write {
        if poller.modify(&*slot.stream, token, want).is_ok() {
            slot.interest = want;
        } else {
            slot.conn.fail(); // unpollable socket: give it up next settle
        }
    }
}

/// Brings the buffered-bytes gauge up to date with the connection's
/// buffer capacity.
fn account(slot: &mut Slot, rmetrics: &ReactorMetrics) {
    let now = i64::try_from(slot.conn.capacity()).unwrap_or(i64::MAX);
    rmetrics.buffered_bytes.add(now - slot.accounted);
    slot.accounted = now;
}

/// Deregisters and drops one connection, releasing its accounted memory.
fn close(poller: &epoll::Poller, slot: Slot, rmetrics: &ReactorMetrics) {
    let _ = poller.deregister(&*slot.stream);
    rmetrics.buffered_bytes.add(-slot.accounted);
    rmetrics.connections.dec();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceClient;
    use crate::error::ServiceError;
    use crate::protocol::{EstimatorKind, Request, StreamConfig};
    use crate::server::{Server, ServerConfig};
    use uns_core::NodeId;
    use uns_sketch::HashFamilyKind;

    fn stream_config() -> StreamConfig {
        StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 8,
            width: 10,
            depth: 4,
            seed: 7,
            family: HashFamilyKind::Mersenne,
        }
    }

    fn ids(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    /// Stops the server when dropped, so a panicking test body fails
    /// instead of leaving the reactor thread to be joined forever.
    struct StopOnDrop<'a>(&'a Server);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.stop();
        }
    }

    /// Spawns a reactor, runs `body` against its address, stops cleanly.
    fn with_reactor(config: ReactorConfig, body: impl FnOnce(std::net::SocketAddr, &Server)) {
        let server = Server::start(ServerConfig { workers: 2, queue_depth: 16 });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_reactor(listener, config));
            let stop = StopOnDrop(&server);
            body(addr, &server);
            drop(stop);
            handle.join().expect("reactor thread").expect("reactor exit");
        });
    }

    #[test]
    fn reactor_serves_the_full_wire_protocol() {
        with_reactor(ReactorConfig::default(), |addr, server| {
            let mut client =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            client.create_stream("r", &stream_config()).expect("create");
            let ack = client.feed_batch("r", &ids(500)).expect("feed");
            assert_eq!(ack.outputs.len(), 500);
            assert_eq!(ack.position, 500);
            let floor = client.floor_estimate("r").expect("floor");
            let stats = client.stats("r").expect("stats");
            assert_eq!(stats.pipeline.elements, 500);
            let blob = client.snapshot("r").expect("snapshot");
            client.restore("r2", &blob).expect("restore");
            let _ = client.sample("r").expect("sample");
            assert!(client.floor_estimate("r2").expect("floor r2") == floor);
            // Unknown stream still errors through the same routing.
            assert!(matches!(
                client.stats("missing"),
                Err(ServiceError::UnknownStream(_) | ServiceError::Remote(_))
            ));
            let text = client.metrics().expect("metrics");
            assert!(text.contains("uns_reactor_connections"));
            assert_eq!(server.metrics().reactor().connections.get(), 1);
        });
    }

    #[test]
    fn reactor_reply_stream_matches_the_blocking_path_bit_for_bit() {
        // Same ops through the blocking in-process path and the reactor:
        // the snapshots must be byte-identical.
        let blocking = Server::start(ServerConfig { workers: 2, queue_depth: 16 });
        let mut reference = ServiceClient::new(blocking.connect_in_process()).expect("client");
        reference.create_stream("s", &stream_config()).expect("create");
        reference.feed_batch("s", &ids(2000)).expect("feed");
        let want = reference.snapshot("s").expect("snapshot");

        with_reactor(ReactorConfig::default(), |addr, _server| {
            let mut client =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            client.create_stream("s", &stream_config()).expect("create");
            client.feed_batch("s", &ids(2000)).expect("feed");
            let got = client.snapshot("s").expect("snapshot");
            assert_eq!(got, want, "reactor transport altered the stream state");
        });
    }

    #[test]
    fn a_flood_is_rate_limited_with_coded_errors_and_recovers() {
        let config = ReactorConfig {
            rate_limit: Some(RateLimit { per_sec: 5, burst: 3 }),
            ..ReactorConfig::default()
        };
        with_reactor(config, |addr, server| {
            let mut client =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            client.create_stream("f", &stream_config()).expect("create");
            let batch = ids(16);
            let mut limited = 0;
            for _ in 0..20 {
                match client.feed_batch("f", &batch) {
                    Ok(_) => {}
                    Err(ServiceError::RateLimited(_)) => limited += 1,
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            assert!(limited > 0, "a 20-request burst against burst=3 must trip the limiter");
            assert!(server.metrics().reactor().rate_limited.get() >= u64::from(limited > 0));
            // The connection is policed, not poisoned: waiting refills
            // the bucket and the same connection works again.
            std::thread::sleep(Duration::from_millis(400));
            client.feed_batch("f", &batch).expect("recovered after backoff");
        });
    }

    #[test]
    fn pipelined_replies_beyond_the_write_ceiling_all_arrive() {
        // Regression (review finding 1): once buffered replies tripped
        // max_buffered_bytes, nothing re-ran the parser after the drain —
        // complete frames sat in read_buf forever (no socket bytes means
        // no readable event) and the connection hung. Pipeline many
        // Metrics requests (immediate replies, each larger than the tiny
        // ceiling here), stop sending, and demand every reply.
        const REQUESTS: usize = 50;
        let config = ReactorConfig { max_buffered_bytes: 1024, ..ReactorConfig::default() };
        with_reactor(config, |addr, _server| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            let mut body = Vec::new();
            Request::Metrics.encode(&mut body);
            for _ in 0..REQUESTS {
                crate::wire::write_frame(&mut stream, &body).expect("pipelined request");
            }
            let mut frame = Vec::new();
            for i in 0..REQUESTS {
                let got = crate::wire::read_frame(&mut stream, &mut frame)
                    .unwrap_or_else(|err| panic!("reply {i} never arrived: {err}"));
                assert!(got, "connection closed before reply {i}");
                assert!(matches!(
                    Response::decode(&frame).expect("reply decodes"),
                    Response::Metrics(_)
                ));
            }
        });
    }

    #[test]
    fn a_half_closing_client_receives_every_buffered_reply() {
        // Regression (review finding 2): read-side EOF closed the
        // connection even with replies still buffered, truncating the
        // tail for a legal write-all/shutdown(WR)/read-all client. Large
        // snapshot replies plus a deliberate read delay force the flush
        // to hit WouldBlock while EOF is already seen.
        const REQUESTS: usize = 40;
        with_reactor(ReactorConfig::default(), |addr, _server| {
            let mut setup =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            let big = StreamConfig { width: 4096, depth: 8, ..stream_config() };
            setup.create_stream("half", &big).expect("create");
            setup.feed_batch("half", &ids(100)).expect("feed");

            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            let mut body = Vec::new();
            Request::Snapshot { name: "half" }.encode(&mut body);
            for _ in 0..REQUESTS {
                crate::wire::write_frame(&mut stream, &body).expect("pipelined request");
            }
            stream.shutdown(std::net::Shutdown::Write).expect("half-close");
            // Let the reactor see EOF and buffer replies past the kernel
            // send buffer before we start draining.
            std::thread::sleep(Duration::from_millis(300));
            let mut frame = Vec::new();
            for i in 0..REQUESTS {
                let got = crate::wire::read_frame(&mut stream, &mut frame)
                    .unwrap_or_else(|err| panic!("reply {i} truncated after half-close: {err}"));
                assert!(got, "connection closed before reply {i}");
                assert!(matches!(
                    Response::decode(&frame).expect("reply decodes"),
                    Response::Snapshot(_)
                ));
            }
        });
    }

    #[test]
    fn a_frame_larger_than_the_read_pause_cap_still_parses() {
        // The unparsed-bytes cap is unconditional now; a single frame
        // bigger than READ_PAUSE_BYTES must still be read to completion
        // (the mid_frame exception) instead of stalling.
        with_reactor(ReactorConfig::default(), |addr, _server| {
            let mut client =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            client.create_stream("big", &stream_config()).expect("create");
            let batch = ids(20_000); // 160 KB frame, ~2.5x READ_PAUSE_BYTES
            let ack = client.feed_batch("big", &batch).expect("oversized frame feeds");
            assert_eq!(ack.outputs.len(), 20_000);
        });
    }

    #[test]
    fn pipelined_large_replies_to_a_late_reader_arrive_whole_and_in_order() {
        // 20k-id FeedBatch replies (~160 KB each), pipelined to a peer that
        // starts reading only once a direct write met a full socket and
        // left its tail to the reactor; the reply stream must still be
        // exactly the sequential one. 48 replies are ~7.7 MB, beyond what
        // loopback buffers for a peer that is not reading (~4 MB at
        // Linux's default limits) plus the 1 MiB write ceiling.
        const BATCHES: u64 = 48;
        const BATCH: u64 = 20_000;
        let batch = |b: u64| -> Vec<NodeId> {
            (b * BATCH..(b + 1) * BATCH).map(|i| NodeId::new(i % 5_000)).collect()
        };
        let blocking = Server::start(ServerConfig { workers: 2, queue_depth: 16 });
        let mut reference = ServiceClient::new(blocking.connect_in_process()).expect("client");
        reference.create_stream("p", &stream_config()).expect("create");
        for b in 0..BATCHES {
            reference.feed_batch("p", &batch(b)).expect("feed");
        }
        let want = reference.snapshot("p").expect("snapshot");

        with_reactor(ReactorConfig::default(), |addr, server| {
            let mut setup =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            setup.create_stream("p", &stream_config()).expect("create");
            let mut reader = TcpStream::connect(addr).expect("connect");
            reader.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
            let mut writer = reader.try_clone().expect("clone");
            writer.set_write_timeout(Some(Duration::from_secs(30))).expect("timeout");
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let mut body = Vec::new();
                    for b in 0..BATCHES {
                        body.clear();
                        Request::encode_batch(&mut body, true, "p", &batch(b));
                        crate::wire::write_frame(&mut writer, &body).expect("pipelined batch");
                    }
                });
                let deferred = server.metrics().reactor().replies_deferred;
                let deadline = Instant::now() + Duration::from_secs(60);
                while deferred.get() == 0 {
                    assert!(Instant::now() < deadline, "no reply ever met a full socket");
                    std::thread::sleep(Duration::from_millis(5));
                }
                let mut frame = Vec::new();
                for b in 0..BATCHES {
                    let got = crate::wire::read_frame(&mut reader, &mut frame)
                        .unwrap_or_else(|err| panic!("reply {b} never arrived whole: {err}"));
                    assert!(got, "connection closed before reply {b}");
                    match Response::decode(&frame).expect("reply decodes") {
                        Response::Fed { position, outputs, .. } => {
                            assert_eq!(position, (b + 1) * BATCH, "reply {b} out of order");
                            assert_eq!(outputs.len() as u64, BATCH);
                        }
                        other => panic!("reply {b}: expected Fed, got {other:?}"),
                    }
                }
            });
            let got = setup.snapshot("p").expect("snapshot");
            assert_eq!(got, want, "direct reply writes altered the stream state");
        });
    }

    #[test]
    fn closed_loop_replies_leave_from_the_replying_thread() {
        with_reactor(ReactorConfig::default(), |addr, server| {
            let mut client =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            client.create_stream("d", &stream_config()).expect("create");
            // The reactor answers a Metrics request only after the previous
            // reply's completion resumed parsing, so once it is in, the
            // reply counters have settled.
            client.metrics().expect("metrics");
            let reactor = server.metrics().reactor();
            let (direct, deferred) = (reactor.replies_direct.get(), reactor.replies_deferred.get());
            for i in 1..=20 {
                client.feed_batch("d", &ids(64)).expect("feed");
                client.metrics().expect("metrics");
                assert_eq!(reactor.replies_direct.get(), direct + i, "reply {i} was not direct");
            }
            assert_eq!(reactor.replies_deferred.get(), deferred);
        });
    }

    #[test]
    fn a_peer_hanging_up_on_a_large_reply_leaves_the_others_served() {
        with_reactor(ReactorConfig::default(), |addr, server| {
            let mut other =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            other.create_stream("h", &stream_config()).expect("create");
            let mut body = Vec::new();
            Request::encode_batch(&mut body, true, "h", &ids(20_000));
            let mut rude = TcpStream::connect(addr).expect("connect");
            crate::wire::write_frame(&mut rude, &body).expect("batch");
            drop(rude); // hangs up without reading its reply
            for _ in 0..5 {
                other.feed_batch("h", &ids(100)).expect("the other connection still serves");
            }
            drop(other);
            let connections = server.metrics().reactor().connections;
            let deadline = Instant::now() + Duration::from_secs(10);
            while connections.get() != 0 {
                assert!(
                    Instant::now() < deadline,
                    "{} connections never closed",
                    connections.get()
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        });
    }

    #[test]
    fn accepts_beyond_the_connection_cap_are_refused_with_busy() {
        let config = ReactorConfig { max_connections: 1, ..ReactorConfig::default() };
        with_reactor(config, |addr, server| {
            let mut first =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            first.create_stream("c", &stream_config()).expect("create");
            // Second connection: refused with a coded Busy frame.
            let mut second =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            match second.floor_estimate("c") {
                Err(ServiceError::Busy) | Err(ServiceError::Io(_)) => {}
                other => panic!("expected a Busy refusal, got {other:?}"),
            }
            assert_eq!(server.metrics().reactor().rejected.get(), 1);
            // The admitted connection is unaffected.
            first.feed_batch("c", &ids(10)).expect("first connection still serves");
        });
    }
}
