//! The sans-IO connection core: framing, reply order and admission for
//! one connection, whatever carries its bytes.
//!
//! A [`Conn`] touches no socket, poller or clock. Its driver passes in
//! what a read returned, how many reply bytes a write took, the encoded
//! worker replies, and the current [`Instant`]; `Conn` hands back worker
//! [`Dispatch`]es, reply bytes ([`Conn::output`]), and whether the
//! connection is done ([`Conn::finished`]). Two drivers run it: the epoll
//! reactor for TCP ([`crate::reactor`]) and [`pump`], a blocking loop over
//! any [`Transport`] — in-process socket pairs, fault-injecting wrappers,
//! and TCP where the poller is unsupported. The rules below therefore hold for
//! every connection the server has:
//!
//! * **Framing** — `[u32 len][body]` frames are reassembled from any
//!   chunking. A length above [`MAX_FRAME_LEN`] or an undecodable body
//!   poisons the stream: it is answered once, then the connection closes.
//! * **Order** — at most one worker-bound request is in flight, and
//!   parsing pauses until its reply is in, so replies leave in request
//!   order and a pipelining flood is self-clocking. Nothing is appended
//!   to the output while a request is in flight, so when none was pending
//!   at dispatch ([`Conn::direct_reply`]) the thread that computes the
//!   reply may write it to the transport itself; only the bytes the
//!   transport did not take come back through [`Conn::complete`].
//! * **Read pause** — at most [`READ_PAUSE_BYTES`] of unparsed input are
//!   buffered, except that a partly read frame is always read to its end
//!   (no amount of waiting makes a half frame parseable).
//! * **Write ceiling** — parsing pauses while `max_buffered_bytes` of
//!   replies wait for the peer. Consuming output resumes it: a throttled
//!   connection can hold complete frames that no readable event will
//!   ever re-announce.
//! * **EOF versus broken** — a read-side EOF means no more requests, not
//!   "close now": a half-closing peer is still owed every reply. A failed
//!   read or write closes at once.
//! * **Admission** — an optional token bucket ([`RateLimit`]) answers
//!   excess requests `RateLimited` without involving a worker.

use crate::protocol::{ErrorCode, Request, Response};
use crate::reactor::{RateLimit, ReactorConfig};
use crate::server::{BufferPool, Dispatch, Routed, Router};
use crate::transport::Transport;
use crate::wire::MAX_FRAME_LEN;
use std::cell::RefCell;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use uns_metrics::Counter;

/// How many unparsed request bytes a connection may buffer before its
/// reads pause — with or without a request in flight, a flood larger than
/// this waits in the kernel socket buffer, not in our memory. A partly
/// read frame is the exception (bounded by [`MAX_FRAME_LEN`]).
pub(crate) const READ_PAUSE_BYTES: usize = 64 * 1024;

/// Smallest read offered to the driver. Small on purpose: ten thousand
/// idle connections each pin roughly this much.
const READ_CHUNK: usize = 2048;

/// Buffer capacity above which an idle buffer is shrunk back, so one large
/// frame does not pin its high-water mark forever.
const TRIM_CAP: usize = 16 * 1024;

/// Capacity above which a thread's reply encode buffer is dropped after
/// use instead of kept: the Feed reply of the largest pooled batch fits.
const FRAME_KEEP: usize = 256 * 1024;

/// Per-connection token bucket ([`RateLimit`]).
pub(crate) struct Limiter {
    limit: RateLimit,
    tokens: f64,
    last_refill: Instant,
    /// Requests this connection had bounced (`uns_reactor_rate_limited_total`).
    bounced: Arc<Counter>,
}

impl Limiter {
    /// A full bucket at `now`.
    pub(crate) fn new(limit: RateLimit, bounced: Arc<Counter>, now: Instant) -> Self {
        Self { limit, tokens: f64::from(limit.burst), last_refill: now, bounced }
    }

    /// Spends one token, refilling the bucket first.
    fn admit(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last_refill).as_secs_f64();
        self.last_refill = self.last_refill.max(now);
        let burst = f64::from(self.limit.burst);
        self.tokens = (self.tokens + elapsed * f64::from(self.limit.per_sec)).min(burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            self.bounced.inc();
            false
        }
    }
}

/// The state machine of one connection (see the module docs).
pub(crate) struct Conn {
    /// Reassembly buffer: unparsed bytes are `read_buf[read_pos..read_end]`;
    /// what lies beyond `read_end` is spare room for the next read.
    read_buf: Vec<u8>,
    read_pos: usize,
    read_end: usize,
    /// Encoded reply frames; unsent bytes are `write_buf[write_pos..]`.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// A worker-bound request awaits [`Conn::complete`].
    inflight: bool,
    max_buffered_bytes: usize,
    limiter: Option<Limiter>,
    /// The stream is poisoned: flush what is owed, then close.
    closing: bool,
    /// The peer hung up its write side: no more requests.
    eof: bool,
    /// The transport failed: replies are undeliverable, close now.
    broken: bool,
}

impl Conn {
    /// A fresh connection pausing its parser at `max_buffered_bytes` of
    /// unsent replies, admitting requests through `limiter` if any.
    pub(crate) fn new(max_buffered_bytes: usize, limiter: Option<Limiter>) -> Self {
        Self {
            read_buf: Vec::new(),
            read_pos: 0,
            read_end: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: false,
            max_buffered_bytes,
            limiter,
            closing: false,
            eof: false,
            broken: false,
        }
    }

    /// Whether the driver should read: not closing, not hung up, not
    /// broken, below the read pause (or mid-frame), below the write
    /// ceiling.
    pub(crate) fn wants_read(&self) -> bool {
        !self.closing
            && !self.eof
            && !self.broken
            && (self.read_end - self.read_pos < READ_PAUSE_BYTES || self.frame_remainder() > 0)
            && self.pending() < self.max_buffered_bytes
    }

    /// Room for the driver's next read, or `None` while reads are paused
    /// ([`Conn::wants_read`]). The offer grows with the frame being read
    /// (up to [`READ_PAUSE_BYTES`] per read), so a large frame takes few
    /// reads, while a length prefix alone never allocates what it claims.
    /// The consumed prefix is dropped first, also while a request is in
    /// flight, so frames that arrive before their predecessor's reply
    /// reuse the buffer instead of growing it. Report the read's outcome
    /// to [`Conn::received`].
    pub(crate) fn read_space(&mut self) -> Option<&mut [u8]> {
        if !self.wants_read() {
            return None;
        }
        self.compact();
        let offer = self.frame_remainder().clamp(READ_CHUNK, READ_PAUSE_BYTES);
        let want = self.read_end + offer;
        if self.read_buf.len() < want {
            self.read_buf.resize(want, 0);
        }
        Some(&mut self.read_buf[self.read_end..])
    }

    /// Takes the outcome of a read into [`Conn::read_space`]. Returns
    /// whether reading again may yield more (false on EOF, `WouldBlock`
    /// and errors). A read *error* (reset, timeout) is a dead transport,
    /// not a graceful half-close.
    pub(crate) fn received(&mut self, read: io::Result<usize>) -> bool {
        match read {
            Ok(0) => self.eof = true,
            Ok(n) => {
                self.read_end += n;
                return true;
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => return true,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => self.broken = true,
        }
        false
    }

    /// The transport failed writing: replies are undeliverable.
    pub(crate) fn fail(&mut self) {
        self.broken = true;
    }

    /// Parses and routes the buffered frames, answering what needs no
    /// worker, until a partial frame, the write ceiling, a close, or a
    /// worker-bound request — returned for the driver to submit; its reply
    /// goes to [`Conn::complete`]. Call after every [`Conn::received`].
    #[must_use]
    pub(crate) fn advance(&mut self, router: &Router, now: Instant) -> Option<Dispatch> {
        loop {
            if self.inflight || self.closing || self.broken {
                return None;
            }
            if self.pending() >= self.max_buffered_bytes {
                return None;
            }
            let unparsed = &self.read_buf[self.read_pos..self.read_end];
            if unparsed.len() < 4 {
                return None;
            }
            let body_len =
                u32::from_le_bytes(unparsed[..4].try_into().expect("length checked")) as usize;
            if body_len > MAX_FRAME_LEN {
                let message = format!("{body_len}-byte frame exceeds the {MAX_FRAME_LEN}-byte cap");
                self.respond(Response::Error { code: ErrorCode::Other, message }, router);
                self.closing = true;
                return None;
            }
            if unparsed.len() < 4 + body_len {
                return None;
            }
            let body = self.read_pos + 4..self.read_pos + 4 + body_len;
            self.read_pos = body.end;
            // Admission: one token per request, parsed or not. A flood is
            // answered with coded errors at memcpy speed and never reaches
            // the worker queues honest connections share.
            if let Some(limiter) = self.limiter.as_mut() {
                if !limiter.admit(now) {
                    let RateLimit { per_sec, burst } = limiter.limit;
                    let message = format!("connection exceeded {per_sec}/s (burst {burst})");
                    self.respond(Response::Error { code: ErrorCode::RateLimited, message }, router);
                    continue;
                }
            }
            let routed = match Request::decode(&self.read_buf[body]) {
                Ok(request) => router.route(&request),
                Err(err) => {
                    let message = err.to_string();
                    self.respond(Response::Error { code: ErrorCode::Other, message }, router);
                    self.closing = true;
                    return None;
                }
            };
            match routed {
                Routed::Immediate(response) => self.respond(response, router),
                Routed::Dispatch(dispatch) => {
                    self.inflight = true;
                    return Some(dispatch);
                }
            }
        }
    }

    /// Whether the reply to the request just dispatched may be written to
    /// the transport by the thread that computes it: only when no earlier
    /// reply bytes are pending, so the direct write cannot overtake them.
    /// Nothing appends output while the request is in flight, so the
    /// answer holds until [`Conn::complete`].
    pub(crate) fn direct_reply(&self) -> bool {
        self.pending() == 0
    }

    /// Takes the in-flight request's encoded reply frame (a worker's, or
    /// the driver's bounce) — or, after a direct write, whatever part of
    /// it the transport did not take, possibly nothing — and resumes
    /// parsing.
    #[must_use]
    pub(crate) fn complete(
        &mut self,
        reply: &[u8],
        router: &Router,
        now: Instant,
    ) -> Option<Dispatch> {
        self.inflight = false;
        self.write_buf.extend_from_slice(reply);
        self.advance(router, now)
    }

    /// Encoded reply bytes waiting for the transport.
    pub(crate) fn output(&self) -> &[u8] {
        &self.write_buf[self.write_pos..]
    }

    /// Marks `n` bytes of [`Conn::output`] as written, then resumes
    /// parsing: the drain may have lifted the write ceiling over frames
    /// already buffered.
    #[must_use]
    pub(crate) fn consume(&mut self, n: usize, router: &Router, now: Instant) -> Option<Dispatch> {
        self.write_pos += n;
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        self.advance(router, now)
    }

    /// Whether the connection is done: the transport failed, or the peer
    /// hung up / the stream was poisoned **and** every owed reply is out
    /// with nothing left in flight.
    pub(crate) fn finished(&self) -> bool {
        if self.broken {
            return true;
        }
        (self.eof || self.closing) && !self.inflight && self.pending() == 0
    }

    /// Buffer capacity this connection pins (reassembly plus replies).
    pub(crate) fn capacity(&self) -> usize {
        self.read_buf.capacity() + self.write_buf.capacity()
    }

    /// Returns the buffers to a small footprint once they are mostly
    /// empty, so one large frame does not pin its high-water capacity
    /// across ten thousand connections. The reactor calls it on
    /// connections that went quiet, not after every request, so a
    /// connection that keeps sending large frames keeps its buffers.
    pub(crate) fn trim(&mut self) {
        if self.read_buf.capacity() > TRIM_CAP && self.read_end - self.read_pos < TRIM_CAP {
            self.read_buf.truncate(self.read_end);
            self.read_buf.drain(..self.read_pos);
            self.read_end -= self.read_pos;
            self.read_pos = 0;
            self.read_buf.shrink_to(TRIM_CAP);
        }
        if self.write_buf.capacity() > TRIM_CAP && self.pending() < TRIM_CAP {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
            self.write_buf.shrink_to(TRIM_CAP);
        }
    }

    fn pending(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Bytes still missing from the frame being read; 0 when the buffer
    /// ends on a frame boundary or the header already condemns the frame.
    fn frame_remainder(&self) -> usize {
        let unparsed = &self.read_buf[self.read_pos..self.read_end];
        if unparsed.len() < 4 {
            return 4 - unparsed.len();
        }
        let body_len =
            u32::from_le_bytes(unparsed[..4].try_into().expect("length checked")) as usize;
        if body_len > MAX_FRAME_LEN {
            return 0;
        }
        (4 + body_len).saturating_sub(unparsed.len())
    }

    /// Drops the consumed read-buffer prefix once it dominates.
    fn compact(&mut self) {
        if self.read_pos == self.read_end {
            self.read_pos = 0;
            self.read_end = 0;
        } else if self.read_pos > READ_CHUNK {
            self.read_buf.copy_within(self.read_pos..self.read_end, 0);
            self.read_end -= self.read_pos;
            self.read_pos = 0;
        }
    }

    /// Appends one reply frame, recycling a Fed reply's pooled outputs.
    fn respond(&mut self, response: Response, router: &Router) {
        encode_reply(response, &router.pool, &mut self.write_buf);
    }
}

thread_local! {
    /// This thread's reply encode buffer, reused so that a reply written
    /// whole costs no allocation.
    static FRAME: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Encodes `response` as one frame into this thread's reusable buffer,
/// recycles a Fed reply's pooled outputs into `pool`, and hands the frame
/// to `then`, which must not encode another reply.
pub(crate) fn with_reply_frame<R>(
    response: Response,
    pool: &BufferPool,
    then: impl FnOnce(&[u8]) -> R,
) -> R {
    FRAME.with_borrow_mut(|frame| {
        frame.clear();
        encode_reply(response, pool, frame);
        let result = then(frame);
        if frame.capacity() > FRAME_KEEP {
            *frame = Vec::new();
        }
        result
    })
}

/// Appends `response` to `out` as one frame ([`push_frame`]) and recycles
/// a Fed reply's pooled outputs into `pool`.
fn encode_reply(response: Response, pool: &BufferPool, out: &mut Vec<u8>) {
    push_frame(&response, out);
    if let Response::Fed { outputs, .. } = response {
        pool.put(outputs);
    }
}

/// Appends `response` to `out` as one length-prefixed frame, downgrading
/// an encoding too large to frame (e.g. the snapshot of an Exact-estimator
/// stream with tens of millions of distinct identifiers) into an
/// application error — the peer gets a reply either way, never a killed
/// connection.
pub(crate) fn push_frame(response: &Response, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    let oversized = match response {
        // A snapshot is the one response whose size is unbounded (batches
        // are capped, everything else is fixed-width): reject it *before*
        // copying hundreds of megabytes just to measure them. 6 bytes:
        // version, opcode, u32 blob length.
        Response::Snapshot(bytes) if bytes.len() + 6 > MAX_FRAME_LEN => Some(format!(
            "{}-byte snapshot exceeds the {MAX_FRAME_LEN}-byte frame cap",
            bytes.len()
        )),
        _ => {
            response.encode_into(out);
            let len = out.len() - start - 4;
            (len > MAX_FRAME_LEN)
                .then(|| format!("{len}-byte response exceeds the {MAX_FRAME_LEN}-byte frame cap"))
        }
    };
    if let Some(message) = oversized {
        out.truncate(start + 4);
        Response::Error { code: ErrorCode::Other, message }.encode_into(out);
    }
    let len = u32::try_from(out.len() - start - 4).expect("frame bodies are capped");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Serves one connection over a blocking [`Transport`] until the peer
/// hangs up, breaks the protocol, or the transport fails. Each dispatch
/// waits on its own reply channel ([`Router::call`]) and the pump encodes
/// the reply itself; replies are written and flushed as batches, so a
/// fault-injecting transport sees whole frames.
pub(crate) fn pump<T: Transport>(mut transport: T, router: &Router) {
    // No rate limit, but the reactor's write ceiling: one read can hold
    // thousands of small requests, and parsing stops once their replies
    // fill the ceiling, until the batch is written.
    let mut conn = Conn::new(ReactorConfig::default().max_buffered_bytes, None);
    let mut next = None;
    loop {
        while let Some(dispatch) = next.take() {
            next = with_reply_frame(router.call(dispatch), &router.pool, |frame| {
                conn.complete(frame, router, Instant::now())
            });
        }
        if conn.finished() {
            return;
        }
        let pending = conn.output().len();
        next = if pending > 0 {
            match transport.write_all(conn.output()).and_then(|()| transport.flush()) {
                Ok(()) => conn.consume(pending, router, Instant::now()),
                Err(_) => {
                    conn.fail();
                    None
                }
            }
        } else {
            let Some(space) = conn.read_space() else { return };
            let read = transport.read(space);
            conn.received(read);
            conn.advance(router, Instant::now())
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceClient;
    use crate::protocol::{EstimatorKind, HashFamilyKind, StreamConfig};
    use crate::sampler::ServiceSampler;
    use crate::server::{Server, ServerConfig};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use uns_core::NodeId;

    fn stream_config() -> StreamConfig {
        StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 6,
            width: 16,
            depth: 3,
            seed: 5,
            family: HashFamilyKind::Mersenne,
        }
    }

    /// One scripted request.
    enum Frame {
        /// FeedBatch on the live stream: a worker op.
        Feed(Vec<NodeId>),
        /// Snapshot of the live stream: a worker op whose reply is the
        /// whole sampler state.
        Snapshot,
        /// Sample on an unknown stream: answered without a worker.
        Unknown,
        /// An undecodable body: answered once, then the stream closes.
        Garbage,
        /// A length prefix above the cap: answered, then the stream closes.
        Oversized,
    }

    impl Frame {
        fn draw(rng: &mut SmallRng) -> Self {
            match rng.gen_range(0..100u32) {
                0..=49 => {
                    let len = rng.gen_range(0..300usize);
                    Frame::Feed((0..len).map(|_| NodeId::new(rng.gen_range(0..64u64))).collect())
                }
                50..=71 => Frame::Snapshot,
                72..=89 => Frame::Unknown,
                90..=94 => Frame::Garbage,
                _ => Frame::Oversized,
            }
        }

        /// Appends the frame's wire bytes (a bare header for `Oversized`).
        fn encode(&self, out: &mut Vec<u8>) {
            let mut body = Vec::new();
            match self {
                Frame::Feed(ids) => Request::encode_batch(&mut body, true, "s", ids),
                Frame::Snapshot => Request::Snapshot { name: "s" }.encode(&mut body),
                Frame::Unknown => Request::Sample { name: "nope" }.encode(&mut body),
                Frame::Garbage => body.extend_from_slice(&[0xFF, 0x01]),
                Frame::Oversized => {
                    let len = u32::try_from(MAX_FRAME_LEN + 1).expect("cap fits a u32");
                    return out.extend_from_slice(&len.to_le_bytes());
                }
            }
            out.extend_from_slice(&u32::try_from(body.len()).expect("small").to_le_bytes());
            out.extend_from_slice(&body);
        }
    }

    /// The reference model: decode, route and answer the frames that fit
    /// in the first `delivered` bytes one by one, in request order, the
    /// way a sequential server would. Returns the reply bytes owed and
    /// whether the stream was poisoned.
    fn model(frames: &[Frame], delivered: usize, limit: Option<RateLimit>) -> (Vec<u8>, bool) {
        let mut reference = ServiceSampler::create(&stream_config()).expect("valid config");
        let (mut out, mut wire, mut position, mut outputs) =
            (Vec::new(), Vec::new(), 0, Vec::new());
        let mut tokens = limit.map_or(u32::MAX, |l| l.burst);
        for frame in frames {
            let start = wire.len();
            frame.encode(&mut wire);
            let needed = if let Frame::Oversized = frame { start + 4 } else { wire.len() };
            if needed > delivered {
                break;
            }
            if let Frame::Oversized = frame {
                let message = format!(
                    "{}-byte frame exceeds the {MAX_FRAME_LEN}-byte cap",
                    MAX_FRAME_LEN + 1
                );
                push_frame(&Response::Error { code: ErrorCode::Other, message }, &mut out);
                return (out, true);
            }
            if tokens == 0 {
                let l = limit.expect("tokens only run out under a limit");
                let message = format!("connection exceeded {}/s (burst {})", l.per_sec, l.burst);
                push_frame(&Response::Error { code: ErrorCode::RateLimited, message }, &mut out);
                continue;
            }
            tokens -= 1;
            let response = match frame {
                Frame::Feed(ids) => {
                    outputs.clear();
                    let admitted = reference.feed_batch(ids, &mut outputs);
                    position += ids.len() as u64;
                    Response::Fed { position, admitted, outputs: outputs.clone() }
                }
                Frame::Snapshot => {
                    let mut blob = Vec::new();
                    reference.snapshot(&mut blob);
                    Response::Snapshot(blob)
                }
                Frame::Unknown => Response::Error {
                    code: ErrorCode::UnknownStream,
                    message: format!("unknown stream {:?}", "nope"),
                },
                Frame::Garbage => {
                    let body = &wire[start + 4..];
                    let message = Request::decode(body).expect_err("undecodable").to_string();
                    push_frame(&Response::Error { code: ErrorCode::Other, message }, &mut out);
                    return (out, true);
                }
                Frame::Oversized => unreachable!("answered above"),
            };
            push_frame(&response, &mut out);
        }
        (out, false)
    }

    /// Drives one `Conn` through a random interleaving of reads (random
    /// chunk sizes), EOF, partial output consumption and worker
    /// completions against a live server, and checks the bytes it emits
    /// against [`model`]. A completion whose request was dispatched with
    /// no output pending ([`Conn::direct_reply`]) first has a random
    /// prefix of its frame — none, some or all — written "directly" to
    /// the peer, as the reactor's replying threads do, and only the rest
    /// goes to [`Conn::complete`].
    fn run_case(seed: u64) -> Result<(), String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let frames: Vec<Frame> =
            (0..rng.gen_range(1..24usize)).map(|_| Frame::draw(&mut rng)).collect();
        let mut input = Vec::new();
        for frame in &frames {
            frame.encode(&mut input);
        }
        // EOF after a random prefix, or never (the peer just goes quiet).
        let eof_at = rng.gen_bool(0.5).then(|| rng.gen_range(0..=input.len()));
        let delivered = eof_at.unwrap_or(input.len());
        let ceiling = [1usize, 16, 200, 4096, usize::MAX][rng.gen_range(0..5usize)];
        let limit =
            rng.gen_bool(0.25).then(|| RateLimit { per_sec: 1, burst: rng.gen_range(1..8u32) });
        let (want, poisoned) = model(&frames, delivered, limit);

        let server = Server::start(ServerConfig { workers: 1, queue_depth: 4 });
        let mut client =
            ServiceClient::new(server.connect_in_process()).map_err(|e| e.to_string())?;
        client.create_stream("s", &stream_config()).map_err(|e| e.to_string())?;
        let router = &*server.router;
        // A frozen clock: the bucket never refills, so admission is a
        // pure function of request order.
        let now = Instant::now();
        let limiter = limit.map(|l| Limiter::new(l, Arc::new(Counter::new()), now));
        let mut conn = Conn::new(ceiling, limiter);
        let (mut fed, mut eof_sent, mut got, mut next) = (0usize, false, Vec::new(), None);
        // Whether the in-flight request's reply may be written directly.
        let mut direct = false;
        for _ in 0..1_000_000 {
            if conn.finished() {
                break;
            }
            let can_read =
                conn.wants_read() && (fed < delivered || (eof_at.is_some() && !eof_sent));
            let can_write = !conn.output().is_empty();
            let options = [can_read, can_write, next.is_some()];
            let open: Vec<usize> = (0..3).filter(|&i| options[i]).collect();
            if open.is_empty() {
                break;
            }
            let produced = match open[rng.gen_range(0..open.len())] {
                0 => {
                    let space = conn.read_space().ok_or("wants_read without read space")?;
                    let n = if fed == delivered {
                        eof_sent = true;
                        0
                    } else {
                        let n = rng.gen_range(1..=space.len().min(delivered - fed).min(512));
                        space[..n].copy_from_slice(&input[fed..fed + n]);
                        fed += n;
                        n
                    };
                    conn.received(Ok(n));
                    conn.advance(router, now)
                }
                1 => {
                    let n = rng.gen_range(1..=conn.output().len());
                    got.extend_from_slice(&conn.output()[..n]);
                    conn.consume(n, router, now)
                }
                _ => {
                    let dispatch = next.take().expect("offered only when present");
                    with_reply_frame(router.call(dispatch), &router.pool, |frame| {
                        let sent = match (direct, rng.gen_range(0..3u32)) {
                            (false, _) => 0,
                            (true, 0) => 0,
                            (true, 1) => frame.len(),
                            (true, _) => rng.gen_range(0..=frame.len()),
                        };
                        got.extend_from_slice(&frame[..sent]);
                        conn.complete(&frame[sent..], router, now)
                    })
                }
            };
            if produced.is_some() {
                prop_assert!(next.is_none(), "two requests in flight on one connection");
                next = produced;
                direct = conn.direct_reply();
            }
        }
        prop_assert!(
            got == want,
            "emitted {} reply bytes, the model owes {} (ceiling {ceiling}, eof {eof_at:?}, \
             limit {limit:?}, {} frames)",
            got.len(),
            want.len(),
            frames.len()
        );
        let closes = poisoned || eof_at.is_some();
        prop_assert_eq!(conn.finished(), closes, "finished() disagrees with the model");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 512 }))]

        /// The connection core answers exactly what a sequential server
        /// owes, in request order, under any read chunking, pipelining,
        /// EOF placement, write ceiling, output consumption schedule and
        /// direct reply writes.
        #[test]
        fn conn_replies_match_the_sequential_model(seed in any::<u64>()) {
            run_case(seed)?;
        }
    }

    /// Serves its input to reads, then EOF, and records the largest
    /// write and the bytes written.
    struct Scripted(io::Cursor<Vec<u8>>, Arc<[AtomicUsize; 2]>);

    impl io::Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.0.read(out)
        }
    }

    impl io::Write for Scripted {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.1[0].fetch_max(data.len(), Ordering::Relaxed);
            self.1[1].fetch_add(data.len(), Ordering::Relaxed);
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Transport for Scripted {
        fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
            Err(io::ErrorKind::Unsupported.into())
        }

        fn set_read_timeout(&self, _: Option<std::time::Duration>) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_read_while_a_request_is_in_flight_reuse_the_read_buffer() {
        // Each round reads the next request while the one before it is in
        // flight, then completes it with nothing left to send (its reply
        // was written directly): the buffer must start over at offset 0
        // instead of growing by a frame per round.
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 4 });
        let mut client = ServiceClient::new(server.connect_in_process()).expect("connect");
        client.create_stream("s", &stream_config()).expect("create");
        let router = &*server.router;
        let now = Instant::now();
        let ids: Vec<NodeId> = (0..128u64).map(NodeId::new).collect();
        let mut frame = Vec::new();
        Frame::Feed(ids).encode(&mut frame);
        let mut conn = Conn::new(usize::MAX, None);
        let deliver = |conn: &mut Conn| {
            let mut sent = 0;
            while sent < frame.len() {
                let space = conn.read_space().expect("reads stay open");
                let n = space.len().min(frame.len() - sent);
                space[..n].copy_from_slice(&frame[sent..sent + n]);
                sent += n;
                conn.received(Ok(n));
            }
        };
        deliver(&mut conn);
        let mut inflight = conn.advance(router, now).expect("a worker-bound feed");
        let bound = 2 * frame.len() + READ_CHUNK;
        for round in 0..100 {
            deliver(&mut conn);
            assert!(conn.advance(router, now).is_none(), "one request in flight at a time");
            drop(inflight);
            inflight = conn.complete(&[], router, now).expect("the next feed dispatches");
            assert!(
                conn.capacity() <= bound,
                "round {round}: {} buffered bytes, bound {bound} ({}-byte frames)",
                conn.capacity(),
                frame.len()
            );
        }
    }

    #[test]
    fn pump_output_stays_under_the_write_ceiling() {
        // Each read takes a couple of hundred pipelined ~10-byte Snapshot
        // requests, whose replies are tens of KiB each: far more than the
        // ceiling if one read's replies were all buffered before a write.
        let server = Server::start(ServerConfig { workers: 1, queue_depth: 4 });
        let mut client = ServiceClient::new(server.connect_in_process()).expect("connect");
        let config = StreamConfig { width: 4096, depth: 4, ..stream_config() };
        client.create_stream("s", &config).expect("create");
        let mut reply = Vec::new();
        push_frame(&Response::Snapshot(client.snapshot("s").expect("snapshot")), &mut reply);
        let requests = 400;
        let mut input = Vec::new();
        for _ in 0..requests {
            let mut body = Vec::new();
            Request::Snapshot { name: "s" }.encode(&mut body);
            input.extend_from_slice(&u32::try_from(body.len()).expect("small").to_le_bytes());
            input.extend_from_slice(&body);
        }
        let writes = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        pump(Scripted(io::Cursor::new(input), Arc::clone(&writes)), &server.router);
        let [largest, written] = writes.as_ref().each_ref().map(|n| n.load(Ordering::Relaxed));
        assert_eq!(written, requests * reply.len(), "every reply sent");
        let ceiling = ReactorConfig::default().max_buffered_bytes;
        assert!(
            largest < ceiling + reply.len(),
            "{largest} reply bytes buffered at once; ceiling {ceiling}, one reply {}",
            reply.len()
        );
    }

    #[test]
    fn oversized_response_is_downgraded_to_an_error() {
        // A snapshot can legitimately outgrow the frame cap (an Exact
        // stream with enough distinct ids). The connection must answer
        // with an application error, not die writing an unframeable reply.
        let mut frame = vec![7u8]; // frames append behind what is queued
        push_frame(&Response::Snapshot(vec![0u8; MAX_FRAME_LEN]), &mut frame);
        let body = &frame[5..];
        assert_eq!(frame[1..5], u32::try_from(body.len()).unwrap().to_le_bytes());
        match Response::decode(body).unwrap() {
            Response::Error { code: ErrorCode::Other, message } => {
                assert!(message.contains("frame cap"), "unexpected message: {message}");
            }
            other => panic!("expected a frame-cap error, got {other:?}"),
        }
        // A response that fits passes through untouched.
        let mut small = Vec::new();
        push_frame(&Response::Ok, &mut small);
        assert_eq!(Response::decode(&small[4..]).unwrap(), Response::Ok);
    }
}
