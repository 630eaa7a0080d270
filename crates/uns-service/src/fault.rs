//! Seeded deterministic fault injection.
//!
//! Reliability claims are only as good as the failures they were tested
//! against, so this module makes failures *reproducible*: a [`FaultPlan`]
//! is a pure function of `(seed, site, draw index)` — the same seed
//! against the same operation order yields the same schedule of torn
//! writes, failed fsyncs, dropped/delayed replies, and worker panics.
//! Every failure CI finds replays locally from its seed.
//!
//! Two seams are wrapped:
//!
//! * **storage** — [`FaultBackend`] wraps a [`StorageBackend`] so every
//!   WAL handle it opens is a [`FaultStore`]. An injected torn write
//!   lands a *durable prefix* of the record and then poisons the handle
//!   (mimicking a device that dropped offline mid-write), which defeats
//!   the [`crate::wal::WalWriter`]'s in-place repair and forces the
//!   owning stream through full recovery — exactly the path a real torn
//!   write exercises. Recovery re-opens the WAL through the backend and
//!   gets a fresh, unpoisoned handle.
//! * **transport** — [`FaultTransport`] wraps the server side of a
//!   connection and drops or delays individual *reply frames* (frame-
//!   aware, so a fault never tears the byte stream mid-frame — TCP does
//!   not lose bytes; what networks lose is whole messages at failover).
//!
//! Worker panics are injected by the server itself, which consults
//! [`FaultPlan::worker_panics`] before each mutating op (site
//! [`FaultSite::WorkerOp`]), firing *before* the WAL append so a panicked
//! op is never acknowledged and never logged.
//!
//! Determinism caveat: each site has its own atomic draw counter, so the
//! schedule is deterministic when the operation order through a site is —
//! single-stream, single-connection tests are exactly reproducible;
//! multi-threaded runs are per-interleaving.

use crate::storage::{StorageBackend, WalStore};
use crate::transport::Transport;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use uns_metrics::{TraceKind, TraceLog};

/// Per-mille fault rates (0 = never, 1000 = always) plus fixed fault
/// parameters. Rates are per *draw*, i.e. per operation reaching the site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// ‰ of WAL appends that tear: a durable prefix lands, the handle
    /// poisons, the op errors.
    pub torn_write_per_mille: u16,
    /// ‰ of WAL fsyncs that fail (the handle stays usable; the writer
    /// still treats it as fatal, per fsyncgate).
    pub sync_fail_per_mille: u16,
    /// ‰ of reply frames silently dropped.
    pub drop_reply_per_mille: u16,
    /// ‰ of reply frames delayed by [`FaultSpec::reply_delay`].
    pub delay_reply_per_mille: u16,
    /// Delay applied to a delayed reply frame.
    pub reply_delay: Duration,
    /// ‰ of mutating worker ops that panic before touching the WAL.
    pub worker_panic_per_mille: u16,
    /// ‰ of transport operations that start a network partition: the
    /// wrapped transport is **severed** (every read and outgoing frame
    /// errors) for the next [`FaultSpec::partition_window`] transport
    /// operations, then heals. Models a replica dropping off the network
    /// and coming back — whole-connection loss, not byte corruption.
    pub partition_per_mille: u16,
    /// Transport operations a drawn partition lasts (minimum 1).
    pub partition_window: u32,
}

/// What [`FaultPlan::reply_action`] tells the transport to do with one
/// complete reply frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyAction {
    /// Forward the frame unchanged.
    Deliver,
    /// Silently discard the frame (the client's read deadline fires).
    Drop,
    /// Sleep, then forward — exercises client deadlines without loss.
    Delay(Duration),
}

/// Draw sites — each keeps an independent deterministic draw sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A WAL record append.
    WalAppend,
    /// A WAL fsync.
    WalSync,
    /// A complete reply frame about to be written.
    ReplyWrite,
    /// A mutating op about to execute on a worker.
    WorkerOp,
    /// A transport operation that may start a partition window.
    Partition,
}

const fn site_salt(site: FaultSite) -> u64 {
    match site {
        FaultSite::WalAppend => 0x5741_4C41, // "WALA"
        FaultSite::WalSync => 0x5741_4C53,   // "WALS"
        FaultSite::ReplyWrite => 0x5245504C, // "REPL"
        FaultSite::WorkerOp => 0x574F524B,   // "WORK"
        FaultSite::Partition => 0x50415254,  // "PART"
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded fault schedule: the `n`-th draw at a site hashes
/// `(seed, site, n)` and compares against the site's per-mille rate.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    wal_append_draws: AtomicU64,
    wal_sync_draws: AtomicU64,
    reply_draws: AtomicU64,
    worker_draws: AtomicU64,
    partition_draws: AtomicU64,
    /// Transport operations the current partition has left to consume
    /// (0 = healed). Shared by every transport wrapped under this plan,
    /// so a sever cuts the whole node, not one connection.
    severed: AtomicU64,
    /// Set by [`FaultPlan::tear_next_append`]: the next WAL append tears.
    tear_next: AtomicBool,
    /// Set by [`FaultPlan::fail_next_sync`]: the next WAL fsync fails.
    fail_next_sync: AtomicBool,
    /// Optional trace sink: when a server binds its [`TraceLog`], every
    /// fault that actually fires leaves a structured event, so a failing
    /// seeded run can be read back as "what did the plan do, in order".
    trace: OnceLock<(Arc<TraceLog>, Arc<str>)>,
}

impl FaultPlan {
    /// Builds the plan for `seed`; identical seeds and specs replay
    /// identical schedules against identical operation orders.
    pub fn new(seed: u64, spec: FaultSpec) -> Arc<Self> {
        Arc::new(Self {
            seed,
            spec,
            wal_append_draws: AtomicU64::new(0),
            wal_sync_draws: AtomicU64::new(0),
            reply_draws: AtomicU64::new(0),
            worker_draws: AtomicU64::new(0),
            partition_draws: AtomicU64::new(0),
            severed: AtomicU64::new(0),
            tear_next: AtomicBool::new(false),
            fail_next_sync: AtomicBool::new(false),
            trace: OnceLock::new(),
        })
    }

    /// The spec this plan draws from.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Binds a trace log; from now on every *fired* fault (not every
    /// draw) pushes a `Fault*` event. First bind wins; later binds are
    /// ignored — a plan outlives at most one server.
    pub fn bind_trace(&self, trace: Arc<TraceLog>) {
        let _ = self.trace.set((trace, Arc::from("")));
    }

    fn record(&self, kind: TraceKind, a: u64, b: u64) {
        if let Some((trace, stream)) = self.trace.get() {
            trace.push(kind, stream, a, b);
        }
    }

    /// Hash for this site's next draw (also consumed by secondary
    /// decisions like the torn-prefix length).
    fn draw(&self, site: FaultSite) -> u64 {
        let counter = match site {
            FaultSite::WalAppend => &self.wal_append_draws,
            FaultSite::WalSync => &self.wal_sync_draws,
            FaultSite::ReplyWrite => &self.reply_draws,
            FaultSite::WorkerOp => &self.worker_draws,
            FaultSite::Partition => &self.partition_draws,
        };
        let n = counter.fetch_add(1, Ordering::Relaxed);
        splitmix64(
            self.seed ^ site_salt(site).rotate_left(17) ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D),
        )
    }

    fn hit(hash: u64, per_mille: u16) -> bool {
        (hash % 1000) < u64::from(per_mille.min(1000))
    }

    /// For an append of `len` bytes: `Some(prefix_len)` (strictly less
    /// than `len`) when this append should tear, `None` otherwise.
    pub fn torn_write(&self, len: usize) -> Option<usize> {
        if len == 0 {
            return None;
        }
        let hash = self.draw(FaultSite::WalAppend);
        let forced = self.tear_next.swap(false, Ordering::Relaxed);
        let torn = (forced || Self::hit(hash, self.spec.torn_write_per_mille))
            .then(|| ((hash >> 10) % len as u64) as usize);
        if let Some(prefix) = torn {
            self.record(TraceKind::FaultTornWrite, prefix as u64, len as u64);
        }
        torn
    }

    /// Whether this fsync fails.
    pub fn sync_fails(&self) -> bool {
        let hash = self.draw(FaultSite::WalSync);
        let forced = self.fail_next_sync.swap(false, Ordering::Relaxed);
        let fails = forced || Self::hit(hash, self.spec.sync_fail_per_mille);
        if fails {
            self.record(TraceKind::FaultFsyncFailed, 0, 0);
        }
        fails
    }

    /// Fate of the next complete reply frame.
    pub fn reply_action(&self) -> ReplyAction {
        let hash = self.draw(FaultSite::ReplyWrite);
        // Partition one draw: [0, drop) drops, [drop, drop+delay) delays.
        let roll = hash % 1000;
        let drop = u64::from(self.spec.drop_reply_per_mille.min(1000));
        let delay = u64::from(self.spec.delay_reply_per_mille.min(1000));
        if roll < drop {
            self.record(TraceKind::FaultReplyDropped, 0, 0);
            ReplyAction::Drop
        } else if roll < drop + delay {
            let ms = self.spec.reply_delay.as_millis().min(u128::from(u64::MAX)) as u64;
            self.record(TraceKind::FaultReplyDelayed, ms, 0);
            ReplyAction::Delay(self.spec.reply_delay)
        } else {
            ReplyAction::Deliver
        }
    }

    /// Whether the next mutating worker op panics (drawn by the server
    /// before the WAL append, so a panicked op is never logged or acked).
    pub fn worker_panics(&self) -> bool {
        let panics = Self::hit(self.draw(FaultSite::WorkerOp), self.spec.worker_panic_per_mille);
        if panics {
            self.record(TraceKind::FaultPanic, 0, 0);
        }
        panics
    }

    /// Makes the next WAL append under this plan tear, whatever its rate
    /// — the explicit handle for tests that script one torn write at a
    /// known op instead of drawing it.
    pub fn tear_next_append(&self) {
        self.tear_next.store(true, Ordering::Relaxed);
    }

    /// Makes the next WAL fsync under this plan fail, whatever its rate
    /// (see [`FaultPlan::tear_next_append`]).
    pub fn fail_next_sync(&self) {
        self.fail_next_sync.store(true, Ordering::Relaxed);
    }

    /// Severs every transport under this plan for the next `ops`
    /// transport operations — the explicit handle for tests that script a
    /// sever/heal window instead of drawing one.
    pub fn sever_for(&self, ops: u64) {
        self.severed.store(ops, Ordering::Relaxed);
        if ops > 0 {
            self.record(TraceKind::FaultSevered, ops, 0);
        }
    }

    /// Consumes one transport operation: `true` while a partition window
    /// is open (the operation must fail), `false` on a healthy transport.
    /// When no window is open, one seeded draw may start a fresh one of
    /// [`FaultSpec::partition_window`] operations (this call consumes the
    /// window's first operation).
    pub fn transport_severed(&self) -> bool {
        let mut remaining = self.severed.load(Ordering::Relaxed);
        while remaining > 0 {
            match self.severed.compare_exchange_weak(
                remaining,
                remaining - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(current) => remaining = current,
            }
        }
        if self.spec.partition_per_mille == 0 {
            return false;
        }
        if Self::hit(self.draw(FaultSite::Partition), self.spec.partition_per_mille) {
            let window = u64::from(self.spec.partition_window.max(1));
            self.severed.store(window - 1, Ordering::Relaxed);
            self.record(TraceKind::FaultSevered, window, 0);
            return true;
        }
        false
    }
}

/// Deterministically flips `flips` bits within the last `window` bytes of
/// `bytes` — the "corrupt WAL tail" fault for recovery tests (pair with
/// [`crate::storage::MemBackend::with_wal_bytes`]).
pub fn corrupt_tail(seed: u64, bytes: &mut [u8], window: usize, flips: u32) {
    if bytes.is_empty() {
        return;
    }
    let start = bytes.len().saturating_sub(window.max(1));
    let span = (bytes.len() - start) as u64;
    for i in 0..flips {
        let hash = splitmix64(seed ^ 0xC0_55_u64 ^ u64::from(i).wrapping_mul(0x9E37_79B9));
        let byte = start + ((hash >> 3) % span) as usize;
        bytes[byte] ^= 1 << (hash & 7);
    }
}

// ---------------------------------------------------------------------------
// Storage seam
// ---------------------------------------------------------------------------

/// A [`WalStore`] that injects torn writes and fsync failures per the
/// plan. After a torn write the handle is **poisoned**: every subsequent
/// operation fails, modelling a device gone away mid-write — the repair
/// truncation fails too, and the stream must recover through the backend.
pub struct FaultStore {
    inner: Box<dyn WalStore>,
    plan: Arc<FaultPlan>,
    poisoned: bool,
}

impl FaultStore {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: Box<dyn WalStore>, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan, poisoned: false }
    }

    fn check(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other("injected fault: wal handle poisoned by torn write"));
        }
        Ok(())
    }
}

impl WalStore for FaultStore {
    fn append(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.check()?;
        match self.plan.torn_write(bytes.len()) {
            Some(prefix) => {
                // Land the prefix *durably*: recovery must see a genuine
                // torn tail, not a clean cut at a record boundary.
                let mut written = 0;
                while written < prefix {
                    match self.inner.append(&bytes[written..prefix]) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => written += n,
                    }
                }
                let _ = self.inner.sync();
                self.poisoned = true;
                Err(io::Error::other("injected fault: torn write"))
            }
            None => self.inner.append(bytes),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.check()?;
        if self.plan.sync_fails() {
            return Err(io::Error::other("injected fault: fsync failed"));
        }
        self.inner.sync()
    }

    fn len(&mut self) -> io::Result<u64> {
        self.check()?;
        self.inner.len()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.check()?;
        self.inner.read_all()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.check()?;
        self.inner.truncate(len)
    }
}

/// A [`StorageBackend`] whose WAL handles are [`FaultStore`]s. Snapshot
/// reads/writes pass through unfaulted (snapshot atomicity is the
/// *backend's* contract; the WAL is where torn writes live).
pub struct FaultBackend {
    inner: Arc<dyn StorageBackend>,
    plan: Arc<FaultPlan>,
}

impl FaultBackend {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: Arc<dyn StorageBackend>, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }
}

impl StorageBackend for FaultBackend {
    fn open_wal(&self, stream: &str) -> io::Result<Box<dyn WalStore>> {
        Ok(Box::new(FaultStore::new(self.inner.open_wal(stream)?, Arc::clone(&self.plan))))
    }

    fn write_snapshot(&self, stream: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_snapshot(stream, bytes)
    }

    fn read_snapshot(&self, stream: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_snapshot(stream)
    }

    fn list_streams(&self) -> io::Result<Vec<String>> {
        self.inner.list_streams()
    }

    fn remove_stream(&self, stream: &str) -> io::Result<()> {
        self.inner.remove_stream(stream)
    }
}

// ---------------------------------------------------------------------------
// Transport seam
// ---------------------------------------------------------------------------

#[derive(Default)]
struct FrameBuffer {
    pending: Vec<u8>,
}

/// A [`Transport`] wrapper that drops or delays whole outgoing frames per
/// the plan (wrap the **server** end so the faulted direction is replies).
/// Reads pass through untouched. Written bytes buffer until a complete
/// `[u32 len][body]` frame is present; each frame then draws its fate.
/// Clones share the frame buffer, mirroring how clones share the socket.
pub struct FaultTransport<T: Transport> {
    inner: T,
    plan: Arc<FaultPlan>,
    buffer: Arc<Mutex<FrameBuffer>>,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan, buffer: Arc::new(Mutex::new(FrameBuffer::default())) }
    }

    /// Forwards every complete frame currently buffered, applying one
    /// drawn fate per frame.
    fn pump(&mut self) -> io::Result<()> {
        loop {
            // Extract one complete frame under the lock, then act on it
            // with the lock released (a delay must not block clones).
            let frame = {
                let mut buffer = self.buffer.lock().expect("fault transport lock poisoned");
                let pending = &mut buffer.pending;
                if pending.len() < 4 {
                    return Ok(());
                }
                let len = u32::from_le_bytes(pending[0..4].try_into().expect("4 bytes")) as usize;
                if pending.len() < 4 + len {
                    return Ok(());
                }
                pending.drain(..4 + len).collect::<Vec<u8>>()
            };
            // A severed transport errors the whole connection; the frame
            // is lost with it — what a failing link loses is messages.
            if self.plan.transport_severed() {
                return Err(severed_error());
            }
            match self.plan.reply_action() {
                ReplyAction::Deliver => self.inner.write_all(&frame)?,
                ReplyAction::Drop => {}
                ReplyAction::Delay(delay) => {
                    std::thread::sleep(delay);
                    self.inner.write_all(&frame)?;
                }
            }
        }
    }
}

/// The error a severed transport operation surfaces: connection-level
/// loss, which clients treat exactly like a peer that went away.
fn severed_error() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected fault: transport severed")
}

impl<T: Transport> Read for FaultTransport<T> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.plan.transport_severed() {
            return Err(severed_error());
        }
        self.inner.read(out)
    }
}

impl<T: Transport> Write for FaultTransport<T> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buffer.lock().expect("fault transport lock poisoned").pending.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.pump()?;
        self.inner.flush()
    }
}

impl<T: Transport + 'static> Transport for FaultTransport<T> {
    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
        let inner = self.inner.try_clone_transport()?;
        Ok(Box::new(FaultTransport {
            inner,
            plan: Arc::clone(&self.plan),
            buffer: Arc::clone(&self.buffer),
        }))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{MemBackend, StorageBackend};
    use std::os::unix::net::UnixStream;

    fn plan(seed: u64, spec: FaultSpec) -> Arc<FaultPlan> {
        FaultPlan::new(seed, spec)
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = FaultSpec {
            torn_write_per_mille: 300,
            sync_fail_per_mille: 200,
            drop_reply_per_mille: 100,
            delay_reply_per_mille: 100,
            reply_delay: Duration::from_millis(1),
            worker_panic_per_mille: 50,
            partition_per_mille: 40,
            partition_window: 3,
        };
        let (a, b) = (plan(9, spec), plan(9, spec));
        for _ in 0..500 {
            assert_eq!(a.torn_write(64), b.torn_write(64));
            assert_eq!(a.sync_fails(), b.sync_fails());
            assert_eq!(a.reply_action(), b.reply_action());
            assert_eq!(a.worker_panics(), b.worker_panics());
            assert_eq!(a.transport_severed(), b.transport_severed());
        }
        // A different seed diverges somewhere.
        let c = plan(10, spec);
        let diverged = (0..500).any(|_| a.torn_write(64) != c.torn_write(64));
        assert!(diverged);
    }

    #[test]
    fn rates_are_roughly_honored_and_torn_prefix_is_strictly_short() {
        let spec = FaultSpec { torn_write_per_mille: 250, ..FaultSpec::default() };
        let p = plan(77, spec);
        let mut hits = 0;
        for _ in 0..4000 {
            if let Some(prefix) = p.torn_write(32) {
                assert!(prefix < 32);
                hits += 1;
            }
        }
        let rate = f64::from(hits) / 4000.0;
        assert!((0.2..0.3).contains(&rate), "torn rate {rate} far from 0.25");
        // Zero rates never fire.
        let quiet = plan(77, FaultSpec::default());
        for _ in 0..1000 {
            assert_eq!(quiet.torn_write(32), None);
            assert!(!quiet.sync_fails());
            assert_eq!(quiet.reply_action(), ReplyAction::Deliver);
            assert!(!quiet.worker_panics());
        }
    }

    #[test]
    fn scripted_faults_fire_exactly_once() {
        let p = plan(5, FaultSpec::default());
        p.tear_next_append();
        p.fail_next_sync();
        assert!(p.torn_write(32).is_some_and(|prefix| prefix < 32));
        assert!(p.sync_fails());
        for _ in 0..100 {
            assert_eq!(p.torn_write(32), None);
            assert!(!p.sync_fails());
        }
    }

    #[test]
    fn torn_write_lands_durable_prefix_and_poisons_the_handle() {
        let backend = MemBackend::new();
        let spec = FaultSpec { torn_write_per_mille: 1000, ..FaultSpec::default() };
        let mut store = FaultStore::new(backend.open_wal("s").unwrap(), plan(3, spec));
        let payload = vec![0xAB; 64];
        let err = store.append(&payload).unwrap_err();
        assert!(err.to_string().contains("torn write"));
        // Everything after the tear fails on this handle...
        assert!(store.sync().is_err());
        assert!(store.truncate(0).is_err());
        // ...but the prefix survived a crash (it was synced) and a fresh
        // handle from the backend works.
        backend.crash();
        let mut fresh = backend.open_wal("s").unwrap();
        let survived = fresh.read_all().unwrap();
        assert!(survived.len() < payload.len());
        assert!(survived.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn fault_transport_drops_and_delivers_whole_frames() {
        // drop=always: the frame vanishes, the stream stays framed.
        let spec = FaultSpec { drop_reply_per_mille: 1000, ..FaultSpec::default() };
        let (server_end, mut client_end) = UnixStream::pair().unwrap();
        let mut faulty = FaultTransport::new(server_end, plan(5, spec));
        crate::wire::write_frame(&mut faulty, b"dropped").unwrap();
        client_end.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let mut buf = [0u8; 1];
        let kind = client_end.read(&mut buf).unwrap_err().kind();
        assert!(matches!(kind, io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock), "{kind:?}");
        // deliver: bytes arrive intact, split writes and all.
        let quiet = plan(5, FaultSpec::default());
        let (server_end, mut client_end) = UnixStream::pair().unwrap();
        let mut clean = FaultTransport::new(server_end, quiet);
        crate::wire::write_frame(&mut clean, b"hello").unwrap();
        let mut body = Vec::new();
        assert!(crate::wire::read_frame(&mut client_end, &mut body).unwrap());
        assert_eq!(body, b"hello");
    }

    #[test]
    fn partition_severs_a_whole_window_then_heals() {
        // Explicit sever: exactly `ops` operations fail, then service
        // resumes — the sever/heal window tests script failover with.
        let p = plan(21, FaultSpec::default());
        assert!(!p.transport_severed());
        p.sever_for(3);
        for _ in 0..3 {
            assert!(p.transport_severed());
        }
        assert!(!p.transport_severed(), "window must heal after its ops are consumed");
        // Drawn sever: rate 1000 opens a window on the first idle draw,
        // and the window length is honored before the next draw.
        let spec =
            FaultSpec { partition_per_mille: 1000, partition_window: 4, ..FaultSpec::default() };
        let p = plan(21, spec);
        for _ in 0..4 {
            assert!(p.transport_severed());
        }
        // The next call draws again (rate 1000 → a fresh window).
        assert!(p.transport_severed());
        // A severed transport errors reads and loses flushed frames.
        let spec = FaultSpec::default();
        let quiet = plan(5, spec);
        let (server_end, mut client_end) = UnixStream::pair().unwrap();
        let mut faulty = FaultTransport::new(server_end, Arc::clone(&quiet));
        quiet.sever_for(2);
        let mut buf = [0u8; 1];
        assert_eq!(faulty.read(&mut buf).unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        let lost = crate::wire::write_frame(&mut faulty, b"lost").unwrap_err();
        assert!(lost.to_string().contains("severed"), "unexpected error: {lost}");
        // Healed: traffic flows again on the same wrapper.
        crate::wire::write_frame(&mut faulty, b"back").unwrap();
        let mut body = Vec::new();
        assert!(crate::wire::read_frame(&mut client_end, &mut body).unwrap());
        assert_eq!(body, b"back");
    }

    #[test]
    fn corrupt_tail_is_deterministic_and_stays_in_window() {
        let base: Vec<u8> = (0..200u8).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        corrupt_tail(11, &mut a, 50, 4);
        corrupt_tail(11, &mut b, 50, 4);
        assert_eq!(a, b);
        assert_ne!(a, base);
        assert_eq!(a[..150], base[..150], "corruption escaped the tail window");
    }
}
