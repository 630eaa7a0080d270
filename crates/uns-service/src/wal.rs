//! The per-stream write-ahead op log.
//!
//! # Why a WAL
//!
//! The paper's guarantee is stateful: after convergence time T₀ the
//! sampler's memory Γ and coin stream must survive for the uniformity
//! bound to mean anything — a crash that loses Γ resets the adversary's
//! clock to zero. Snapshots alone only protect state *on demand*; the WAL
//! makes every acknowledged mutating operation durable: the op is appended
//! (and, per [`FsyncPolicy`], fsynced) **before** it is applied, so
//! recovery = latest snapshot + log replay reconstructs the sampler
//! bit-for-bit. Because every sampler in this workspace is a deterministic
//! function of its state and inputs, replaying the *operations* replays
//! the exact coin stream — no results need to be logged.
//!
//! # On-disk layout
//!
//! The log file starts with a header:
//!
//! ```text
//! [ magic "UNSL" (4) ][ version: u16 ][ generation: u64 ][ base_seq: u64 ][ crc32: u32 ]
//! ```
//!
//! `generation` is the stream's **incarnation id**, shared with its
//! durable snapshot: every create/restore of a durable stream stamps a
//! fresh generation into both. Recovery refuses to replay a log whose
//! generation differs from the snapshot's — without it, a crash between a
//! create/restore's (atomic) snapshot write and its log reset would pair
//! the new incarnation's snapshot with the *old* incarnation's records,
//! and replay would silently corrupt the restored sampler.
//!
//! `base_seq` is the stream-order index of the first record in this file —
//! compaction rewrites the log with `base_seq` = the snapshot's `seq`, so
//! a crash *between* writing the snapshot and truncating the log is safe:
//! recovery simply skips the records the snapshot already covers.
//!
//! Records follow, each framed as:
//!
//! ```text
//! [ len: u32 ][ crc32: u32 ][ opcode: u8 ][ payload: len-1 bytes ]
//! ```
//!
//! `len` counts opcode + payload; the CRC covers the same bytes. A reader
//! walks records until the first frame that is truncated, oversized, or
//! fails its CRC — everything from there on is a torn tail and is
//! discarded ([`parse_wal`] never errors and never panics; the decode
//! validates claimed counts against the bytes actually present *before*
//! allocating, mirroring the snapshot decoders).
//!
//! The file may carry a **zero tail** after the last record: a real-file
//! store preallocates its log in zero-filled chunks so that a per-op
//! `fdatasync` does not also commit a file-size change
//! ([`crate::storage`]). A crash image, or a second handle on a live log,
//! shows those zeros; a record length of 0 is invalid, so the walk stops
//! where the tail starts, exactly as at a torn record, and recovery
//! truncates the file to the valid prefix. The writer trims the tail at
//! its orderly close, so a cleanly stopped node leaves a log that ends at
//! its last record.
//!
//! # Fsync policies and their loss windows
//!
//! * [`FsyncPolicy::PerOp`] — sync before acknowledging every op. Zero
//!   acknowledged ops lost on crash; the slowest option.
//! * [`FsyncPolicy::EveryN`]`(n)` — sync every `n`-th record. Up to `n-1`
//!   *acknowledged* ops can be lost on crash.
//! * [`FsyncPolicy::Timer`]`(d)` — sync when at least `d` has elapsed since
//!   the last sync (checked at each append; there is no background timer
//!   thread). Loss window: the ops acknowledged since the last sync.

use crate::error::ServiceError;
use crate::storage::WalStore;
use crate::wire::{put_u16, put_u32, put_u64, Cursor, MAX_FRAME_LEN};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uns_core::NodeId;
use uns_metrics::{Counter, LatencyHistogram};

/// Leading magic of a WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"UNSL";

/// WAL format version written by this build.
pub const WAL_VERSION: u16 = 1;

/// Byte length of the WAL file header.
pub const WAL_HEADER_LEN: usize = 4 + 2 + 8 + 8 + 4;

/// Upper bound on one record's `len` field (opcode + payload). Batches are
/// already capped well below the frame limit; anything larger in a length
/// field is corruption and must not drive an allocation.
pub const MAX_RECORD_LEN: usize = MAX_FRAME_LEN;

/// When the log is fsynced relative to operation acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync before every acknowledgement: zero acknowledged ops lost.
    PerOp,
    /// Sync every `n`-th record: up to `n-1` acknowledged ops lost.
    EveryN(u32),
    /// Sync when at least this long has passed since the last sync
    /// (evaluated at append time; no background timer).
    Timer(Duration),
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// Slice-by-8 table set: `TABLES[t][b]` is the CRC contribution of byte
/// `b` positioned `t` bytes before the end of an 8-byte group. `TABLES[0]`
/// is the classic per-byte table; each further table shifts the previous
/// one through one more byte of zeros.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC32 of `bytes` (the checksum guarding WAL records and headers).
///
/// Computed slice-by-8 — eight table lookups per 8-byte group instead of
/// a serial per-byte chain — because on the durable service path every
/// batch record is CRC'd in full and the per-byte loop was the single
/// largest WAL cost. Bit-identical to the textbook byte-at-a-time
/// reduction (pinned by a differential test below).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Operations and record codec
// ---------------------------------------------------------------------------

const OP_INGEST: u8 = 1;
const OP_FEED: u8 = 2;
const OP_SAMPLE: u8 = 3;

/// A mutating stream operation as stored in the log (owned form, produced
/// by [`parse_wal`] during recovery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// Input-only batch (no output draws).
    Ingest(Vec<NodeId>),
    /// Feed batch: one output draw per element (outputs are *not* logged —
    /// replay re-derives them from the deterministic coin stream).
    Feed(Vec<NodeId>),
    /// One output draw without input ([`uns_core::NodeSampler::sample`]);
    /// logged because it consumes a coin and therefore mutates RNG state.
    Sample,
}

/// Borrowed form of [`WalOp`] used on the write path (no batch copy).
#[derive(Clone, Copy, Debug)]
pub enum WalOpRef<'a> {
    /// Input-only batch.
    Ingest(&'a [NodeId]),
    /// Feed batch.
    Feed(&'a [NodeId]),
    /// Output draw without input.
    Sample,
}

impl<'a> From<&'a WalOp> for WalOpRef<'a> {
    fn from(op: &'a WalOp) -> Self {
        match op {
            WalOp::Ingest(ids) => WalOpRef::Ingest(ids),
            WalOp::Feed(ids) => WalOpRef::Feed(ids),
            WalOp::Sample => WalOpRef::Sample,
        }
    }
}

/// Appends one framed record (`[len][crc32][opcode][payload]`) to `out`.
pub fn encode_record(out: &mut Vec<u8>, op: WalOpRef<'_>) {
    let body_start = out.len() + 8; // after [len][crc]
    out.extend_from_slice(&[0u8; 8]); // placeholders
    match op {
        WalOpRef::Ingest(ids) => {
            out.reserve(5 + ids.len() * 8);
            out.push(OP_INGEST);
            put_u32(out, ids.len() as u32);
            for id in ids {
                put_u64(out, id.as_u64());
            }
        }
        WalOpRef::Feed(ids) => {
            out.reserve(5 + ids.len() * 8);
            out.push(OP_FEED);
            put_u32(out, ids.len() as u32);
            for id in ids {
                put_u64(out, id.as_u64());
            }
        }
        WalOpRef::Sample => out.push(OP_SAMPLE),
    }
    let body_len = out.len() - body_start;
    let crc = crc32(&out[body_start..]);
    out[body_start - 8..body_start - 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    out[body_start - 4..body_start].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes the record starting at `bytes[offset..]`. Returns the operation
/// and the total framed length consumed, or `None` when the bytes from
/// `offset` on do not form a complete, CRC-valid record — the torn-tail
/// signal that stops replay. Never panics, never allocates before the
/// claimed batch size has been validated against the bytes present.
pub fn decode_record(bytes: &[u8], offset: usize) -> Option<(WalOp, usize)> {
    let rest = bytes.get(offset..)?;
    if rest.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    if len == 0 || len > MAX_RECORD_LEN {
        return None;
    }
    let body = rest.get(8..8 + len)?;
    if crc32(body) != crc {
        return None;
    }
    let mut cur = Cursor::new(&body[1..]);
    let op = match body[0] {
        OP_INGEST | OP_FEED => {
            let count = cur.u32().ok()? as usize;
            // Validate the claimed count against the CRC-checked body
            // before allocating from it.
            if count.checked_mul(8)? != cur.remaining() {
                return None;
            }
            let mut ids = Vec::with_capacity(count);
            for _ in 0..count {
                ids.push(NodeId::new(cur.u64().ok()?));
            }
            if body[0] == OP_INGEST {
                WalOp::Ingest(ids)
            } else {
                WalOp::Feed(ids)
            }
        }
        OP_SAMPLE => {
            if cur.remaining() != 0 {
                return None;
            }
            WalOp::Sample
        }
        _ => return None,
    };
    Some((op, 8 + len))
}

// ---------------------------------------------------------------------------
// File header and log parsing
// ---------------------------------------------------------------------------

/// The decoded WAL file header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalHeader {
    /// Incarnation id shared with the stream's durable snapshot. Recovery
    /// replays this log only when the generation matches the snapshot's —
    /// a mismatch means the log was left behind by a *different*
    /// incarnation of the stream name and its records must not touch the
    /// restored sampler.
    pub generation: u64,
    /// Stream-order index of the first record in this file.
    pub base_seq: u64,
}

/// Encodes the WAL file header of incarnation `generation` whose first
/// record has stream-order index `base_seq`.
pub fn encode_wal_header(out: &mut Vec<u8>, generation: u64, base_seq: u64) {
    let start = out.len();
    out.extend_from_slice(WAL_MAGIC);
    put_u16(out, WAL_VERSION);
    put_u64(out, generation);
    put_u64(out, base_seq);
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

/// Decodes a WAL header; `None` on truncation, bad magic/version, or CRC
/// mismatch (a torn header — recovery then falls back to the snapshot's
/// sequence number and treats the log as empty).
pub fn decode_wal_header(bytes: &[u8]) -> Option<WalHeader> {
    if bytes.len() < WAL_HEADER_LEN {
        return None;
    }
    let (body, crc_bytes) = bytes[..WAL_HEADER_LEN].split_at(WAL_HEADER_LEN - 4);
    if &body[0..4] != WAL_MAGIC {
        return None;
    }
    if u16::from_le_bytes(body[4..6].try_into().expect("2 bytes")) != WAL_VERSION {
        return None;
    }
    let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != crc {
        return None;
    }
    Some(WalHeader {
        generation: u64::from_le_bytes(body[6..14].try_into().expect("8 bytes")),
        base_seq: u64::from_le_bytes(body[14..22].try_into().expect("8 bytes")),
    })
}

/// Result of reading a (possibly torn) log file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedWal {
    /// The decoded header, or `None` when it is missing/torn (recovery
    /// substitutes the snapshot's sequence and treats the log as empty).
    pub header: Option<WalHeader>,
    /// The complete, CRC-valid records in log order.
    pub records: Vec<WalOp>,
    /// Byte offset (from the start of the file) at which each record ends;
    /// parallel to `records`. Recovery uses it to attribute only the bytes
    /// of the records it actually replays, not the snapshot-covered prefix.
    pub record_ends: Vec<u64>,
    /// Byte length of the valid prefix (header + valid records). Recovery
    /// truncates the store to this length, discarding the torn tail.
    pub valid_len: u64,
}

/// Walks `bytes` record by record, stopping at the first torn/corrupt
/// frame. Total function: any input — truncated, bit-flipped, garbage —
/// yields a (possibly empty) valid prefix, never a panic.
pub fn parse_wal(bytes: &[u8]) -> ParsedWal {
    let Some(header) = decode_wal_header(bytes) else {
        return ParsedWal {
            header: None,
            records: Vec::new(),
            record_ends: Vec::new(),
            valid_len: 0,
        };
    };
    let mut records = Vec::new();
    let mut record_ends = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    while let Some((op, consumed)) = decode_record(bytes, offset) {
        records.push(op);
        offset += consumed;
        record_ends.push(offset as u64);
    }
    ParsedWal { header: Some(header), records, record_ends, valid_len: offset as u64 }
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// Registry handles a [`WalWriter`] feeds on its own append/fsync path
/// when installed via [`WalWriter::set_metrics`]. The byte/record counters
/// are the stream's lifetime series and its only WAL counters: the writer
/// bumps them per successful append, and `Stats` reads them.
#[derive(Clone, Debug)]
pub struct WalMetrics {
    /// Latency of one record append (excluding fsync).
    pub append_nanos: Arc<LatencyHistogram>,
    /// Latency of one fsync.
    pub fsync_nanos: Arc<LatencyHistogram>,
    /// Per-stream lifetime WAL bytes.
    pub bytes: Arc<Counter>,
    /// Per-stream lifetime WAL records.
    pub records: Arc<Counter>,
}

/// Append side of one stream's log: frames records, enforces the fsync
/// policy, repairs torn writes, and bumps the stream's WAL series
/// ([`WalMetrics`]) when installed.
///
/// # Torn-write repair
///
/// [`WalStore::append`] may land a prefix and then fail. The writer then
/// *truncates the store back to the last known-good length*: the log stays
/// parseable and the next record lands cleanly. If that repair truncation
/// *also* fails, the writer is **broken** ([`WalWriter::is_broken`]) — the
/// store's tail state is unknown and the owning stream must be re-recovered
/// from durable state (which CRC-truncates whatever the torn write left).
pub struct WalWriter {
    store: Box<dyn WalStore>,
    /// Live metric handles, when the owning server exports metrics.
    metrics: Option<WalMetrics>,
    policy: FsyncPolicy,
    /// Incarnation id stamped into every header this writer writes.
    generation: u64,
    /// Known-good byte length (header + fully appended records).
    len: u64,
    /// Stream-order index of the next record to append.
    next_seq: u64,
    broken: bool,
    records_since_sync: u32,
    last_sync: Instant,
    scratch: Vec<u8>,
}

impl WalWriter {
    /// Starts a fresh log for incarnation `generation`: truncates the
    /// store, writes a header with `base_seq`, and syncs it.
    ///
    /// # Errors
    ///
    /// Propagates store failures; the store's state is then unknown and
    /// the caller should treat the stream as requiring recovery.
    pub fn create(
        mut store: Box<dyn WalStore>,
        generation: u64,
        base_seq: u64,
        policy: FsyncPolicy,
    ) -> io::Result<Self> {
        store.truncate(0)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN);
        encode_wal_header(&mut header, generation, base_seq);
        append_all(store.as_mut(), &header)?;
        store.sync()?;
        Ok(Self {
            store,
            metrics: None,
            policy,
            generation,
            len: WAL_HEADER_LEN as u64,
            next_seq: base_seq,
            broken: false,
            records_since_sync: 0,
            last_sync: Instant::now(),
            scratch: Vec::new(),
        })
    }

    /// Adopts an existing log of incarnation `generation` whose valid
    /// prefix ends at `valid_len` with `next_seq` records before it
    /// (recovery truncates the torn tail off first and hands the writer
    /// the clean end).
    ///
    /// # Errors
    ///
    /// Propagates the truncation failure.
    pub fn resume(
        mut store: Box<dyn WalStore>,
        generation: u64,
        valid_len: u64,
        next_seq: u64,
        policy: FsyncPolicy,
    ) -> io::Result<Self> {
        store.truncate(valid_len)?;
        store.sync()?;
        Ok(Self {
            store,
            metrics: None,
            policy,
            generation,
            len: valid_len,
            next_seq,
            broken: false,
            records_since_sync: 0,
            last_sync: Instant::now(),
            scratch: Vec::new(),
        })
    }

    /// The incarnation id this writer stamps into headers — the one its
    /// stream's durable snapshots must carry for recovery to replay them
    /// together.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stream-order index of the next record to append.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes currently in the log (header + records).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN as u64
    }

    /// `true` after a failed torn-write repair: the store's tail is
    /// unknown and the stream must be re-recovered from durable state.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Installs live metric handles: every successful append then bumps
    /// the byte/record counters and records append/fsync latency. The
    /// caller seeds the counters to the stream's persisted totals.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = Some(metrics);
    }

    /// Appends one operation record and applies the fsync policy. On
    /// success the op is durable to the extent the policy promises — the
    /// caller may apply it and acknowledge.
    ///
    /// # Errors
    ///
    /// As [`WalWriter::append_record`].
    pub fn append_op(&mut self, op: WalOpRef<'_>) -> io::Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        encode_record(&mut scratch, op);
        let result = self.append_record(&scratch);
        self.scratch = scratch;
        result
    }

    /// Appends one record already framed by [`encode_record`] and applies
    /// the fsync policy — the entry point for callers that encode once and
    /// use the same bytes twice (a primary ships them to its replicas, a
    /// replica appends what it was shipped). The caller vouches for the
    /// framing; the writer does not re-validate it.
    ///
    /// # Errors
    ///
    /// Any store failure. The op was **not** made durable and must not be
    /// applied; check [`WalWriter::is_broken`] to see whether in-place
    /// repair succeeded (stream usable) or recovery is required.
    pub fn append_record(&mut self, record: &[u8]) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other("wal writer broken by an earlier failed repair"));
        }
        let started = self.metrics.as_ref().map(|_| Instant::now());
        if let Err(err) = append_all(self.store.as_mut(), record) {
            // Torn write: some prefix may be on disk. Repair by truncating
            // back to the known-good length.
            if self.store.truncate(self.len).is_err() || self.store.sync().is_err() {
                self.broken = true;
            }
            return Err(err);
        }
        self.len += record.len() as u64;
        self.next_seq += 1;
        self.records_since_sync += 1;
        if let (Some(metrics), Some(started)) = (&self.metrics, started) {
            metrics.append_nanos.record_duration(started.elapsed());
            metrics.bytes.add(record.len() as u64);
            metrics.records.inc();
        }
        let due = match self.policy {
            FsyncPolicy::PerOp => true,
            FsyncPolicy::EveryN(n) => self.records_since_sync >= n.max(1),
            FsyncPolicy::Timer(interval) => self.last_sync.elapsed() >= interval,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// `true` when a [`FsyncPolicy::Timer`] writer has unsynced records
    /// whose interval has elapsed.
    ///
    /// The append path only checks the clock *while ops arrive*: a record
    /// written just before traffic stops would otherwise sit unsynced
    /// until the next append — unbounded exposure on an idle stream,
    /// exactly what the timer policy promises to bound. The worker polls
    /// this from its idle tick and calls [`WalWriter::sync`] when due.
    pub fn timer_sync_due(&self) -> bool {
        match self.policy {
            FsyncPolicy::Timer(interval) => {
                self.records_since_sync > 0 && self.last_sync.elapsed() >= interval
            }
            FsyncPolicy::PerOp | FsyncPolicy::EveryN(_) => false,
        }
    }

    /// Forces a sync (used by compaction and shutdown).
    ///
    /// # Errors
    ///
    /// Propagates the store failure — and marks the writer **broken**: a
    /// failed fsync means the kernel may have dropped dirty pages, so
    /// nothing this handle believes about the log's durable tail can be
    /// trusted. The stream must be re-recovered from durable state, which
    /// replays exactly the records that actually survived.
    pub fn sync(&mut self) -> io::Result<()> {
        let started = self.metrics.as_ref().map(|_| Instant::now());
        let result = self.store.sync();
        if let (Some(metrics), Some(started)) = (&self.metrics, started) {
            // Failed fsyncs are observations too — they are the slow ones.
            metrics.fsync_nanos.record_duration(started.elapsed());
        }
        match result {
            Ok(()) => {
                self.records_since_sync = 0;
                self.last_sync = Instant::now();
                Ok(())
            }
            Err(err) => {
                self.broken = true;
                Err(err)
            }
        }
    }

    /// Restarts the log at `base_seq` (compaction: the snapshot now covers
    /// everything before it).
    ///
    /// # Errors
    ///
    /// Propagates store failures; on error the writer is marked broken
    /// (the log may be half-rewritten) and the stream must be re-recovered
    /// — which is safe, because the snapshot was written *first*.
    pub fn reset(&mut self, base_seq: u64) -> io::Result<()> {
        let result = (|| {
            self.store.truncate(0)?;
            let mut header = Vec::with_capacity(WAL_HEADER_LEN);
            encode_wal_header(&mut header, self.generation, base_seq);
            append_all(self.store.as_mut(), &header)?;
            self.store.sync()
        })();
        match result {
            Ok(()) => {
                self.len = WAL_HEADER_LEN as u64;
                self.next_seq = base_seq;
                self.records_since_sync = 0;
                self.last_sync = Instant::now();
                Ok(())
            }
            Err(err) => {
                self.broken = true;
                Err(err)
            }
        }
    }
}

/// Appends the whole slice, looping over short writes; returns the first
/// error (after which a prefix may be on disk — the caller repairs).
fn append_all(store: &mut dyn WalStore, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        let n = store.append(bytes)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::WriteZero, "wal store accepted 0 bytes"));
        }
        bytes = &bytes[n..];
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Durable snapshot wrapper
// ---------------------------------------------------------------------------

/// Leading magic of a durable (service-level) snapshot file.
pub const DURABLE_MAGIC: &[u8; 4] = b"UNSD";

/// Durable snapshot format version written by this build.
pub const DURABLE_VERSION: u16 = 1;

/// Cumulative per-stream durability counters (reported by `Stats`,
/// persisted in the durable snapshot so they survive compaction and
/// recovery).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Bytes appended to the WAL over the stream's lifetime.
    pub wal_bytes: u64,
    /// Records appended to the WAL over the stream's lifetime.
    pub wal_records: u64,
    /// Snapshot compactions performed.
    pub snapshot_compactions: u64,
    /// Times the stream was rebuilt from snapshot + log replay (server
    /// restarts and in-place self-heals alike).
    pub recoveries: u64,
}

/// What the durable snapshot file stores besides the sampler blob: the
/// stream-order position the blob captures and the stats counters needed
/// to keep positions/acknowledgements bit-equal across recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurableSnapshot {
    /// Incarnation id of the stream this snapshot belongs to. Recovery
    /// replays only a WAL whose header carries the same generation; every
    /// create/restore stamps a fresh one into both, so a stale log left
    /// by a crash mid-create can never replay onto the wrong incarnation.
    pub generation: u64,
    /// Number of mutating ops applied when the snapshot was taken — WAL
    /// records with stream-order index `>= seq` must be replayed on top.
    pub seq: u64,
    /// Stream elements absorbed (the reply `position`).
    pub elements: u64,
    /// Elements admitted into Γ.
    pub admitted: u64,
    /// Output samples drawn by feed batches.
    pub outputs: u64,
    /// Batches processed.
    pub chunks: u64,
    /// Durability counters at snapshot time.
    pub durability: DurabilityStats,
    /// The canonical sampler snapshot ([`crate::snapshot`]).
    pub sampler_blob: Vec<u8>,
}

impl DurableSnapshot {
    /// Encodes the file: header, counters, blob, trailing CRC over all of
    /// the preceding bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(DURABLE_MAGIC);
        put_u16(out, DURABLE_VERSION);
        put_u64(out, self.generation);
        put_u64(out, self.seq);
        put_u64(out, self.elements);
        put_u64(out, self.admitted);
        put_u64(out, self.outputs);
        put_u64(out, self.chunks);
        put_u64(out, self.durability.wal_bytes);
        put_u64(out, self.durability.wal_records);
        put_u64(out, self.durability.snapshot_compactions);
        put_u64(out, self.durability.recoveries);
        put_u32(out, self.sampler_blob.len() as u32);
        out.extend_from_slice(&self.sampler_blob);
        let crc = crc32(out);
        put_u32(out, crc);
    }

    /// Decodes and CRC-verifies a durable snapshot file.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Snapshot`] on truncation, bad magic/version, a blob
    /// length that exceeds the bytes present (checked before allocating),
    /// or CRC mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self, ServiceError> {
        let snap_err = |msg: &str| ServiceError::Snapshot(format!("durable snapshot: {msg}"));
        if bytes.len() < 4 {
            return Err(snap_err("truncated before magic"));
        }
        if &bytes[0..4] != DURABLE_MAGIC {
            return Err(snap_err("bad magic"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len().saturating_sub(4));
        if crc_bytes.len() != 4
            || crc32(body) != u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"))
        {
            return Err(snap_err("CRC mismatch"));
        }
        let mut cur = Cursor::new(&body[4..]);
        let ctx = |_: ServiceError| snap_err("truncated");
        let version = cur.u16().map_err(ctx)?;
        if version != DURABLE_VERSION {
            return Err(snap_err("unsupported version"));
        }
        let generation = cur.u64().map_err(ctx)?;
        let seq = cur.u64().map_err(ctx)?;
        let elements = cur.u64().map_err(ctx)?;
        let admitted = cur.u64().map_err(ctx)?;
        let outputs = cur.u64().map_err(ctx)?;
        let chunks = cur.u64().map_err(ctx)?;
        let durability = DurabilityStats {
            wal_bytes: cur.u64().map_err(ctx)?,
            wal_records: cur.u64().map_err(ctx)?,
            snapshot_compactions: cur.u64().map_err(ctx)?,
            recoveries: cur.u64().map_err(ctx)?,
        };
        let blob_len = cur.u32().map_err(ctx)? as usize;
        if blob_len != cur.remaining() {
            return Err(snap_err("blob length disagrees with bytes present"));
        }
        let sampler_blob = cur.take(blob_len).map_err(ctx)?.to_vec();
        Ok(Self { generation, seq, elements, admitted, outputs, chunks, durability, sampler_blob })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{MemBackend, StorageBackend};

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_crc32_matches_the_bytewise_reference() {
        // The textbook byte-at-a-time reduction, as a differential anchor
        // for the slice-by-8 fast path at every alignment and length.
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = u32::MAX;
            for &byte in bytes {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
            }
            !crc
        }
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let bytes: Vec<u8> = (0..1024)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        for len in (0..64).chain([100, 255, 511, 777, 1024]) {
            assert_eq!(crc32(&bytes[..len]), bytewise(&bytes[..len]), "length {len}");
        }
        for start in 0..16 {
            assert_eq!(crc32(&bytes[start..]), bytewise(&bytes[start..]), "offset {start}");
        }
    }

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId::new).collect()
    }

    #[test]
    fn records_round_trip() {
        let mut buf = Vec::new();
        encode_record(&mut buf, WalOpRef::Ingest(&ids(0..5)));
        encode_record(&mut buf, WalOpRef::Sample);
        encode_record(&mut buf, WalOpRef::Feed(&ids(5..7)));
        encode_record(&mut buf, WalOpRef::Feed(&[]));
        let mut offset = 0;
        let mut ops = Vec::new();
        while let Some((op, consumed)) = decode_record(&buf, offset) {
            ops.push(op);
            offset += consumed;
        }
        assert_eq!(offset, buf.len());
        assert_eq!(
            ops,
            vec![
                WalOp::Ingest(ids(0..5)),
                WalOp::Sample,
                WalOp::Feed(ids(5..7)),
                WalOp::Feed(Vec::new()),
            ]
        );
    }

    #[test]
    fn corrupt_records_are_rejected_not_panicked() {
        let mut buf = Vec::new();
        encode_record(&mut buf, WalOpRef::Feed(&ids(0..8)));
        // Bit flips anywhere in the record kill the CRC.
        for bit in [0usize, 35, 64, buf.len() * 8 - 1] {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            if bit / 8 < 4 {
                // A corrupt length field either fails bounds or CRC.
                assert!(decode_record(&bad, 0).is_none());
            } else {
                assert!(decode_record(&bad, 0).is_none(), "bit {bit} accepted");
            }
        }
        // Truncation at every boundary is detected.
        for cut in 0..buf.len() {
            assert!(decode_record(&buf[..cut], 0).is_none(), "cut {cut} accepted");
        }
        // A huge claimed length cannot drive an allocation.
        let mut huge = buf.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_record(&huge, 0).is_none());
    }

    #[test]
    fn header_round_trips_and_rejects_corruption() {
        let mut buf = Vec::new();
        encode_wal_header(&mut buf, 9, 42);
        assert_eq!(buf.len(), WAL_HEADER_LEN);
        assert_eq!(decode_wal_header(&buf), Some(WalHeader { generation: 9, base_seq: 42 }));
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert_eq!(decode_wal_header(&bad), None, "byte {i} accepted");
        }
        assert_eq!(decode_wal_header(&buf[..WAL_HEADER_LEN - 1]), None);
    }

    #[test]
    fn parse_wal_truncates_at_the_torn_tail() {
        let mut buf = Vec::new();
        encode_wal_header(&mut buf, 1, 7);
        let header_len = buf.len() as u64;
        encode_record(&mut buf, WalOpRef::Ingest(&ids(0..3)));
        let first_end = buf.len() as u64;
        encode_record(&mut buf, WalOpRef::Sample);
        let valid_len = buf.len();
        // A torn third record: only half its bytes made it.
        let mut torn = Vec::new();
        encode_record(&mut torn, WalOpRef::Feed(&ids(0..100)));
        buf.extend_from_slice(&torn[..torn.len() / 2]);
        let parsed = parse_wal(&buf);
        assert_eq!(parsed.header, Some(WalHeader { generation: 1, base_seq: 7 }));
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.valid_len, valid_len as u64);
        // Record boundaries: contiguous from the header to the valid end.
        assert_eq!(parsed.record_ends, vec![first_end, valid_len as u64]);
        assert!(parsed.record_ends[0] > header_len);
        // Garbage input: total function, empty result.
        let garbage = parse_wal(b"not a wal at all");
        assert_eq!(garbage.header, None);
        assert_eq!(garbage.valid_len, 0);
        assert!(garbage.record_ends.is_empty());
    }

    #[test]
    fn writer_appends_syncs_and_survives_crash_per_policy() {
        let backend = MemBackend::new();
        let store = backend.open_wal("s").unwrap();
        let mut writer = WalWriter::create(store, 1, 0, FsyncPolicy::EveryN(2)).unwrap();
        writer.append_op(WalOpRef::Ingest(&ids(0..4))).unwrap(); // unsynced
        writer.append_op(WalOpRef::Sample).unwrap(); // second record: syncs
        writer.append_op(WalOpRef::Feed(&ids(4..6))).unwrap(); // unsynced again
        assert_eq!(writer.next_seq(), 3);
        assert!(!writer.is_empty());
        backend.crash();
        let mut store = backend.open_wal("s").unwrap();
        let parsed = parse_wal(&store.read_all().unwrap());
        assert_eq!(parsed.header, Some(WalHeader { generation: 1, base_seq: 0 }));
        assert_eq!(parsed.records.len(), 2, "EveryN(2): the third (unsynced) record is lost");
        // PerOp: nothing is ever lost.
        let store = backend.open_wal("p").unwrap();
        let mut writer = WalWriter::create(store, 1, 5, FsyncPolicy::PerOp).unwrap();
        writer.append_op(WalOpRef::Sample).unwrap();
        backend.crash();
        let mut store = backend.open_wal("p").unwrap();
        let parsed = parse_wal(&store.read_all().unwrap());
        assert_eq!(parsed.header, Some(WalHeader { generation: 1, base_seq: 5 }));
        assert_eq!(parsed.records, vec![WalOp::Sample]);
    }

    #[test]
    fn writer_reset_restarts_the_log_at_the_new_base() {
        let backend = MemBackend::new();
        let mut writer =
            WalWriter::create(backend.open_wal("s").unwrap(), 3, 0, FsyncPolicy::PerOp).unwrap();
        writer.append_op(WalOpRef::Ingest(&ids(0..4))).unwrap();
        writer.append_op(WalOpRef::Sample).unwrap();
        writer.reset(2).unwrap();
        assert!(writer.is_empty());
        assert_eq!(writer.next_seq(), 2);
        writer.append_op(WalOpRef::Sample).unwrap();
        let mut store = backend.open_wal("s").unwrap();
        let parsed = parse_wal(&store.read_all().unwrap());
        // The reset keeps the incarnation generation.
        assert_eq!(parsed.header, Some(WalHeader { generation: 3, base_seq: 2 }));
        assert_eq!(parsed.records, vec![WalOp::Sample]);
    }

    #[test]
    fn durable_snapshot_round_trips_and_rejects_corruption() {
        let snap = DurableSnapshot {
            generation: 4,
            seq: 9,
            elements: 1000,
            admitted: 17,
            outputs: 900,
            chunks: 3,
            durability: DurabilityStats {
                wal_bytes: 4096,
                wal_records: 3,
                snapshot_compactions: 1,
                recoveries: 2,
            },
            sampler_blob: vec![1, 2, 3, 4, 5],
        };
        let mut buf = Vec::new();
        snap.encode(&mut buf);
        assert_eq!(DurableSnapshot::decode(&buf).unwrap(), snap);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x08;
            assert!(DurableSnapshot::decode(&bad).is_err(), "byte {i} accepted");
        }
        for cut in 0..buf.len() {
            assert!(DurableSnapshot::decode(&buf[..cut]).is_err(), "cut {cut} accepted");
        }
    }
}
