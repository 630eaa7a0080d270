//! The service's request/response messages and their codecs.
//!
//! Payload layouts (after the `[version][opcode]` body header, see
//! [`crate::wire`]) are fixed little-endian structs; strings are
//! u16-length-prefixed UTF-8; identifier batches are u32-count-prefixed
//! arrays of u64. Requests decode **borrowing** the receive buffer
//! ([`Request`] carries `&'a str` names and [`IdsView`] batch views):
//! decoding itself allocates nothing, and the identifiers are copied
//! exactly once — [`IdsView::copy_into`] moves them straight from the
//! frame bytes into the batch vector handed to the owning worker's
//! sampler (routing is resolved *before* that copy, so misaddressed
//! requests cost none).

use crate::error::ServiceError;
use crate::wal::DurabilityStats;
use crate::wire::{put_str, put_u32, put_u64, Cursor, MAX_FRAME_LEN, PROTOCOL_VERSION};
use uns_core::NodeId;
use uns_sim::PipelineStats;
pub use uns_sketch::HashFamilyKind;

/// Longest accepted stream name, in bytes.
pub const MAX_STREAM_NAME_LEN: usize = 255;

/// Byte overhead of a [`Response::Fed`] body over its raw identifiers:
/// version, opcode, position, admitted, count.
const FED_OVERHEAD: usize = 1 + 1 + 8 + 8 + 4;

/// Largest identifier batch the server accepts in one Ingest/FeedBatch.
///
/// Bounding the *request* by [`MAX_FRAME_LEN`] alone is not enough: a
/// `Fed` reply echoes one output per input plus `FED_OVERHEAD` bytes of
/// header, so a maximum-size request with a short stream name would yield
/// a reply slightly *over* the frame cap — the connection would then die
/// on the reply instead of carrying an application error. This cap makes
/// the echoed response provably frameable.
pub const MAX_BATCH_IDS: usize = (MAX_FRAME_LEN - FED_OVERHEAD) / 8;

/// Which frequency estimator a stream's knowledge-free sampler runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Count-Min sketch (the paper's Algorithm 2) — the default.
    CountMin,
    /// Count sketch (signed median) — the estimator ablation.
    CountSketch,
    /// Exact frequency oracle — the adaptive omniscient strategy.
    Exact,
}

impl EstimatorKind {
    /// Wire tag of this kind.
    pub fn to_u8(self) -> u8 {
        match self {
            EstimatorKind::CountMin => 0,
            EstimatorKind::CountSketch => 1,
            EstimatorKind::Exact => 2,
        }
    }

    /// Parses a wire tag.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on an unknown tag.
    pub fn from_u8(tag: u8) -> Result<Self, ServiceError> {
        match tag {
            0 => Ok(EstimatorKind::CountMin),
            1 => Ok(EstimatorKind::CountSketch),
            2 => Ok(EstimatorKind::Exact),
            other => Err(ServiceError::Protocol(format!("unknown estimator kind {other}"))),
        }
    }
}

/// Parameters of a stream's sampler, fixed at stream creation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Estimator backing the knowledge-free sampler.
    pub kind: EstimatorKind,
    /// Sampling memory size `c`.
    pub capacity: usize,
    /// Sketch columns `k` (ignored by [`EstimatorKind::Exact`]).
    pub width: usize,
    /// Sketch rows `s` (ignored by [`EstimatorKind::Exact`]).
    pub depth: usize,
    /// Seed deriving both the sketch hash functions and the sampler coins.
    pub seed: u64,
    /// Hash family of the sketch rows (ignored by [`EstimatorKind::Exact`]).
    ///
    /// On the wire this is a *trailing optional* byte of the CreateStream
    /// payload: the default [`HashFamilyKind::Mersenne`] is encoded as its
    /// absence, so frames from clients predating the field decode
    /// unchanged and frames for default streams stay byte-identical to the
    /// previous wire format.
    pub family: HashFamilyKind,
}

/// A zero-copy view over a u32-count-prefixed array of u64 identifiers
/// inside a frame body.
#[derive(Clone, Copy, Debug)]
pub struct IdsView<'a> {
    bytes: &'a [u8],
    count: usize,
}

impl<'a> IdsView<'a> {
    /// Number of identifiers in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the identifiers straight off the wire bytes.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.bytes
            .chunks_exact(8)
            .map(|chunk| NodeId::new(u64::from_le_bytes(chunk.try_into().expect("chunk is 8"))))
    }

    /// Appends the batch to `out` (typically a cleared, reused scratch
    /// buffer) — the single copy between socket buffer and sampler input.
    pub fn copy_into(&self, out: &mut Vec<NodeId>) {
        out.reserve(self.count);
        out.extend(self.iter());
    }

    fn decode(cur: &mut Cursor<'a>) -> Result<Self, ServiceError> {
        let count = cur.u32()? as usize;
        // Checked: on 32-bit targets `count * 8` could wrap and let the
        // claimed count diverge from the bytes actually taken.
        let byte_len = count
            .checked_mul(8)
            .ok_or_else(|| ServiceError::Protocol("id batch byte size overflows usize".into()))?;
        let bytes = cur.take(byte_len)?;
        Ok(Self { bytes, count })
    }
}

/// Encodes a batch as the wire counterpart of [`IdsView`].
///
/// # Panics
///
/// Panics if the batch exceeds `u32::MAX` identifiers (such a frame would
/// be rejected by the frame-length cap long before).
pub fn put_ids(out: &mut Vec<u8>, ids: &[NodeId]) {
    put_u32(out, u32::try_from(ids.len()).expect("batch exceeds u32::MAX identifiers"));
    // One reservation and one pass over fixed 8-byte slots: no per-id
    // capacity check, so the loop compiles to plain stores.
    let start = out.len();
    out.resize(start + 8 * ids.len(), 0);
    for (slot, id) in out[start..].chunks_exact_mut(8).zip(ids) {
        slot.copy_from_slice(&id.as_u64().to_le_bytes());
    }
}

/// A client request, borrowing name and batch bytes from the frame buffer.
#[derive(Clone, Copy, Debug)]
pub enum Request<'a> {
    /// Create a named stream with the given sampler configuration.
    CreateStream {
        /// Stream name (service-unique).
        name: &'a str,
        /// Sampler configuration.
        config: StreamConfig,
    },
    /// Input-only batch: evolve the stream's sampler state, draw no
    /// output samples.
    Ingest {
        /// Target stream.
        name: &'a str,
        /// Identifier batch.
        ids: IdsView<'a>,
    },
    /// Feed a batch and return one output sample per element.
    FeedBatch {
        /// Target stream.
        name: &'a str,
        /// Identifier batch.
        ids: IdsView<'a>,
    },
    /// Draw one output sample without consuming input.
    Sample {
        /// Target stream.
        name: &'a str,
    },
    /// Read the estimator's current sampling floor `min_σ`.
    FloorEstimate {
        /// Target stream.
        name: &'a str,
    },
    /// Serialize the stream's full sampler state.
    Snapshot {
        /// Target stream.
        name: &'a str,
    },
    /// Create-or-replace a stream from a snapshot blob.
    Restore {
        /// Target stream.
        name: &'a str,
        /// Snapshot bytes as returned by [`Request::Snapshot`].
        snapshot: &'a [u8],
    },
    /// Read the stream's traffic counters.
    Stats {
        /// Target stream.
        name: &'a str,
    },
    /// Read the server-wide metrics exposition text (no target stream;
    /// answered by the connection itself, never enqueued to a worker).
    /// A trailing opcode addition: old clients never send it, old servers
    /// answer it with an unknown-opcode error.
    Metrics,
    /// Primary→replica replication shipment: apply WAL `records` (raw
    /// CRC-framed bytes, exactly as [`crate::wal::encode_record`] lays
    /// them out) for `name` starting at sequence `first_seq` under
    /// `generation`. A `snapshot` blob, when present, (re)establishes the
    /// replica's durable base first — the full-attach path; without it the
    /// shipment is incremental and the replica rejects generation or
    /// sequence mismatches by answering its own state. An empty shipment
    /// (no snapshot, no records) is a pure state probe. Answered with
    /// [`Response::ReplState`] after the records are durably applied
    /// (log-before-ack).
    Replicate {
        /// Target stream.
        name: &'a str,
        /// Incarnation generation the records belong to (ignored for the
        /// full-attach path — the snapshot carries its own).
        generation: u64,
        /// Sequence number of the first record in `records`.
        first_seq: u64,
        /// Durable snapshot blob establishing the replica's base
        /// (full attach), or `None` for incremental shipments and probes.
        snapshot: Option<&'a [u8]>,
        /// Raw CRC-framed WAL record bytes, zero or more records.
        records: &'a [u8],
    },
}

const OP_CREATE: u8 = 0x01;
const OP_INGEST: u8 = 0x02;
const OP_FEED_BATCH: u8 = 0x03;
const OP_SAMPLE: u8 = 0x04;
const OP_FLOOR: u8 = 0x05;
const OP_SNAPSHOT: u8 = 0x06;
const OP_RESTORE: u8 = 0x07;
const OP_STATS: u8 = 0x08;
const OP_METRICS: u8 = 0x09;
const OP_REPL_APPLY: u8 = 0x0A;

impl<'a> Request<'a> {
    /// Encodes the request as a frame body (version + opcode + payload)
    /// into `out` (cleared first).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        out.push(PROTOCOL_VERSION);
        match self {
            Request::CreateStream { name, config } => {
                out.push(OP_CREATE);
                put_str(out, name);
                out.push(config.kind.to_u8());
                put_u64(out, config.capacity as u64);
                put_u64(out, config.width as u64);
                put_u64(out, config.depth as u64);
                put_u64(out, config.seed);
                // Trailing optional family byte: absent ⇔ Mersenne, so
                // default-family frames are byte-identical to the previous
                // wire format.
                if config.family != HashFamilyKind::Mersenne {
                    out.push(config.family.to_u8());
                }
            }
            Request::Ingest { name, ids } => {
                out.push(OP_INGEST);
                put_str(out, name);
                put_u32(out, ids.count as u32);
                out.extend_from_slice(ids.bytes);
            }
            Request::FeedBatch { name, ids } => {
                out.push(OP_FEED_BATCH);
                put_str(out, name);
                put_u32(out, ids.count as u32);
                out.extend_from_slice(ids.bytes);
            }
            Request::Sample { name } => {
                out.push(OP_SAMPLE);
                put_str(out, name);
            }
            Request::FloorEstimate { name } => {
                out.push(OP_FLOOR);
                put_str(out, name);
            }
            Request::Snapshot { name } => {
                out.push(OP_SNAPSHOT);
                put_str(out, name);
            }
            Request::Restore { name, snapshot } => {
                out.push(OP_RESTORE);
                put_str(out, name);
                put_u32(out, snapshot.len() as u32);
                out.extend_from_slice(snapshot);
            }
            Request::Stats { name } => {
                out.push(OP_STATS);
                put_str(out, name);
            }
            Request::Metrics => out.push(OP_METRICS),
            Request::Replicate { name, generation, first_seq, snapshot, records } => {
                out.push(OP_REPL_APPLY);
                put_str(out, name);
                put_u64(out, *generation);
                put_u64(out, *first_seq);
                match snapshot {
                    Some(blob) => {
                        out.push(1);
                        put_u32(out, blob.len() as u32);
                        out.extend_from_slice(blob);
                    }
                    None => out.push(0),
                }
                put_u32(out, records.len() as u32);
                out.extend_from_slice(records);
            }
        }
    }

    /// Encodes a batch request directly from a `&[NodeId]` slice (the
    /// client-side counterpart of the zero-copy server decode).
    pub fn encode_batch(out: &mut Vec<u8>, feed: bool, name: &str, ids: &[NodeId]) {
        out.clear();
        out.push(PROTOCOL_VERSION);
        out.push(if feed { OP_FEED_BATCH } else { OP_INGEST });
        put_str(out, name);
        put_ids(out, ids);
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on version mismatch, unknown opcode,
    /// truncation, or trailing bytes.
    pub fn decode(body: &'a [u8]) -> Result<Self, ServiceError> {
        let mut cur = Cursor::new(body);
        let version = cur.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(ServiceError::Protocol(format!(
                "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
        let opcode = cur.u8()?;
        let request = match opcode {
            OP_CREATE => {
                let name = cur.str()?;
                let kind = EstimatorKind::from_u8(cur.u8()?)?;
                let capacity = cur.u64()? as usize;
                let width = cur.u64()? as usize;
                let depth = cur.u64()? as usize;
                let seed = cur.u64()?;
                let family = if cur.remaining() > 0 {
                    let tag = cur.u8()?;
                    HashFamilyKind::from_u8(tag).ok_or_else(|| {
                        ServiceError::Protocol(format!("unknown hash family {tag}"))
                    })?
                } else {
                    HashFamilyKind::Mersenne
                };
                Request::CreateStream {
                    name,
                    config: StreamConfig { kind, capacity, width, depth, seed, family },
                }
            }
            OP_INGEST => Request::Ingest { name: cur.str()?, ids: IdsView::decode(&mut cur)? },
            OP_FEED_BATCH => {
                Request::FeedBatch { name: cur.str()?, ids: IdsView::decode(&mut cur)? }
            }
            OP_SAMPLE => Request::Sample { name: cur.str()? },
            OP_FLOOR => Request::FloorEstimate { name: cur.str()? },
            OP_SNAPSHOT => Request::Snapshot { name: cur.str()? },
            OP_RESTORE => {
                let name = cur.str()?;
                let len = cur.u32()? as usize;
                let snapshot = cur.take(len)?;
                Request::Restore { name, snapshot }
            }
            OP_STATS => Request::Stats { name: cur.str()? },
            OP_METRICS => Request::Metrics,
            OP_REPL_APPLY => {
                let name = cur.str()?;
                let generation = cur.u64()?;
                let first_seq = cur.u64()?;
                let snapshot = if cur.u8()? != 0 {
                    let len = cur.u32()? as usize;
                    Some(cur.take(len)?)
                } else {
                    None
                };
                let len = cur.u32()? as usize;
                let records = cur.take(len)?;
                Request::Replicate { name, generation, first_seq, snapshot, records }
            }
            other => return Err(ServiceError::Protocol(format!("unknown request opcode {other}"))),
        };
        cur.finish()?;
        Ok(request)
    }

    /// The stream name this request targets (empty for server-wide
    /// requests like [`Request::Metrics`]).
    pub fn stream_name(&self) -> &'a str {
        match self {
            Request::CreateStream { name, .. }
            | Request::Ingest { name, .. }
            | Request::FeedBatch { name, .. }
            | Request::Sample { name }
            | Request::FloorEstimate { name }
            | Request::Snapshot { name }
            | Request::Restore { name, .. }
            | Request::Stats { name }
            | Request::Replicate { name, .. } => name,
            Request::Metrics => "",
        }
    }
}

/// Per-stream traffic counters, as returned by [`Request::Stats`].
///
/// The ingestion counters reuse [`uns_sim::PipelineStats`] — the same
/// accounting the in-process parallel pipeline reports — so service-path
/// and library-path runs are compared field for field:
/// `elements`/`admitted`/`outputs` mean exactly what they mean there,
/// `shards` is the server's worker-pool size and `chunks` the number of
/// batches processed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Ingestion accounting (see [`uns_sim::PipelineStats`]).
    pub pipeline: PipelineStats,
    /// Requests bounced with [`Response::Busy`] because the stream's shard
    /// queue was full at arrival.
    pub busy_rejections: u64,
    /// Durability accounting (all zero on a server running without a
    /// storage backend): WAL bytes/records, compactions, recoveries.
    pub durability: DurabilityStats,
    /// Replication accounting (all zero outside a replicated mesh). On
    /// the wire these are *trailing optional* words mirroring the
    /// CreateStream family byte: the all-zero default is encoded as their
    /// absence, so unreplicated Stats frames stay byte-identical to the
    /// previous wire format and frames from older encoders decode as
    /// zeros.
    pub replication: ReplicationStats,
}

/// Replication counters of one stream, folded into [`StreamStats`] by the
/// primary's connection from the same registered atomics the
/// `/metrics` exposition renders — the Stats↔exposition agreement is
/// structural, not a mirror.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Records sent to the replicas whose acks are still outstanding
    /// (`uns_replica_lag_records`).
    pub lag_records: u64,
    /// Record bytes shipped to replicas over the replication opcode
    /// (`uns_replication_bytes_total`).
    pub shipped_bytes: u64,
    /// Promotions this stream went through on this node
    /// (`uns_failovers_total`).
    pub failovers: u64,
}

impl ReplicationStats {
    /// `true` when every counter is zero (the unreplicated default, which
    /// the wire encodes as absence).
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

/// Error codes carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The named stream does not exist.
    UnknownStream,
    /// A stream with that name already exists.
    StreamExists,
    /// Stream configuration rejected.
    InvalidConfig,
    /// Snapshot blob rejected.
    BadSnapshot,
    /// The stream's write-ahead log rejected the op — the op was **not**
    /// applied (when it surfaces after a WAL-and-recovery race the outcome
    /// is unknown; clients resync by position).
    Durability,
    /// The node holds the stream only as a replica — the op was rejected
    /// before anything was applied; fail over to another endpoint.
    NotPrimary,
    /// The connection exceeded its admission rate — the op was rejected
    /// before anything was applied; slow down and retry.
    RateLimited,
    /// Anything else.
    Other,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::UnknownStream => 1,
            ErrorCode::StreamExists => 2,
            ErrorCode::InvalidConfig => 3,
            ErrorCode::BadSnapshot => 4,
            ErrorCode::Other => 5,
            ErrorCode::Durability => 6,
            ErrorCode::NotPrimary => 7,
            ErrorCode::RateLimited => 8,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, ServiceError> {
        match tag {
            1 => Ok(ErrorCode::UnknownStream),
            2 => Ok(ErrorCode::StreamExists),
            3 => Ok(ErrorCode::InvalidConfig),
            4 => Ok(ErrorCode::BadSnapshot),
            5 => Ok(ErrorCode::Other),
            6 => Ok(ErrorCode::Durability),
            7 => Ok(ErrorCode::NotPrimary),
            8 => Ok(ErrorCode::RateLimited),
            other => Err(ServiceError::Protocol(format!("unknown error code {other}"))),
        }
    }
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The request succeeded and carries no data (create, restore).
    Ok,
    /// An ingest batch was absorbed. `position` is the stream length after
    /// the batch — with concurrent connections it reconstructs the exact
    /// interleaving the server processed (the batch covered elements
    /// `position - len .. position`).
    Ingested {
        /// Stream length after this batch.
        position: u64,
        /// Elements of this batch that entered the memory `Γ`.
        admitted: u64,
    },
    /// A feed batch was absorbed; one output sample per input element.
    Fed {
        /// Stream length after this batch.
        position: u64,
        /// Elements of this batch that entered the memory `Γ`.
        admitted: u64,
        /// The output samples, in batch order.
        outputs: Vec<NodeId>,
    },
    /// One output sample, or `None` before anything was fed.
    Sampled(Option<NodeId>),
    /// A u64 reading (floor estimate).
    Value(u64),
    /// A serialized sampler state.
    Snapshot(Vec<u8>),
    /// Traffic counters.
    Stats(StreamStats),
    /// The server's metrics rendered as Prometheus text exposition.
    Metrics(String),
    /// The replica's durable replication state after a
    /// [`Request::Replicate`] shipment (or probe): the generation its log
    /// runs under and the next sequence it expects. Sent only once the
    /// shipped records are durable — the log-before-ack contract.
    ReplState {
        /// Incarnation generation of the replica's log.
        generation: u64,
        /// Next record sequence the replica expects.
        next_seq: u64,
    },
    /// The shard queue was full — retry (backpressure, nothing buffered).
    Busy,
    /// Application-level failure.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

const RESP_OK: u8 = 0x80;
const RESP_INGESTED: u8 = 0x81;
const RESP_FED: u8 = 0x82;
const RESP_SAMPLED: u8 = 0x83;
const RESP_VALUE: u8 = 0x84;
const RESP_SNAPSHOT: u8 = 0x85;
const RESP_STATS: u8 = 0x86;
const RESP_METRICS: u8 = 0x87;
const RESP_REPL_STATE: u8 = 0x88;
const RESP_BUSY: u8 = 0xEE;
const RESP_ERROR: u8 = 0xEF;

impl Response {
    /// Encodes the response as a frame body into `out` (cleared first).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        self.encode_into(out);
    }

    /// Appends the response's frame body to `out`, leaving what `out`
    /// already holds in place (the connection core encodes replies
    /// straight behind the frames still waiting for the socket).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(PROTOCOL_VERSION);
        match self {
            Response::Ok => out.push(RESP_OK),
            Response::Ingested { position, admitted } => {
                out.push(RESP_INGESTED);
                put_u64(out, *position);
                put_u64(out, *admitted);
            }
            Response::Fed { position, admitted, outputs } => {
                out.push(RESP_FED);
                put_u64(out, *position);
                put_u64(out, *admitted);
                put_ids(out, outputs);
            }
            Response::Sampled(sample) => {
                out.push(RESP_SAMPLED);
                out.push(u8::from(sample.is_some()));
                put_u64(out, sample.map_or(0, NodeId::as_u64));
            }
            Response::Value(value) => {
                out.push(RESP_VALUE);
                put_u64(out, *value);
            }
            Response::Snapshot(bytes) => {
                out.push(RESP_SNAPSHOT);
                put_u32(out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            Response::Stats(stats) => {
                out.push(RESP_STATS);
                put_u64(out, stats.pipeline.elements);
                put_u64(out, stats.pipeline.shards as u64);
                put_u64(out, stats.pipeline.chunks as u64);
                put_u64(out, stats.pipeline.admitted);
                put_u64(out, stats.pipeline.outputs);
                put_u64(out, stats.busy_rejections);
                put_u64(out, stats.durability.wal_bytes);
                put_u64(out, stats.durability.wal_records);
                put_u64(out, stats.durability.snapshot_compactions);
                put_u64(out, stats.durability.recoveries);
                // Trailing optional replication words: absent ⇔ all zero,
                // so unreplicated frames keep the previous wire format.
                if !stats.replication.is_zero() {
                    put_u64(out, stats.replication.lag_records);
                    put_u64(out, stats.replication.shipped_bytes);
                    put_u64(out, stats.replication.failovers);
                }
            }
            Response::Metrics(text) => {
                out.push(RESP_METRICS);
                // u32-length-prefixed (like Snapshot): exposition text for
                // many streams easily exceeds a u16 string's 64 KiB.
                put_u32(out, text.len() as u32);
                out.extend_from_slice(text.as_bytes());
            }
            Response::ReplState { generation, next_seq } => {
                out.push(RESP_REPL_STATE);
                put_u64(out, *generation);
                put_u64(out, *next_seq);
            }
            Response::Busy => out.push(RESP_BUSY),
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                out.push(code.to_u8());
                put_str(out, message);
            }
        }
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on version mismatch, unknown opcode,
    /// truncation, or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Self, ServiceError> {
        let mut cur = Cursor::new(body);
        let version = cur.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(ServiceError::Protocol(format!(
                "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
        let opcode = cur.u8()?;
        let response = match opcode {
            RESP_OK => Response::Ok,
            RESP_INGESTED => Response::Ingested { position: cur.u64()?, admitted: cur.u64()? },
            RESP_FED => {
                let position = cur.u64()?;
                let admitted = cur.u64()?;
                let ids = IdsView::decode(&mut cur)?;
                let mut outputs = Vec::new();
                ids.copy_into(&mut outputs);
                Response::Fed { position, admitted, outputs }
            }
            RESP_SAMPLED => {
                let present = cur.u8()? != 0;
                let id = cur.u64()?;
                Response::Sampled(present.then_some(NodeId::new(id)))
            }
            RESP_VALUE => Response::Value(cur.u64()?),
            RESP_SNAPSHOT => {
                let len = cur.u32()? as usize;
                Response::Snapshot(cur.take(len)?.to_vec())
            }
            RESP_STATS => Response::Stats(StreamStats {
                pipeline: PipelineStats {
                    elements: cur.u64()?,
                    shards: cur.u64()? as usize,
                    chunks: cur.u64()? as usize,
                    admitted: cur.u64()?,
                    outputs: cur.u64()?,
                },
                busy_rejections: cur.u64()?,
                durability: DurabilityStats {
                    wal_bytes: cur.u64()?,
                    wal_records: cur.u64()?,
                    snapshot_compactions: cur.u64()?,
                    recoveries: cur.u64()?,
                },
                replication: if cur.remaining() > 0 {
                    ReplicationStats {
                        lag_records: cur.u64()?,
                        shipped_bytes: cur.u64()?,
                        failovers: cur.u64()?,
                    }
                } else {
                    ReplicationStats::default()
                },
            }),
            RESP_METRICS => {
                let len = cur.u32()? as usize;
                let bytes = cur.take(len)?;
                Response::Metrics(String::from_utf8(bytes.to_vec()).map_err(|err| {
                    ServiceError::Protocol(format!("invalid UTF-8 in metrics text: {err}"))
                })?)
            }
            RESP_REPL_STATE => Response::ReplState { generation: cur.u64()?, next_seq: cur.u64()? },
            RESP_BUSY => Response::Busy,
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_u8(cur.u8()?)?,
                message: cur.str()?.to_string(),
            },
            other => {
                return Err(ServiceError::Protocol(format!("unknown response opcode {other}")))
            }
        };
        cur.finish()?;
        Ok(response)
    }

    /// Converts an error-ish response into the matching [`ServiceError`];
    /// success responses pass through as `Ok`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Busy`] for [`Response::Busy`]; the mapped
    /// application error for [`Response::Error`].
    pub fn into_result(self) -> Result<Response, ServiceError> {
        match self {
            Response::Busy => Err(ServiceError::Busy),
            Response::Error { code, message } => Err(match code {
                ErrorCode::UnknownStream => ServiceError::UnknownStream(message),
                ErrorCode::StreamExists => ServiceError::StreamExists(message),
                ErrorCode::InvalidConfig => ServiceError::InvalidConfig(message),
                ErrorCode::BadSnapshot => ServiceError::Snapshot(message),
                ErrorCode::Durability => ServiceError::Durability(message),
                ErrorCode::NotPrimary => ServiceError::NotPrimary(message),
                ErrorCode::RateLimited => ServiceError::RateLimited(message),
                ErrorCode::Other => ServiceError::Remote(message),
            }),
            ok => Ok(ok),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `put_ids` writes the same bytes as a count prefix followed by
        /// one `put_u64` per id, after whatever the buffer already holds,
        /// for any batch and its empty and one-id prefixes.
        #[test]
        fn put_ids_matches_the_per_id_encoding(
            raw in vec(any::<u64>(), 0..64),
            head in vec(any::<u8>(), 0..8),
        ) {
            let ids: Vec<NodeId> = raw.into_iter().map(NodeId::new).collect();
            for batch in [&ids[..0], &ids[..ids.len().min(1)], &ids[..]] {
                let mut per_id = head.clone();
                put_u32(&mut per_id, batch.len() as u32);
                for id in batch {
                    put_u64(&mut per_id, id.as_u64());
                }
                let mut one_pass = head.clone();
                put_ids(&mut one_pass, batch);
                prop_assert_eq!(one_pass, per_id);
            }
        }
    }

    fn round_trip_request(request: &Request<'_>) -> Vec<u8> {
        let mut body = Vec::new();
        request.encode(&mut body);
        body
    }

    #[test]
    fn requests_round_trip() {
        let config = StreamConfig {
            kind: EstimatorKind::CountSketch,
            capacity: 10,
            width: 50,
            depth: 5,
            seed: 42,
            family: HashFamilyKind::Mersenne,
        };
        let body = round_trip_request(&Request::CreateStream { name: "s1", config });
        match Request::decode(&body).unwrap() {
            Request::CreateStream { name, config: decoded } => {
                assert_eq!(name, "s1");
                assert_eq!(decoded, config);
            }
            other => panic!("wrong decode: {other:?}"),
        }

        let ids: Vec<NodeId> = (0..100u64).map(NodeId::new).collect();
        let mut body = Vec::new();
        Request::encode_batch(&mut body, true, "s1", &ids);
        match Request::decode(&body).unwrap() {
            Request::FeedBatch { name, ids: view } => {
                assert_eq!(name, "s1");
                assert_eq!(view.len(), 100);
                assert!(!view.is_empty());
                let mut copied = Vec::new();
                view.copy_into(&mut copied);
                assert_eq!(copied, ids);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        let mut body = Vec::new();
        Request::encode_batch(&mut body, false, "s2", &[]);
        match Request::decode(&body).unwrap() {
            Request::Ingest { name, ids } => {
                assert_eq!(name, "s2");
                assert!(ids.is_empty());
            }
            other => panic!("wrong decode: {other:?}"),
        }

        for request in [
            Request::Sample { name: "a" },
            Request::FloorEstimate { name: "b" },
            Request::Snapshot { name: "c" },
            Request::Restore { name: "d", snapshot: b"blob" },
            Request::Stats { name: "e" },
        ] {
            let body = round_trip_request(&request);
            let decoded = Request::decode(&body).unwrap();
            assert_eq!(decoded.stream_name(), request.stream_name());
        }

        // Metrics is payload-free (version + opcode only) and targets no
        // stream — a trailing opcode addition old servers simply reject.
        let body = round_trip_request(&Request::Metrics);
        assert_eq!(body.len(), 2);
        assert!(matches!(Request::decode(&body).unwrap(), Request::Metrics));
        assert_eq!(Request::Metrics.stream_name(), "");
    }

    #[test]
    fn replicate_requests_round_trip_byte_identically() {
        // Incremental shipment: the raw record bytes come back untouched —
        // the byte-identity the replication log contract rests on.
        let records: Vec<u8> = (0..64u8).collect();
        for (snapshot, records_slice) in [
            (None, &records[..]),
            (Some(&b"snapblob"[..]), &records[..]),
            (None, &[][..]), // pure probe
        ] {
            let request = Request::Replicate {
                name: "repl",
                generation: 7,
                first_seq: 42,
                snapshot,
                records: records_slice,
            };
            let body = round_trip_request(&request);
            match Request::decode(&body).unwrap() {
                Request::Replicate { name, generation, first_seq, snapshot: s, records: r } => {
                    assert_eq!(name, "repl");
                    assert_eq!(generation, 7);
                    assert_eq!(first_seq, 42);
                    assert_eq!(s, snapshot);
                    assert_eq!(r, records_slice);
                }
                other => panic!("wrong decode: {other:?}"),
            }
            assert_eq!(request.stream_name(), "repl");
        }
    }

    #[test]
    fn create_stream_family_byte_is_trailing_and_optional() {
        // Default family: no trailing byte — byte-identical to the
        // pre-family wire format, and frames without it decode as Mersenne.
        let default_config = StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 10,
            width: 50,
            depth: 5,
            seed: 42,
            family: HashFamilyKind::Mersenne,
        };
        let body = round_trip_request(&Request::CreateStream { name: "s", config: default_config });
        // version + opcode + (u16 len + 1 name byte) + kind + 4×u64
        assert_eq!(body.len(), 1 + 1 + 3 + 1 + 32, "default frame grew a family byte");
        match Request::decode(&body).unwrap() {
            Request::CreateStream { config, .. } => {
                assert_eq!(config.family, HashFamilyKind::Mersenne)
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // Multiply-shift: one trailing byte, round-trips.
        let ms_config = StreamConfig { family: HashFamilyKind::MultiplyShift, ..default_config };
        let ms_body = round_trip_request(&Request::CreateStream { name: "s", config: ms_config });
        assert_eq!(ms_body.len(), body.len() + 1);
        match Request::decode(&ms_body).unwrap() {
            Request::CreateStream { config, .. } => {
                assert_eq!(config.family, HashFamilyKind::MultiplyShift)
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // Unknown family tags are rejected, not silently defaulted.
        let mut bad = ms_body.clone();
        *bad.last_mut().unwrap() = 9;
        assert!(matches!(Request::decode(&bad), Err(ServiceError::Protocol(_))));
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Ok,
            Response::Ingested { position: 10, admitted: 3 },
            Response::Fed {
                position: 12,
                admitted: 1,
                outputs: vec![NodeId::new(5), NodeId::new(9)],
            },
            Response::Sampled(Some(NodeId::new(77))),
            Response::Sampled(None),
            Response::Value(123),
            Response::Snapshot(vec![1, 2, 3]),
            Response::Stats(StreamStats {
                pipeline: PipelineStats {
                    elements: 100,
                    shards: 4,
                    chunks: 25,
                    admitted: 30,
                    outputs: 100,
                },
                busy_rejections: 2,
                durability: DurabilityStats {
                    wal_bytes: 4096,
                    wal_records: 25,
                    snapshot_compactions: 1,
                    recoveries: 3,
                },
                replication: ReplicationStats::default(),
            }),
            Response::Stats(StreamStats {
                pipeline: PipelineStats::default(),
                busy_rejections: 0,
                durability: DurabilityStats::default(),
                replication: ReplicationStats { lag_records: 3, shipped_bytes: 9000, failovers: 1 },
            }),
            Response::ReplState { generation: 4, next_seq: 1234 },
            // Over a u16 string's 64 KiB — the u32-length text survives.
            Response::Metrics("# HELP x X.\nx 1\n".repeat(8 * 1024)),
            Response::Busy,
            Response::Error { code: ErrorCode::UnknownStream, message: "no such stream".into() },
        ];
        let mut body = Vec::new();
        for response in responses {
            response.encode(&mut body);
            assert_eq!(Response::decode(&body).unwrap(), response);
        }
    }

    #[test]
    fn version_and_opcode_violations_are_rejected() {
        let mut body = Vec::new();
        Request::Sample { name: "x" }.encode(&mut body);
        body[0] = 99; // bad version
        assert!(matches!(Request::decode(&body), Err(ServiceError::Protocol(_))));
        Request::Sample { name: "x" }.encode(&mut body);
        body[1] = 0x7F; // unknown opcode
        assert!(matches!(Request::decode(&body), Err(ServiceError::Protocol(_))));
        // Trailing garbage after a valid payload.
        Request::Sample { name: "x" }.encode(&mut body);
        body.push(0);
        assert!(matches!(Request::decode(&body), Err(ServiceError::Protocol(_))));
        // Same checks on the response side.
        let mut body = Vec::new();
        Response::Ok.encode(&mut body);
        body[0] = PROTOCOL_VERSION + 1;
        assert!(matches!(Response::decode(&body), Err(ServiceError::Protocol(_))));
        Response::Ok.encode(&mut body);
        body[1] = 0x10;
        assert!(matches!(Response::decode(&body), Err(ServiceError::Protocol(_))));
    }

    #[test]
    fn max_batch_fed_response_fits_a_frame_and_one_more_does_not() {
        const { assert!(FED_OVERHEAD + 8 * MAX_BATCH_IDS <= MAX_FRAME_LEN) }
        const { assert!(FED_OVERHEAD + 8 * (MAX_BATCH_IDS + 1) > MAX_FRAME_LEN) }
    }

    #[test]
    fn into_result_maps_error_responses() {
        assert!(matches!(Response::Busy.into_result(), Err(ServiceError::Busy)));
        assert!(matches!(Response::Ok.into_result(), Ok(Response::Ok)));
        let err = Response::Error { code: ErrorCode::StreamExists, message: "s".into() };
        assert!(matches!(err.into_result(), Err(ServiceError::StreamExists(_))));
        let err = Response::Error { code: ErrorCode::BadSnapshot, message: "s".into() };
        assert!(matches!(err.into_result(), Err(ServiceError::Snapshot(_))));
        let err = Response::Error { code: ErrorCode::Durability, message: "s".into() };
        assert!(matches!(err.into_result(), Err(ServiceError::Durability(_))));
        let err = Response::Error { code: ErrorCode::NotPrimary, message: "s".into() };
        assert!(matches!(err.into_result(), Err(ServiceError::NotPrimary(_))));
        let err = Response::Error { code: ErrorCode::RateLimited, message: "s".into() };
        assert!(matches!(err.into_result(), Err(ServiceError::RateLimited(_))));
        let mut body = Vec::new();
        Response::Error { code: ErrorCode::RateLimited, message: "slow down".into() }
            .encode(&mut body);
        let decoded = Response::decode(&body).unwrap();
        assert!(
            matches!(decoded.into_result(), Err(ServiceError::RateLimited(m)) if m == "slow down")
        );
    }

    #[test]
    fn stats_replication_words_are_trailing_optional() {
        // All-zero replication stats encode nothing extra: the body is
        // byte-identical to what a pre-replication peer would emit, so old
        // decoders keep working and new decoders read the default.
        let zero = Response::Stats(StreamStats {
            pipeline: PipelineStats { elements: 7, shards: 1, chunks: 2, admitted: 3, outputs: 4 },
            busy_rejections: 1,
            durability: DurabilityStats::default(),
            replication: ReplicationStats::default(),
        });
        let mut nonzero_stats = match &zero {
            Response::Stats(s) => *s,
            _ => unreachable!(),
        };
        nonzero_stats.replication.lag_records = 5;
        let nonzero = Response::Stats(nonzero_stats);
        let mut zero_body = Vec::new();
        zero.encode(&mut zero_body);
        let mut nonzero_body = Vec::new();
        nonzero.encode(&mut nonzero_body);
        assert_eq!(nonzero_body.len(), zero_body.len() + 24);
        assert_eq!(Response::decode(&zero_body).unwrap(), zero);
        assert_eq!(Response::decode(&nonzero_body).unwrap(), nonzero);
    }
}
