//! Output verification: rebuild the order the server applied every batch
//! in from the reply positions, replay it through a fresh
//! `ServiceSampler`, and require bit-equality with what the live run
//! returned — every reply's digest, the final snapshot bytes, and, for the
//! replicated workload, the durable logs on both nodes.

use std::hint::black_box;
use std::path::Path;
use uns_core::{derive_estimator_seed, NodeId};
use uns_service::protocol::{EstimatorKind, Request, Response, StreamConfig};
use uns_service::sampler::ServiceSampler;
use uns_service::storage::{DirBackend, StorageBackend};
use uns_service::wal::{
    decode_wal_header, encode_record, DurableSnapshot, WalOpRef, WAL_HEADER_LEN,
};
use uns_sketch::{CountMinSketch, CountSketch};

use crate::load::Fed;
use crate::trace::{request_id, Layer, Tracer};
use crate::workload::batch_ids;

/// Order-sensitive digest of one `FeedBatch` reply.
pub fn digest(admitted: u64, outputs: &[NodeId]) -> u64 {
    outputs.iter().fold(admitted ^ 0x243F_6A88_85A3_08D3, |h, id| {
        (h ^ id.as_u64()).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
    })
}

/// One acknowledged batch in the order the server applied it.
#[derive(Clone, Copy, Debug)]
pub struct Served {
    pub conn: usize,
    pub len: usize,
    pub fed: Fed,
}

/// Sorts one stream's acknowledged batches by reply position and checks
/// that they tile the stream from 0 with no gap or overlap: every batch
/// covered positions `position - len .. position`.
pub fn served_order(mut batches: Vec<Served>) -> Result<Vec<Served>, String> {
    batches.sort_by_key(|s| s.fed.position);
    let mut end = 0u64;
    for served in &batches {
        let start = served.fed.position.checked_sub(served.len as u64);
        if start != Some(end) {
            return Err(format!(
                "batch {} of connection {} ends at position {} but the stream was at {end}",
                served.fed.k, served.conn, served.fed.position
            ));
        }
        end = served.fed.position;
    }
    Ok(batches)
}

/// The shadow estimator the estimator layer is timed on: a sketch of the
/// stream's kind and dimensions, seeded exactly like the stream's own.
enum Shadow {
    CountMin(CountMinSketch),
    CountSketch(CountSketch),
}

impl Shadow {
    fn new(config: &StreamConfig) -> Result<Self, String> {
        let seed = derive_estimator_seed(config.seed);
        match config.kind {
            EstimatorKind::CountMin => CountMinSketch::with_dimensions_family(
                config.width,
                config.depth,
                seed,
                config.family,
            )
            .map(Shadow::CountMin),
            EstimatorKind::CountSketch => {
                CountSketch::with_dimensions_family(config.width, config.depth, seed, config.family)
                    .map(Shadow::CountSketch)
            }
            EstimatorKind::Exact => return Err("no shadow sketch for the exact oracle".into()),
        }
        .map_err(|err| err.to_string())
    }

    fn record(&mut self, ids: &[NodeId]) {
        match self {
            Shadow::CountMin(sketch) => ids.iter().for_each(|id| {
                black_box(sketch.record_and_estimate(id.as_u64()));
            }),
            Shadow::CountSketch(sketch) => ids.iter().for_each(|id| {
                black_box(sketch.record_and_estimate(id.as_u64()));
            }),
        }
    }

    /// Whether the shadow ended in the same state as the sampler's own
    /// estimator — proof that it did the same work.
    fn matches(&self, sampler: &ServiceSampler) -> bool {
        match (self, sampler) {
            (Shadow::CountMin(a), ServiceSampler::CountMin(s)) => {
                a.cells() == s.estimator().cells()
            }
            (Shadow::CountSketch(a), ServiceSampler::CountSketch(s)) => {
                a.cells() == s.estimator().cells()
            }
            _ => false,
        }
    }
}

/// What a replay needs besides the order.
pub struct ReplayInput<'a> {
    pub name: &'a str,
    pub config: &'a StreamConfig,
    pub pools: &'a [Vec<NodeId>],
    /// Also capture the sampler snapshot after this many batches.
    pub checkpoint: Option<usize>,
}

pub struct Replayed {
    pub sampler: ServiceSampler,
    pub checkpoint_blob: Option<Vec<u8>>,
}

/// Replays `order` through a fresh sampler, checking every reply digest.
///
/// With a tracer, batches whose live request was traced are also run
/// through the server-side codec (`Request::decode` of the frame the
/// client sent, `Response::encode` of the reply) and a shadow estimator,
/// one span per call under the live request's id. The shadow sees every
/// batch so its state, and so its cost, follows the live stream.
pub fn replay(
    input: &ReplayInput<'_>,
    order: &[Served],
    mut tracer: Option<&mut Tracer>,
) -> Result<Replayed, String> {
    let mut sampler = ServiceSampler::create(input.config).map_err(|e| e.to_string())?;
    let mut shadow = match tracer {
        Some(_) => Some(Shadow::new(input.config)?),
        None => None,
    };
    let (mut out, mut frame, mut reply) = (Vec::new(), Vec::new(), Vec::new());
    let mut checkpoint_blob = None;
    for (index, served) in order.iter().enumerate() {
        if input.checkpoint == Some(index) {
            let mut blob = Vec::new();
            sampler.snapshot(&mut blob);
            checkpoint_blob = Some(blob);
        }
        let ids = batch_ids(&input.pools[served.conn], served.len, served.fed.k);
        let req = request_id(served.conn, served.fed.k);
        out.clear();
        let admitted = match tracer.as_deref_mut().filter(|_| served.fed.traced) {
            Some(tracer) => {
                Request::encode_batch(&mut frame, true, input.name, ids);
                let decoded = tracer.time(Layer::ProtocolDecode, req, ids.len(), || {
                    matches!(Request::decode(black_box(&frame)), Ok(Request::FeedBatch { .. }))
                });
                if !decoded {
                    return Err("a recorded request frame did not decode as FeedBatch".into());
                }
                let admitted = tracer
                    .time(Layer::SamplerFeed, req, ids.len(), || sampler.feed_batch(ids, &mut out));
                let response = Response::Fed {
                    position: served.fed.position,
                    admitted,
                    outputs: std::mem::take(&mut out),
                };
                tracer.time(Layer::ProtocolEncode, req, ids.len(), || response.encode(&mut reply));
                if let Response::Fed { outputs, .. } = response {
                    out = outputs;
                }
                if let Some(shadow) = shadow.as_mut() {
                    tracer.time(Layer::EstimatorRecord, req, ids.len(), || shadow.record(ids));
                }
                admitted
            }
            None => {
                if let Some(shadow) = shadow.as_mut() {
                    shadow.record(ids);
                }
                sampler.feed_batch(ids, &mut out)
            }
        };
        if digest(admitted, &out) != served.fed.digest {
            return Err(format!(
                "replayed batch {} of connection {} (ending at position {}) differs from the live reply",
                served.fed.k, served.conn, served.fed.position
            ));
        }
    }
    if input.checkpoint == Some(order.len()) {
        let mut blob = Vec::new();
        sampler.snapshot(&mut blob);
        checkpoint_blob = Some(blob);
    }
    if shadow.is_some_and(|s| !s.matches(&sampler)) {
        return Err("the shadow estimator diverged from the replayed sampler's".into());
    }
    Ok(Replayed { sampler, checkpoint_blob })
}

/// What the durable logs of a replicated stream said.
pub struct Logs {
    /// Sequence of the primary's first logged record (its last compaction).
    pub primary_base: u64,
    /// The sampler state in the primary's durable snapshot, which covers
    /// exactly the first `primary_base` batches.
    pub primary_snapshot: Vec<u8>,
    /// Bytes of the replica's log.
    pub replica_bytes: u64,
}

/// Checks the write-ahead logs of a two-node stream against the served
/// order. The replica never compacts, so its log must hold every batch's
/// record, byte for byte as `encode_record` lays it out; the primary
/// compacts at a size threshold, so its log must equal the replica's from
/// the primary's base sequence on, under the same generation.
pub fn check_logs(
    primary: &Path,
    replica: &Path,
    stream: &str,
    order: &[Served],
    pools: &[Vec<NodeId>],
) -> Result<Logs, String> {
    let read = |dir: &Path| -> Result<Vec<u8>, String> {
        let backend = DirBackend::create(dir).map_err(|e| e.to_string())?;
        backend.open_wal(stream).and_then(|mut store| store.read_all()).map_err(|e| e.to_string())
    };
    let (primary_log, replica_log) = (read(primary)?, read(replica)?);
    let header = |bytes: &[u8], node: &str| {
        decode_wal_header(bytes).ok_or_else(|| format!("the {node}'s log has no valid header"))
    };
    let (primary_header, replica_header) =
        (header(&primary_log, "primary")?, header(&replica_log, "replica")?);
    if primary_header.generation != replica_header.generation || replica_header.base_seq != 0 {
        return Err("the replica's log is not the primary's incarnation from sequence 0".into());
    }
    let mut record = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    let mut primary_from = None;
    for (seq, served) in order.iter().enumerate() {
        if seq as u64 == primary_header.base_seq {
            primary_from = Some(offset);
        }
        record.clear();
        encode_record(
            &mut record,
            WalOpRef::Feed(batch_ids(&pools[served.conn], served.len, served.fed.k)),
        );
        if replica_log.get(offset..offset + record.len()) != Some(&record[..]) {
            return Err(format!("the replica's log record {seq} differs from the served batch"));
        }
        offset += record.len();
    }
    if offset != replica_log.len() {
        return Err("the replica's log holds records beyond the served order".into());
    }
    let primary_from = primary_from.unwrap_or(offset);
    if primary_log[WAL_HEADER_LEN..] != replica_log[primary_from..] {
        return Err("the primary's log differs from the replica's".into());
    }
    let backend = DirBackend::create(primary).map_err(|e| e.to_string())?;
    let snapshot = backend
        .read_snapshot(stream)
        .map_err(|e| e.to_string())?
        .ok_or("the primary has no durable snapshot")?;
    let snapshot = DurableSnapshot::decode(&snapshot).map_err(|e| e.to_string())?;
    if snapshot.seq != primary_header.base_seq {
        return Err("the primary's snapshot and log disagree on the compaction point".into());
    }
    Ok(Logs {
        primary_base: primary_header.base_seq,
        primary_snapshot: snapshot.sampler_blob,
        replica_bytes: replica_log.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uns_service::protocol::HashFamilyKind;

    fn config() -> StreamConfig {
        StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 10,
            width: 10,
            depth: 5,
            seed: 3,
            family: HashFamilyKind::Mersenne,
        }
    }

    /// Two connections' batches interleaved the way a server would apply
    /// them, with the digests a live run would have logged.
    fn live_run() -> (Vec<Vec<NodeId>>, Vec<Served>, Vec<u8>) {
        let pools: Vec<Vec<NodeId>> = (0..2u64)
            .map(|c| (0..64u64).map(|i| NodeId::new((i * 7 + c * 13) % 50)).collect())
            .collect();
        let mut sampler = ServiceSampler::create(&config()).unwrap();
        let (mut served, mut position, mut out) = (Vec::new(), 0u64, Vec::new());
        for step in 0..12u64 {
            let (conn, k) = ((step % 2) as usize, step / 2);
            let ids = batch_ids(&pools[conn], 16, k);
            out.clear();
            let admitted = sampler.feed_batch(ids, &mut out);
            position += 16;
            let fed = Fed { k, position, digest: digest(admitted, &out), traced: step % 3 == 0 };
            served.push(Served { conn, len: 16, fed });
        }
        let mut snapshot = Vec::new();
        sampler.snapshot(&mut snapshot);
        served.reverse(); // arrival order across connections is arbitrary
        (pools, served, snapshot)
    }

    #[test]
    fn replay_reproduces_the_live_run() {
        let (pools, served, snapshot) = live_run();
        let order = served_order(served).unwrap();
        let input =
            ReplayInput { name: "s", config: &config(), pools: &pools, checkpoint: Some(4) };
        let mut tracer = Tracer::new(std::time::Instant::now(), "replay", 1 << 10);
        let replayed = replay(&input, &order, Some(&mut tracer)).unwrap();
        let mut blob = Vec::new();
        replayed.sampler.snapshot(&mut blob);
        assert_eq!(blob, snapshot);
        assert!(replayed.checkpoint_blob.is_some());
        // Four spans (decode, feed, encode, estimator) per traced batch.
        assert_eq!(tracer.spans().len(), 4 * order.iter().filter(|s| s.fed.traced).count());
    }

    #[test]
    fn one_tampered_reply_digest_fails_verification() {
        let (pools, mut served, _) = live_run();
        served[5].fed.digest ^= 1;
        let order = served_order(served).unwrap();
        let input = ReplayInput { name: "s", config: &config(), pools: &pools, checkpoint: None };
        let err = replay(&input, &order, None).err().expect("a tampered digest must fail");
        assert!(err.contains("differs from the live reply"), "{err}");
    }

    #[test]
    fn a_gap_in_the_positions_fails_verification() {
        let (_, mut served, _) = live_run();
        served.remove(3);
        assert!(served_order(served).is_err());
    }
}
