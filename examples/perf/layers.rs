//! Timing-only replays of the served order through the storage and
//! replication layers, and of the read path through the sampler. Each runs
//! after the window, on the workload's own batches, one span per call.

use std::path::Path;
use std::sync::Arc;
use uns_core::NodeId;
use uns_mesh::ReplicaApplier;
use uns_service::protocol::{Response, StreamConfig};
use uns_service::sampler::ServiceSampler;
use uns_service::server::ReplicaHandler;
use uns_service::storage::{DirBackend, StorageBackend};
use uns_service::wal::{encode_record, DurableSnapshot, FsyncPolicy, WalOpRef, WalWriter};

use crate::stats::SplitMix;
use crate::trace::{request_id, Layer, Tracer};
use crate::verify::Served;
use crate::workload::batch_ids;

/// Served batches the storage and replication replays cover: enough for
/// stable per-call means, bounded because each call waits for an fsync.
const DURABLE_REPLAY_OPS: usize = 2048;

/// Read calls timed on the replayed final state.
const READ_CALLS: usize = 2048;

/// Appends the first [`DURABLE_REPLAY_OPS`] served batches to a fresh
/// write-ahead log (`EveryN(u32::MAX)` so the append never syncs by
/// itself), syncing after each: one `wal.append` and one `wal.fsync` span
/// per batch. Returns the record bytes appended and the identifiers they
/// carry.
pub fn time_wal(
    dir: &Path,
    stream: &str,
    order: &[Served],
    pools: &[Vec<NodeId>],
    tracer: &mut Tracer,
) -> Result<(u64, u64), String> {
    let backend = DirBackend::create(dir).map_err(|e| e.to_string())?;
    let store = backend.open_wal(stream).map_err(|e| e.to_string())?;
    let mut writer =
        WalWriter::create(store, 1, 0, FsyncPolicy::EveryN(u32::MAX)).map_err(|e| e.to_string())?;
    let start_len = writer.len();
    let mut elems = 0u64;
    for served in order.iter().take(DURABLE_REPLAY_OPS) {
        let ids = batch_ids(&pools[served.conn], served.len, served.fed.k);
        let req = request_id(served.conn, served.fed.k);
        tracer
            .time(Layer::WalAppend, req, ids.len(), || writer.append_op(WalOpRef::Feed(ids)))
            .map_err(|e| e.to_string())?;
        tracer
            .time(Layer::WalFsync, req, ids.len(), || writer.sync())
            .map_err(|e| e.to_string())?;
        elems += ids.len() as u64;
    }
    Ok((writer.len() - start_len, elems))
}

/// Ships the first [`DURABLE_REPLAY_OPS`] served batches, as the exact
/// `encode_record` bytes a primary ships, to a fresh replica applier
/// attached with the stream's initial durable snapshot — one `mesh.apply`
/// span per record, each including the replica's own fsync.
pub fn time_mesh(
    dir: &Path,
    stream: &str,
    config: &StreamConfig,
    order: &[Served],
    pools: &[Vec<NodeId>],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let applier = ReplicaApplier::new(
        Arc::new(DirBackend::create(dir).map_err(|e| e.to_string())?),
        FsyncPolicy::PerOp,
    );
    let mut sampler_blob = Vec::new();
    ServiceSampler::create(config).map_err(|e| e.to_string())?.snapshot(&mut sampler_blob);
    let mut snapshot = Vec::new();
    DurableSnapshot {
        generation: 1,
        seq: 0,
        elements: 0,
        admitted: 0,
        outputs: 0,
        chunks: 0,
        durability: Default::default(),
        sampler_blob,
    }
    .encode(&mut snapshot);
    let expect = |response: Response, next_seq: u64| match response {
        Response::ReplState { generation: 1, next_seq: got } if got == next_seq => Ok(()),
        other => Err(format!("replica answered {other:?}, expected position {next_seq}")),
    };
    expect(applier.apply(stream, 1, 0, Some(&snapshot), &[]), 0)?;
    let mut record = Vec::new();
    for (seq, served) in order.iter().take(DURABLE_REPLAY_OPS).enumerate() {
        let ids = batch_ids(&pools[served.conn], served.len, served.fed.k);
        record.clear();
        encode_record(&mut record, WalOpRef::Feed(ids));
        let seq = seq as u64;
        let response =
            tracer.time(Layer::MeshApply, request_id(served.conn, served.fed.k), ids.len(), || {
                applier.apply(stream, 1, seq, None, &record)
            });
        expect(response, seq + 1)?;
    }
    Ok(())
}

/// Times the read path on the replayed final state: `floor_estimate` and
/// `snapshot` in the 6 : 1 proportion of `mixed_rw`'s reads (its `Stats`
/// reads never reach the sampler).
pub fn time_reads(sampler: &ServiceSampler, seed: u64, tracer: &mut Tracer) {
    let mut mix = SplitMix::new(seed);
    let mut blob = Vec::new();
    for call in 0..READ_CALLS as u64 {
        let req = request_id(usize::from(u16::MAX), call);
        if mix.unit() < 6.0 / 7.0 {
            tracer.time(Layer::SamplerRead, req, 0, || {
                std::hint::black_box(sampler.floor_estimate())
            });
        } else {
            tracer.time(Layer::SamplerRead, req, 0, || sampler.snapshot(&mut blob));
        }
    }
}
