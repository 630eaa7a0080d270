//! Crash-recovery exactness: a durable server killed at a seeded fault
//! point and restarted from snapshot + log replay must be **bit-equal** to
//! a run that never crashed — memory `Γ`, estimator cells, RNG state (all
//! captured by the canonical sampler snapshot), output samples, and reply
//! positions — for all three estimator kinds, with crash points landing
//! mid-FeedBatch-run. With fsync-per-op, zero acknowledged ops are lost.
//!
//! The seeded crash points run on `MemBackend`, which places them exactly.
//! Two more cases run on real files (`DirBackend`): a crash image copied
//! from a live server, zero-filled preallocated tail included, with and
//! without a torn record inside that tail.
//!
//! CI runs this suite in release mode (`fault-matrix-release`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use uns_core::NodeId;
use uns_service::protocol::{EstimatorKind, HashFamilyKind, StreamConfig};
use uns_service::server::{DurabilityConfig, Server, ServerConfig};
use uns_service::storage::{DirBackend, MemBackend, StorageBackend};
use uns_service::wal::{encode_record, parse_wal, FsyncPolicy, WalOpRef, WalWriter};
use uns_service::{ServiceClient, ServiceSampler};

/// One logical operation of the driven workload.
#[derive(Clone, Debug)]
enum Op {
    Ingest(Vec<NodeId>),
    Feed(Vec<NodeId>),
    Sample,
}

/// Deterministic op script: runs of consecutive FeedBatches (so seeded
/// crash points land mid-run), interleaved with ingests and samples.
fn script(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        let batch = |rng: &mut SmallRng| -> Vec<NodeId> {
            let len = rng.gen_range(1..60usize);
            (0..len).map(|_| NodeId::new(rng.gen_range(0..500u64))).collect()
        };
        match rng.gen_range(0..10u8) {
            0..=1 => out.push(Op::Ingest(batch(&mut rng))),
            2 => out.push(Op::Sample),
            _ => {
                // A run of feeds: crash points inside it are "mid-FeedBatch".
                for _ in 0..rng.gen_range(2..5usize) {
                    out.push(Op::Feed(batch(&mut rng)));
                }
            }
        }
    }
    out.truncate(ops);
    out
}

/// Applies the script to a library-path sampler — the uninterrupted
/// reference. Returns (outputs in op order, final canonical snapshot,
/// total elements).
fn reference_run(config: &StreamConfig, ops: &[Op]) -> (Vec<Vec<NodeId>>, Vec<u8>, u64) {
    let mut sampler = ServiceSampler::create(config).unwrap();
    let mut outputs = Vec::new();
    let mut elements = 0u64;
    for op in ops {
        match op {
            Op::Ingest(ids) => {
                sampler.ingest_batch(ids);
                elements += ids.len() as u64;
                outputs.push(Vec::new());
            }
            Op::Feed(ids) => {
                let mut out = Vec::new();
                sampler.feed_batch(ids, &mut out);
                elements += ids.len() as u64;
                outputs.push(out);
            }
            Op::Sample => {
                outputs.push(sampler.sample().into_iter().collect());
            }
        }
    }
    let mut blob = Vec::new();
    sampler.snapshot(&mut blob);
    (outputs, blob, elements)
}

/// Drives the script against a durable server, crashing after `crash_at`
/// ops and restarting from the backend; asserts bit-equality throughout.
fn crash_and_verify(kind: EstimatorKind, seed: u64, crash_at: usize) {
    let ops = script(seed, 24);
    let crash_at = crash_at.min(ops.len());
    let stream_config = StreamConfig {
        kind,
        capacity: 10,
        width: 12,
        depth: 4,
        seed: seed ^ 0xABCD,
        family: HashFamilyKind::Mersenne,
    };
    let (ref_outputs, ref_blob, ref_elements) = reference_run(&stream_config, &ops);

    let backend = MemBackend::new();
    let mut durability = DurabilityConfig::new(Arc::new(backend.clone()));
    durability.fsync = FsyncPolicy::PerOp; // every acked op is durable
    let server = Server::start_durable(ServerConfig::default(), durability.clone()).unwrap();
    let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
    client.create_stream("s", &stream_config).unwrap();

    let mut got_outputs: Vec<Vec<NodeId>> = Vec::new();
    let mut position = 0u64;
    let apply = |client: &mut ServiceClient<_>, op: &Op, position: &mut u64| -> Vec<NodeId> {
        match op {
            Op::Ingest(ids) => {
                let ack = client.ingest("s", ids).unwrap();
                *position += ids.len() as u64;
                assert_eq!(ack.position, *position, "reply position drifted");
                Vec::new()
            }
            Op::Feed(ids) => {
                let ack = client.feed_batch("s", ids).unwrap();
                *position += ids.len() as u64;
                assert_eq!(ack.position, *position, "reply position drifted");
                ack.outputs
            }
            Op::Sample => client.sample("s").unwrap().into_iter().collect(),
        }
    };
    for op in &ops[..crash_at] {
        got_outputs.push(apply(&mut client, op, &mut position));
    }

    // Crash: stop the server, then discard everything the backend had not
    // fsynced (with PerOp that is nothing acknowledged).
    drop(client);
    server.stop();
    backend.crash();

    // Restart from snapshot + log replay; finish the script.
    let server = Server::start_durable(ServerConfig::default(), durability).unwrap();
    let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
    let stats = client.stats("s").unwrap();
    assert_eq!(
        stats.pipeline.elements, position,
        "{kind:?}/seed {seed}/crash {crash_at}: acked elements lost in the crash"
    );
    assert_eq!(stats.durability.recoveries, 1);
    for op in &ops[crash_at..] {
        got_outputs.push(apply(&mut client, op, &mut position));
    }

    // Bit-equal to the uninterrupted run: outputs op by op…
    assert_eq!(got_outputs.len(), ref_outputs.len());
    for (index, (got, want)) in got_outputs.iter().zip(&ref_outputs).enumerate() {
        assert_eq!(
            got, want,
            "{kind:?}/seed {seed}/crash {crash_at}: outputs diverged at op {index}"
        );
    }
    // …total positions…
    assert_eq!(position, ref_elements);
    // …and the complete final state (memory Γ, estimator, RNG) via the
    // canonical snapshot encoding.
    let blob = client.snapshot("s").unwrap();
    assert_eq!(
        blob, ref_blob,
        "{kind:?}/seed {seed}/crash {crash_at}: final sampler state not bit-equal"
    );
    server.stop();
}

#[test]
fn count_min_recovers_bit_equal_across_seeded_crash_points() {
    for (seed, crash_at) in [(1u64, 5), (2, 11), (3, 17)] {
        crash_and_verify(EstimatorKind::CountMin, seed, crash_at);
    }
}

#[test]
fn count_sketch_recovers_bit_equal_across_seeded_crash_points() {
    for (seed, crash_at) in [(4u64, 3), (5, 12), (6, 20)] {
        crash_and_verify(EstimatorKind::CountSketch, seed, crash_at);
    }
}

#[test]
fn exact_estimator_recovers_bit_equal_across_seeded_crash_points() {
    for (seed, crash_at) in [(7u64, 1), (8, 9), (9, 23)] {
        crash_and_verify(EstimatorKind::Exact, seed, crash_at);
    }
}

/// Crash immediately after creation (empty log) and crash after the final
/// op (nothing left to replay) are the boundary cases.
#[test]
fn boundary_crash_points_recover_bit_equal() {
    crash_and_verify(EstimatorKind::CountMin, 10, 0);
    crash_and_verify(EstimatorKind::CountMin, 11, usize::MAX);
}

/// Double crash: recover, work, crash again, recover again — recoveries
/// accumulate and exactness holds through repeated failures.
#[test]
fn repeated_crashes_stay_exact() {
    let kind = EstimatorKind::CountMin;
    let stream_config = StreamConfig {
        kind,
        capacity: 10,
        width: 12,
        depth: 4,
        seed: 99,
        family: HashFamilyKind::Mersenne,
    };
    let ops = script(42, 30);
    let (ref_outputs, ref_blob, _) = reference_run(&stream_config, &ops);

    let backend = MemBackend::new();
    let mut durability = DurabilityConfig::new(Arc::new(backend.clone()));
    durability.fsync = FsyncPolicy::PerOp;
    let mut got_outputs: Vec<Vec<NodeId>> = Vec::new();
    let mut served = 0usize;
    let mut recoveries = 0u64;
    for stop_at in [10usize, 20, ops.len()] {
        let server = Server::start_durable(ServerConfig::default(), durability.clone()).unwrap();
        let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
        if served == 0 {
            client.create_stream("s", &stream_config).unwrap();
        } else {
            recoveries += 1;
            assert_eq!(client.stats("s").unwrap().durability.recoveries, recoveries);
        }
        for op in &ops[served..stop_at] {
            got_outputs.push(match op {
                Op::Ingest(ids) => {
                    client.ingest("s", ids).unwrap();
                    Vec::new()
                }
                Op::Feed(ids) => client.feed_batch("s", ids).unwrap().outputs,
                Op::Sample => client.sample("s").unwrap().into_iter().collect(),
            });
        }
        served = stop_at;
        let last = served == ops.len();
        if last {
            let blob = client.snapshot("s").unwrap();
            assert_eq!(blob, ref_blob, "state diverged after two crash/recover cycles");
        }
        drop(client);
        server.stop();
        backend.crash();
    }
    assert_eq!(got_outputs, ref_outputs);
}

/// The `FsyncPolicy::Timer` loss bound must hold on an **idle** stream.
/// The append path only consults the clock while ops arrive, so a record
/// written just before traffic stops relies on the worker's idle tick to
/// reach the disk — without it, this test's crash would eat an op that
/// had been sitting unsynced for many times the promised interval.
#[test]
fn timer_policy_syncs_idle_streams_before_a_crash() {
    let stream_config = StreamConfig {
        kind: EstimatorKind::CountMin,
        capacity: 10,
        width: 12,
        depth: 4,
        seed: 7,
        family: HashFamilyKind::Mersenne,
    };
    let backend = MemBackend::new();
    let mut durability = DurabilityConfig::new(Arc::new(backend.clone()));
    durability.fsync = FsyncPolicy::Timer(std::time::Duration::from_millis(40));
    let server = Server::start_durable(ServerConfig::default(), durability.clone()).unwrap();
    let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
    client.create_stream("s", &stream_config).unwrap();

    // One batch right after creation: the interval has not elapsed, so
    // the append itself does not sync. Then the stream goes idle.
    let ids: Vec<NodeId> = (0..16u64).map(NodeId::new).collect();
    client.ingest("s", &ids).unwrap();

    // Idle well past the interval (worker ticks every 25ms), then crash
    // the backend while the server is still running — the shutdown-path
    // sync must not be what saves the record.
    std::thread::sleep(std::time::Duration::from_millis(400));
    backend.crash();
    drop(client);
    server.stop();

    let server = Server::start_durable(ServerConfig::default(), durability).unwrap();
    let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
    let stats = client.stats("s").unwrap();
    assert_eq!(stats.pipeline.elements, ids.len() as u64, "idle-stream op lost by Timer policy");
    server.stop();
}

/// Applies one script op over the wire; returns its outputs and records
/// the acked position.
fn apply_op<T: uns_service::Transport>(
    client: &mut ServiceClient<T>,
    op: &Op,
    position: &mut u64,
) -> Vec<NodeId> {
    let (acked, outputs) = match op {
        Op::Ingest(ids) => (client.ingest("s", ids).unwrap().position, Vec::new()),
        Op::Feed(ids) => {
            let ack = client.feed_batch("s", ids).unwrap();
            (ack.position, ack.outputs)
        }
        Op::Sample => return client.sample("s").unwrap().into_iter().collect(),
    };
    *position = acked;
    outputs
}

/// A fresh directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uns-crash-image-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copies every file of a live durable directory into `to`: what a power
/// cut would leave at this instant, given that the server syncs every op
/// and none is in flight. The log is copied with its preallocated zero
/// tail.
fn copy_crash_image(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

/// The one log file in `dir`.
fn wal_file(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.extension().is_some_and(|ext| ext == "wal"))
        .expect("a log file")
}

/// A durable server on real files, fsync per op, copied mid-feed as a
/// crash image; with `tear`, the image also holds a torn record written
/// inside the preallocated region, as a crash mid-append leaves it.
/// Recovery from the image must truncate the log to its valid prefix,
/// append the next record right after the last one, and rebuild a stream
/// bit-equal to a reference run of the acknowledged ops.
fn real_file_crash_image_recovers(tear: bool) {
    let ops = script(77, 24);
    let crash_at = 13;
    let stream_config = StreamConfig {
        kind: EstimatorKind::CountMin,
        capacity: 10,
        width: 12,
        depth: 4,
        seed: 0x5EED,
        family: HashFamilyKind::Mersenne,
    };
    let tag = if tear { "torn" } else { "clean" };
    let (live, image, resumed) =
        (temp_dir(&format!("{tag}-live")), temp_dir(tag), temp_dir(&format!("{tag}-resume")));
    let durable = |dir: &Path| {
        let mut durability = DurabilityConfig::new(Arc::new(DirBackend::create(dir).unwrap()));
        durability.fsync = FsyncPolicy::PerOp;
        Server::start_durable(ServerConfig::default(), durability).unwrap()
    };

    let server = durable(&live);
    let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
    client.create_stream("s", &stream_config).unwrap();
    let mut got_outputs = Vec::new();
    let mut position = 0u64;
    for op in &ops[..crash_at] {
        got_outputs.push(apply_op(&mut client, op, &mut position));
    }
    copy_crash_image(&live, &image);
    copy_crash_image(&live, &resumed);
    drop(client);
    server.stop();

    let bytes = std::fs::read(wal_file(&image)).unwrap();
    let parsed = parse_wal(&bytes);
    let valid_len = parsed.valid_len as usize;
    assert_eq!(parsed.records.len(), crash_at, "every acked op is in the image");
    assert!(bytes.len() > valid_len, "the live log carries a preallocated tail");
    assert!(bytes[valid_len..].iter().all(|&b| b == 0), "the tail is zeros");
    if tear {
        let ids: Vec<NodeId> = (1..=40u64).map(NodeId::new).collect();
        let mut record = Vec::new();
        encode_record(&mut record, WalOpRef::Feed(&ids));
        let torn = &record[..record.len() / 2];
        assert!(valid_len + torn.len() < bytes.len(), "the tear lands inside the tail");
        for dir in [&image, &resumed] {
            let file = std::fs::OpenOptions::new().write(true).open(wal_file(dir)).unwrap();
            file.write_all_at(torn, valid_len as u64).unwrap();
            assert_eq!(file.metadata().unwrap().len(), bytes.len() as u64);
        }
    }

    // The log layer, as recovery drives it: resume truncates the file to
    // the valid prefix, and the next append lands right after the last
    // record.
    let backend = DirBackend::create(&resumed).unwrap();
    let mut store = backend.open_wal("s").unwrap();
    let reparsed = parse_wal(&store.read_all().unwrap());
    assert_eq!(reparsed.records, parsed.records);
    assert_eq!(reparsed.valid_len, parsed.valid_len);
    let header = reparsed.header.expect("the image's header is intact");
    let next_seq = header.base_seq + reparsed.records.len() as u64;
    let mut writer = WalWriter::resume(
        store,
        header.generation,
        reparsed.valid_len,
        next_seq,
        FsyncPolicy::PerOp,
    )
    .unwrap();
    let resumed_len = std::fs::metadata(wal_file(&resumed)).unwrap().len();
    assert_eq!(resumed_len, parsed.valid_len, "resume truncates to the valid prefix");
    writer.append_op(WalOpRef::Sample).unwrap();
    drop(writer);
    let mut want = bytes[..valid_len].to_vec();
    encode_record(&mut want, WalOpRef::Sample);
    assert_eq!(std::fs::read(wal_file(&resumed)).unwrap(), want);

    // The service, restarted from the image: bit-equal to a reference run
    // of the acked prefix, then to the uninterrupted run once the script
    // finishes.
    let server = durable(&image);
    let mut client = ServiceClient::new(server.connect_in_process()).unwrap();
    let stats = client.stats("s").unwrap();
    assert_eq!(stats.pipeline.elements, position, "{tag}: acked elements lost");
    assert_eq!(stats.durability.recoveries, 1);
    let (_, acked_blob, _) = reference_run(&stream_config, &ops[..crash_at]);
    assert_eq!(client.snapshot("s").unwrap(), acked_blob, "{tag}: recovered state not bit-equal");
    for op in &ops[crash_at..] {
        got_outputs.push(apply_op(&mut client, op, &mut position));
    }
    let (ref_outputs, ref_blob, ref_elements) = reference_run(&stream_config, &ops);
    assert_eq!(got_outputs, ref_outputs, "{tag}: outputs diverged after recovery");
    assert_eq!(position, ref_elements);
    assert_eq!(client.snapshot("s").unwrap(), ref_blob, "{tag}: final state not bit-equal");
    drop(client);
    server.stop();
    for dir in [&live, &image, &resumed] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn real_file_crash_image_with_a_zero_tail_recovers_bit_equal() {
    real_file_crash_image_recovers(false);
}

#[test]
fn real_file_crash_image_with_a_torn_record_in_the_tail_recovers_bit_equal() {
    real_file_crash_image_recovers(true);
}
