//! Property tests hardening the WAL decode path: whatever a crash (or an
//! adversary with a disk) leaves behind — truncated tails, bit flips,
//! outright garbage — `parse_wal`/`decode_record`/`DurableSnapshot::decode`
//! must stay total: detect via CRC, truncate cleanly, never panic, never
//! allocate from an unvalidated length claim.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uns_core::NodeId;
use uns_service::protocol::Request;
use uns_service::wal::{
    decode_record, encode_record, encode_wal_header, parse_wal, DurabilityStats, DurableSnapshot,
    WalHeader, WalOp, WalOpRef, WAL_HEADER_LEN,
};

/// Builds a syntactically perfect log: header + `ops` records.
fn build_log(generation: u64, base_seq: u64, ops: &[WalOp]) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_wal_header(&mut bytes, generation, base_seq);
    for op in ops {
        let op_ref = match op {
            WalOp::Ingest(ids) => WalOpRef::Ingest(ids),
            WalOp::Feed(ids) => WalOpRef::Feed(ids),
            WalOp::Sample => WalOpRef::Sample,
        };
        encode_record(&mut bytes, op_ref);
    }
    bytes
}

/// Deterministic op list derived from a seed.
fn ops_from_seed(seed: u64, count: usize) -> Vec<WalOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let ids: Vec<NodeId> =
                (0..rng.gen_range(0..20usize)).map(|_| NodeId::new(rng.gen::<u64>())).collect();
            match rng.gen_range(0..3u8) {
                0 => WalOp::Ingest(ids),
                1 => WalOp::Feed(ids),
                _ => WalOp::Sample,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A clean log round-trips exactly.
    #[test]
    fn intact_logs_parse_completely(
        seed in any::<u64>(),
        count in 0usize..12,
        generation in any::<u64>(),
        base in any::<u64>(),
    ) {
        let ops = ops_from_seed(seed, count);
        let bytes = build_log(generation, base, &ops);
        let parsed = parse_wal(&bytes);
        prop_assert_eq!(parsed.header, Some(WalHeader { generation, base_seq: base }));
        prop_assert_eq!(&parsed.records, &ops);
        prop_assert_eq!(parsed.valid_len, bytes.len() as u64);
        // Record end offsets are strictly increasing, start past the
        // header, and the last one is the valid end of the log.
        prop_assert_eq!(parsed.record_ends.len(), parsed.records.len());
        let mut prev = WAL_HEADER_LEN as u64;
        for &end in &parsed.record_ends {
            prop_assert!(end > prev);
            prev = end;
        }
        prop_assert_eq!(parsed.record_ends.last().copied().unwrap_or(WAL_HEADER_LEN as u64), parsed.valid_len);
    }

    /// Truncation anywhere yields the longest record-aligned valid prefix
    /// — the surviving records are exactly the originals, in order.
    #[test]
    fn truncated_tails_are_cut_at_a_record_boundary(
        seed in any::<u64>(),
        count in 1usize..12,
        cut_mille in 0u32..1000,
    ) {
        let ops = ops_from_seed(seed, count);
        let bytes = build_log(2, 7, &ops);
        let cut = bytes.len() * cut_mille as usize / 1000;
        let parsed = parse_wal(&bytes[..cut]);
        prop_assert!(parsed.valid_len <= cut as u64);
        if cut < WAL_HEADER_LEN {
            prop_assert_eq!(parsed.header, None);
            prop_assert!(parsed.records.is_empty());
        } else {
            prop_assert_eq!(parsed.header, Some(WalHeader { generation: 2, base_seq: 7 }));
            // Valid prefix: each surviving record equals its original.
            prop_assert!(parsed.records.len() <= ops.len());
            for (got, want) in parsed.records.iter().zip(&ops) {
                prop_assert_eq!(got, want);
            }
            // Re-parsing the valid prefix is a fixed point.
            let again = parse_wal(&bytes[..parsed.valid_len as usize]);
            prop_assert_eq!(again.valid_len, parsed.valid_len);
            prop_assert_eq!(again.records.len(), parsed.records.len());
        }
    }

    /// A zero tail — what a preallocated log file holds after its last
    /// record, seen by a second handle on a live log or in a crash image —
    /// is a torn tail. Any number of zeros after an intact log, or after a
    /// torn prefix of its last record, changes neither the records parsed
    /// nor `valid_len`. The torn prefix misses at least one nonzero byte of
    /// the record: a prefix whose missing bytes are all zeros is the whole
    /// record, on disk as written.
    #[test]
    fn zero_tails_parse_like_the_log_without_them(
        seed in any::<u64>(),
        count in 1usize..12,
        torn in any::<bool>(),
        cut_mille in 0u32..1000,
        zeros in 0usize..(2 * 65_536),
    ) {
        let ops = ops_from_seed(seed, count);
        let intact = build_log(3, 11, &ops);
        let mut bytes = intact.clone();
        let mut want = ops.clone();
        if torn {
            let without_last = build_log(3, 11, &ops[..count - 1]);
            let last = &intact[without_last.len()..];
            let last_nonzero = last.iter().rposition(|&b| b != 0).expect("records are nonzero");
            let cut = last_nonzero * cut_mille as usize / 1000;
            bytes = without_last;
            bytes.extend_from_slice(&last[..cut]);
            want.pop();
        }
        let parsed = parse_wal(&bytes);
        prop_assert_eq!(&parsed.records, &want);
        bytes.resize(bytes.len() + zeros, 0);
        let padded = parse_wal(&bytes);
        prop_assert_eq!(padded.header, Some(WalHeader { generation: 3, base_seq: 11 }));
        prop_assert_eq!(&padded.records, &want);
        prop_assert_eq!(&padded.record_ends, &parsed.record_ends);
        prop_assert_eq!(padded.valid_len, parsed.valid_len);
    }

    /// A single bit flip is CRC-detected: parsing never panics, and every
    /// record it does return is one of the originals, uncorrupted.
    #[test]
    fn bit_flips_never_smuggle_a_corrupt_record_through(
        seed in any::<u64>(),
        count in 1usize..10,
        flip_mille in 0u32..1000,
        flip_bit in 0u32..8,
    ) {
        let ops = ops_from_seed(seed, count);
        let mut bytes = build_log(1, 3, &ops);
        let pos = (bytes.len() - 1) * flip_mille as usize / 1000;
        bytes[pos] ^= 1 << flip_bit;
        let parsed = parse_wal(&bytes);
        prop_assert!(parsed.valid_len <= bytes.len() as u64);
        // The flip corrupts at most one record's frame; any record the
        // parser accepts must be byte-identical to an original at its
        // position (a flipped length prefix may desynchronise framing, in
        // which case CRC fails and the parse stops — never returning junk).
        for (got, want) in parsed.records.iter().zip(&ops) {
            prop_assert_eq!(got, want, "corrupt record survived its CRC");
        }
    }

    /// Arbitrary garbage: total function, no panic, bounded output.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let parsed = parse_wal(&bytes);
        prop_assert!(parsed.valid_len <= bytes.len() as u64);
        // An absurd claimed batch length must not cause a huge allocation:
        // a record claiming more ids than its CRC-checked body holds is
        // rejected, so every accepted batch is bounded by the input size.
        for op in &parsed.records {
            if let WalOp::Ingest(ids) | WalOp::Feed(ids) = op {
                prop_assert!(ids.len() * 8 <= bytes.len());
            }
        }
    }

    /// Any CRC-valid record sequence round-trips through the replication
    /// opcode byte-identically: the log bytes a replica decodes from a
    /// `Replicate` frame are exactly the log bytes the primary shipped —
    /// which is what makes replica logs bit-equal *by construction*.
    #[test]
    fn replication_opcode_round_trips_record_bytes(
        seed in any::<u64>(),
        count in 0usize..12,
        generation in any::<u64>(),
        first_seq in any::<u64>(),
        with_snapshot in any::<bool>(),
    ) {
        let ops = ops_from_seed(seed, count);
        let log = build_log(generation, 0, &ops);
        let records = &log[WAL_HEADER_LEN..];
        let blob = [0xA5u8; 9];
        let snapshot = if with_snapshot { Some(&blob[..]) } else { None };
        let mut frame = Vec::new();
        Request::Replicate { name: "s", generation, first_seq, snapshot, records }
            .encode(&mut frame);
        let decoded = Request::decode(&frame);
        let Ok(Request::Replicate { name, generation: g, first_seq: f, snapshot: s, records: r }) =
            decoded
        else {
            return Err("replication frame did not decode".to_string());
        };
        prop_assert_eq!(name, "s");
        prop_assert_eq!(g, generation);
        prop_assert_eq!(f, first_seq);
        prop_assert_eq!(s, snapshot);
        prop_assert_eq!(r, records, "shipped record bytes changed in flight");
        // The shipped bytes still decode to the original ops, record by
        // record, exactly as the replica's apply loop consumes them.
        let mut offset = 0usize;
        let mut got = Vec::new();
        while offset < r.len() {
            let (op, consumed) = decode_record(r, offset)
                .ok_or_else(|| "CRC-valid record failed to decode".to_string())?;
            got.push(op);
            offset += consumed;
        }
        prop_assert_eq!(&got, &ops);
    }

    /// A shipment torn mid-record applies only whole records, and the
    /// tear point the replica stops at is exactly the record boundary
    /// `parse_wal` reports — so resuming the ship from that boundary
    /// rebuilds the primary's log byte for byte, no record applied twice.
    #[test]
    fn torn_shipment_resumes_at_a_record_boundary(
        seed in any::<u64>(),
        count in 1usize..12,
        cut_mille in 0u32..1000,
    ) {
        let ops = ops_from_seed(seed, count);
        let log = build_log(3, 0, &ops);
        let records = &log[WAL_HEADER_LEN..];
        let cut = records.len() * cut_mille as usize / 1000;
        // Replica-side apply loop over the torn chunk: whole records only.
        let torn = &records[..cut];
        let mut offset = 0usize;
        let mut applied = 0usize;
        while let Some((op, consumed)) = decode_record(torn, offset) {
            prop_assert_eq!(&op, &ops[applied], "torn chunk reordered a record");
            offset += consumed;
            applied += 1;
        }
        prop_assert!(applied <= ops.len());
        // The replica's stop offset is a parse-level record boundary.
        let torn_parse = parse_wal(&log[..WAL_HEADER_LEN + cut]);
        prop_assert_eq!(torn_parse.valid_len, (WAL_HEADER_LEN + offset) as u64);
        prop_assert_eq!(torn_parse.records.len(), applied);
        // Resume from the boundary: replica log becomes the primary's.
        let mut replica_log = log[..WAL_HEADER_LEN + offset].to_vec();
        replica_log.extend_from_slice(&records[offset..]);
        prop_assert_eq!(&replica_log, &log, "resumed ship diverged from the primary log");
        prop_assert_eq!(&parse_wal(&replica_log).records, &ops);
    }

    /// Durable snapshots: decode(encode(x)) round-trips; truncations and
    /// flips are detected, never panic.
    #[test]
    fn durable_snapshot_decode_is_total(
        seq in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..128),
        cut_mille in 0u32..1000,
        flip_mille in 0u32..1000,
        flip_bit in 0u32..8,
    ) {
        let snap = DurableSnapshot {
            generation: seq ^ 9,
            seq,
            elements: seq ^ 1,
            admitted: seq ^ 2,
            outputs: seq ^ 3,
            chunks: seq ^ 4,
            durability: DurabilityStats {
                wal_bytes: 5,
                wal_records: 6,
                snapshot_compactions: 7,
                recoveries: 8,
            },
            sampler_blob: blob,
        };
        let mut bytes = Vec::new();
        snap.encode(&mut bytes);
        prop_assert_eq!(&DurableSnapshot::decode(&bytes).unwrap(), &snap);
        // Truncated: clean error.
        let cut = bytes.len() * cut_mille as usize / 1000;
        if cut < bytes.len() {
            prop_assert!(DurableSnapshot::decode(&bytes[..cut]).is_err());
        }
        // One flipped bit: the trailing CRC catches it.
        let pos = (bytes.len() - 1) * flip_mille as usize / 1000;
        bytes[pos] ^= 1 << flip_bit;
        prop_assert!(DurableSnapshot::decode(&bytes).is_err());
    }
}

/// Hand-built hostile records: a length prefix claiming a giant batch must
/// be rejected without allocating for it (validate-before-allocate).
#[test]
fn giant_claimed_batch_is_rejected_without_allocation() {
    use uns_service::wal::{crc32, decode_record};
    // Body: opcode Ingest + count u32::MAX, but only 4 payload bytes.
    let mut body = vec![1u8];
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    body.extend_from_slice(&[0u8; 4]);
    let mut record = Vec::new();
    record.extend_from_slice(&(body.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&body).to_le_bytes());
    record.extend_from_slice(&body);
    // CRC is valid by construction — the count/body mismatch must still
    // reject the record before any 32 GiB allocation happens.
    assert_eq!(decode_record(&record, 0), None);
}

/// A record carved out mid-air (torn write) leaves earlier records intact
/// and the tail restartable: parse, truncate, append, parse again.
#[test]
fn torn_tail_then_clean_append_recovers() {
    let ops = ops_from_seed(11, 5);
    let mut bytes = build_log(1, 0, &ops);
    let full_len = bytes.len();
    bytes.truncate(full_len - 3); // torn final record
    let parsed = parse_wal(&bytes);
    assert!(parsed.records.len() < ops.len());
    // Truncate to the valid prefix (what `WalWriter::resume` does), then
    // append a fresh record.
    bytes.truncate(parsed.valid_len as usize);
    encode_record(&mut bytes, WalOpRef::Sample);
    let healed = parse_wal(&bytes);
    assert_eq!(healed.records.len(), parsed.records.len() + 1);
    assert_eq!(healed.records.last(), Some(&WalOp::Sample));
    assert_eq!(healed.valid_len, bytes.len() as u64);
}
