//! Blocking request/reply client for the sampling service.

use crate::error::ServiceError;
use crate::protocol::{Request, Response, StreamConfig, StreamStats};
use crate::transport::Transport;
use crate::wire::{read_frame, write_frame};
use uns_core::NodeId;

/// Acknowledgement of an input-only batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestAck {
    /// Stream length after this batch — the batch covered stream positions
    /// `position - len .. position`, which reconstructs the exact
    /// interleaving across concurrent connections.
    pub position: u64,
    /// Elements of this batch that entered the memory `Γ`.
    pub admitted: u64,
}

/// Result of a feed batch: the acknowledgement plus one output sample per
/// input element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeedAck {
    /// Stream length after this batch (see [`IngestAck::position`]).
    pub position: u64,
    /// Elements of this batch that entered the memory `Γ`.
    pub admitted: u64,
    /// Output samples in batch order.
    pub outputs: Vec<NodeId>,
}

/// A blocking client: one in-flight request at a time over one transport.
///
/// [`ServiceError::Busy`] replies surface as errors so callers own the
/// retry policy ([`crate::resilient::ResilientClient`] backs off and
/// retries).
pub struct ServiceClient<T: Transport> {
    reader: T,
    writer: Box<dyn Transport>,
    send_buf: Vec<u8>,
    recv_buf: Vec<u8>,
}

impl<T: Transport> ServiceClient<T> {
    /// Wraps a connected transport.
    ///
    /// # Errors
    ///
    /// Propagates the transport's handle-duplication failure.
    pub fn new(transport: T) -> Result<Self, ServiceError> {
        let writer = transport.try_clone_transport()?;
        Ok(Self { reader: transport, writer, send_buf: Vec::new(), recv_buf: Vec::new() })
    }

    /// Bounds how long each reply wait may block (the transport read
    /// timeout); `None` restores unbounded blocking. After a timed-out
    /// read the connection must be discarded — a late reply would
    /// desynchronise framing (see [`crate::resilient`]).
    ///
    /// # Errors
    ///
    /// Propagates the transport's failure to set the timeout.
    pub fn set_op_timeout(
        &mut self,
        timeout: Option<std::time::Duration>,
    ) -> Result<(), ServiceError> {
        self.reader.set_read_timeout(timeout)?;
        Ok(())
    }

    fn round_trip(&mut self) -> Result<Response, ServiceError> {
        write_frame(&mut self.writer, &self.send_buf)?;
        receive(&mut self.reader, &mut self.recv_buf)
    }

    fn expect_ok(&mut self) -> Result<(), ServiceError> {
        match self.round_trip()? {
            Response::Ok => Ok(()),
            other => Err(ServiceError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Creates a named stream.
    ///
    /// # Errors
    ///
    /// [`ServiceError::StreamExists`], [`ServiceError::InvalidConfig`],
    /// [`ServiceError::Busy`], or transport/protocol failures.
    pub fn create_stream(&mut self, name: &str, config: &StreamConfig) -> Result<(), ServiceError> {
        Request::CreateStream { name, config: *config }.encode(&mut self.send_buf);
        self.expect_ok()
    }

    /// Input-only batch: evolves the stream's sampler, no output samples.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownStream`], [`ServiceError::Busy`], or
    /// transport/protocol failures.
    pub fn ingest(&mut self, name: &str, ids: &[NodeId]) -> Result<IngestAck, ServiceError> {
        Request::encode_batch(&mut self.send_buf, false, name, ids);
        match self.round_trip()? {
            Response::Ingested { position, admitted } => Ok(IngestAck { position, admitted }),
            other => Err(ServiceError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Feeds a batch; returns one output sample per element.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::ingest`].
    pub fn feed_batch(&mut self, name: &str, ids: &[NodeId]) -> Result<FeedAck, ServiceError> {
        Request::encode_batch(&mut self.send_buf, true, name, ids);
        match self.round_trip()? {
            Response::Fed { position, admitted, outputs } => {
                Ok(FeedAck { position, admitted, outputs })
            }
            other => Err(ServiceError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Draws one output sample without consuming input.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::ingest`].
    pub fn sample(&mut self, name: &str) -> Result<Option<NodeId>, ServiceError> {
        Request::Sample { name }.encode(&mut self.send_buf);
        match self.round_trip()? {
            Response::Sampled(sample) => Ok(sample),
            other => Err(ServiceError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Reads the stream estimator's sampling floor `min_σ`.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::ingest`].
    pub fn floor_estimate(&mut self, name: &str) -> Result<u64, ServiceError> {
        Request::FloorEstimate { name }.encode(&mut self.send_buf);
        match self.round_trip()? {
            Response::Value(value) => Ok(value),
            other => Err(ServiceError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Serializes the stream's complete sampler state.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::ingest`].
    pub fn snapshot(&mut self, name: &str) -> Result<Vec<u8>, ServiceError> {
        Request::Snapshot { name }.encode(&mut self.send_buf);
        match self.round_trip()? {
            Response::Snapshot(blob) => Ok(blob),
            other => Err(ServiceError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Creates-or-replaces a stream from a snapshot blob; the stream
    /// resumes bit-equal to the snapshotted sampler.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Snapshot`] on a rejected blob; otherwise as
    /// [`ServiceClient::ingest`].
    pub fn restore(&mut self, name: &str, snapshot: &[u8]) -> Result<(), ServiceError> {
        Request::Restore { name, snapshot }.encode(&mut self.send_buf);
        self.expect_ok()
    }

    /// Scrapes the server's full Prometheus text exposition over the wire
    /// protocol (the same text `GET /metrics` serves). Server-wide, not
    /// per-stream; answered by the connection itself without touching any
    /// worker queue, so it can never see `Busy`.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        Request::Metrics.encode(&mut self.send_buf);
        match self.round_trip()? {
            Response::Metrics(text) => Ok(text),
            other => Err(ServiceError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Ships a replication payload to a replica node: an optional durable
    /// snapshot plus zero or more CRC-framed WAL records starting at
    /// `first_seq` under `generation`. An empty shipment (no snapshot, no
    /// records) is a **probe**: the replica just answers its current
    /// position. Returns the replica's `(generation, next_seq)` after the
    /// payload is durably applied (log-before-ack).
    ///
    /// This is the primary→replica leg of the mesh's replication
    /// protocol; ordinary clients never call it. A caller that keeps
    /// several shipments in flight splits the client instead
    /// ([`ServiceClient::split_replication`]).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] when the peer rejects the shipment (e.g.
    /// no replica handler installed), otherwise as
    /// [`ServiceClient::ingest`].
    pub fn replicate(
        &mut self,
        name: &str,
        generation: u64,
        first_seq: u64,
        snapshot: Option<&[u8]>,
        records: &[u8],
    ) -> Result<(u64, u64), ServiceError> {
        Request::Replicate { name, generation, first_seq, snapshot, records }
            .encode(&mut self.send_buf);
        repl_state(self.round_trip()?)
    }

    /// Splits the client into a sender and a receiver of replication
    /// shipments, usable from two threads: one sends shipments without
    /// waiting, the other reads their replies in send order.
    pub fn split_replication(self) -> (ReplicationSender, ReplicationReceiver<T>) {
        (
            ReplicationSender { writer: self.writer, buf: self.send_buf },
            ReplicationReceiver { reader: self.reader, buf: self.recv_buf },
        )
    }

    /// Reads the stream's traffic counters.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::ingest`].
    pub fn stats(&mut self, name: &str) -> Result<StreamStats, ServiceError> {
        Request::Stats { name }.encode(&mut self.send_buf);
        match self.round_trip()? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ServiceError::Protocol(format!("unexpected response {other:?}"))),
        }
    }
}

/// Reads one reply frame and decodes it, error replies as errors.
fn receive<R: Transport>(reader: &mut R, buf: &mut Vec<u8>) -> Result<Response, ServiceError> {
    if !read_frame(reader, buf)? {
        return Err(ServiceError::Protocol("server hung up mid-request".into()));
    }
    Response::decode(buf)?.into_result()
}

fn repl_state(reply: Response) -> Result<(u64, u64), ServiceError> {
    match reply {
        Response::ReplState { generation, next_seq } => Ok((generation, next_seq)),
        other => Err(ServiceError::Protocol(format!("unexpected response {other:?}"))),
    }
}

/// The write half of a [`ServiceClient::split_replication`]: sends
/// [`ServiceClient::replicate`] shipments without waiting for replies.
pub struct ReplicationSender {
    writer: Box<dyn Transport>,
    buf: Vec<u8>,
}

impl ReplicationSender {
    /// Sends one shipment; its reply arrives on the
    /// [`ReplicationReceiver`], after the replies of every shipment sent
    /// before it.
    ///
    /// # Errors
    ///
    /// Transport failures and the frame size cap.
    pub fn send(
        &mut self,
        name: &str,
        generation: u64,
        first_seq: u64,
        snapshot: Option<&[u8]>,
        records: &[u8],
    ) -> Result<(), ServiceError> {
        Request::Replicate { name, generation, first_seq, snapshot, records }.encode(&mut self.buf);
        write_frame(&mut self.writer, &self.buf)
    }
}

/// The read half of a [`ServiceClient::split_replication`]: reads
/// shipment replies in send order.
pub struct ReplicationReceiver<T: Transport> {
    reader: T,
    buf: Vec<u8>,
}

impl<T: Transport> ReplicationReceiver<T> {
    /// Reads the next shipment reply: the replica's `(generation,
    /// next_seq)` once that shipment is durable. The split client's op
    /// timeout bounds the wait.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::replicate`].
    pub fn recv(&mut self) -> Result<(u64, u64), ServiceError> {
        repl_state(receive(&mut self.reader, &mut self.buf)?)
    }
}
