//! Spans recorded around calls into each layer, kept in preallocated
//! in-memory buffers and written out as Chrome trace-event JSON (opens in
//! Perfetto) when the run ends.
//!
//! Live spans come from the load threads (client layer). Replay spans come
//! from re-running the served order through the server-side layer
//! functions after the window, and carry the request id of the live
//! request they re-execute.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The layers a span can time; the name is the span's name in the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Request::encode_batch` / `Request::encode` (client).
    ClientEncode,
    /// `write_frame` (client).
    ClientSend,
    /// From the end of the send to the complete reply frame (client).
    ClientWait,
    /// `Response::decode` (client).
    ClientDecode,
    /// `Request::decode` of the frame the client sent (replay).
    ProtocolDecode,
    /// `Response::encode` of the reply (replay).
    ProtocolEncode,
    /// `ServiceSampler::feed_batch` (replay).
    SamplerFeed,
    /// `ServiceSampler::floor_estimate` / `snapshot` (replay).
    SamplerRead,
    /// `record_and_estimate` over a batch on a shadow sketch (replay).
    EstimatorRecord,
    /// `WalWriter::append_op` (replay).
    WalAppend,
    /// `WalWriter::sync` (replay).
    WalFsync,
    /// `ReplicaHandler::apply` of one record (replay).
    MeshApply,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::ClientEncode => "client.encode",
            Layer::ClientSend => "client.send",
            Layer::ClientWait => "client.wait",
            Layer::ClientDecode => "client.decode",
            Layer::ProtocolDecode => "protocol.decode",
            Layer::ProtocolEncode => "protocol.encode",
            Layer::SamplerFeed => "sampler.feed",
            Layer::SamplerRead => "sampler.read",
            Layer::EstimatorRecord => "estimator.record",
            Layer::WalAppend => "wal.append",
            Layer::WalFsync => "wal.fsync",
            Layer::MeshApply => "mesh.apply",
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    /// Request id shared by every span of one request, live or replayed.
    pub req: u64,
    /// Start, in nanoseconds from the run's origin.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Identifiers the call processed (0 for calls without a batch).
    pub elems: u32,
}

/// The request id of the `seq`-th request of connection `conn`.
pub fn request_id(conn: usize, seq: u64) -> u64 {
    ((conn as u64) << 40) | seq
}

/// A fixed-capacity span buffer. Recording never allocates: spans beyond
/// the capacity are counted and dropped.
pub struct Tracer {
    origin: Instant,
    /// Thread name of this buffer's spans in the trace file.
    label: String,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(origin: Instant, label: impl Into<String>, capacity: usize) -> Self {
        Self { origin, label: label.into(), spans: Vec::with_capacity(capacity), dropped: 0 }
    }

    /// An empty buffer of the same capacity and origin for another thread.
    pub fn sibling(&self, label: impl Into<String>) -> Self {
        Self::new(self.origin, label, self.spans.capacity())
    }

    /// Records the call that ran from `start` to `end`.
    pub fn record(&mut self, layer: Layer, req: u64, start: Instant, end: Instant, elems: usize) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            layer,
            req,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            elems: elems as u32,
        });
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, layer: Layer, req: u64, elems: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, req, start, Instant::now(), elems);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations of `layer`'s spans, in nanoseconds; per identifier when
/// `per_elem` (spans without identifiers are skipped then).
pub fn durations(tracers: &[Tracer], layer: Layer, per_elem: bool) -> Vec<f64> {
    tracers
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.layer == layer && (!per_elem || s.elems > 0))
        .map(|s| if per_elem { s.dur_ns as f64 / f64::from(s.elems) } else { s.dur_ns as f64 })
        .collect()
}

/// Most spans a trace file holds, so it stays small enough to open; every
/// buffer contributes the same leading share of its spans.
const FILE_SPANS: usize = 300_000;

/// Writes every buffer as one Chrome trace-event JSON file.
pub fn write_chrome_trace(path: &Path, workload: &str, tracers: &[Tracer]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let total: usize = tracers.iter().map(|t| t.spans.len()).sum();
    let share = (FILE_SPANS as f64 / total.max(1) as f64).min(1.0);
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
    write!(
        out,
        "{{\"displayTimeUnit\": \"ns\", \"otherData\": {{\"workload\": \"{workload}\", \
         \"recorded_spans\": {total}, \"dropped_spans\": {dropped}}}, \"traceEvents\": ["
    )?;
    for (tid, tracer) in tracers.iter().enumerate() {
        if tid > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "\n{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": \"{}\"}}}}",
            tracer.label
        )?;
        let written = (tracer.spans.len() as f64 * share).ceil() as usize;
        for span in &tracer.spans[..written] {
            let category = span.layer.name().split('.').next().unwrap_or("");
            write!(
                out,
                ",\n{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"{category}\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"req\": {}, \"elems\": {}}}}}",
                span.layer.name(),
                tid,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
                span.req,
                span.elems
            )?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin, "t", 2);
        for i in 0..5 {
            tracer.time(Layer::SamplerFeed, i, 4, || ());
        }
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.dropped, 3);
        assert_eq!(durations(&[tracer], Layer::SamplerFeed, true).len(), 2);
    }

    #[test]
    fn chrome_trace_output_is_valid_json() {
        let origin = Instant::now();
        let mut live = Tracer::new(origin, "conn 0", 8);
        live.time(Layer::ClientSend, request_id(0, 1), 16, || ());
        let mut replay = Tracer::new(origin, "replay", 8);
        replay.time(Layer::SamplerFeed, request_id(0, 1), 16, || ());
        let dir = std::env::current_dir().unwrap().join(".perf");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-unit-{}.json", std::process::id()));
        write_chrome_trace(&path, "unit", &[live, replay]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array();
        assert_eq!(events.len(), 4, "two thread names, two spans");
        let span = &events[3];
        assert_eq!(span.get("name").unwrap().as_str(), Some("sampler.feed"));
        assert_eq!(
            span.get("args").unwrap().get("req").unwrap().as_f64(),
            Some(request_id(0, 1) as f64)
        );
    }
}
