//! CI smoke check for the live metrics surface, end to end over real TCP.
//!
//! ```text
//! cargo run --release --example metrics_smoke
//! ```
//!
//! Starts a **durable** server (WAL + snapshots on runner disk), serves
//! both listeners — the framed wire protocol through the reactor and the
//! plain-HTTP admin surface — runs a short feed burst from two client
//! connections, then scrapes `GET /metrics` over a real socket and
//! asserts that:
//!
//! * the exposition parses under the strict parser (every line, every
//!   label, every histogram bucket);
//! * the key per-stream series are present and nonzero (elements fed,
//!   WAL records appended, op latency observed, floor published);
//! * the wire `Metrics` opcode returns the same families, and its
//!   counters agree with the `Stats` opcode bit for bit;
//! * `/healthz` answers and `/trace` carries the stream-creation event.
//!
//! Exits nonzero on any violation, so CI catches a silently broken
//! scrape path, not just a broken build.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uns_metrics::parse::find;
use uns_service::protocol::{EstimatorKind, HashFamilyKind, StreamConfig};
use uns_service::server::{DurabilityConfig, Server, ServerConfig};
use uns_service::{DirBackend, ReactorConfig, ServiceClient, ServiceError};
use uns_streams::{IdDistribution, IdStream};

/// Client connections feeding the burst.
const CONNECTIONS: u64 = 2;
/// Elements per `FeedBatch`.
const BATCH_LEN: usize = 1024;
/// Batches per connection: enough (64 × 1024 elements per connection) to
/// complete several floor-trajectory windows.
const BATCHES: usize = 64;

/// Feeds `ids` to `stream` in [`BATCH_LEN`] batches, retrying a batch
/// after a short pause whenever the server answers `Busy`.
fn feed_all(
    client: &mut ServiceClient<TcpStream>,
    stream: &str,
    ids: &[uns_core::NodeId],
) -> Result<(), ServiceError> {
    for batch in ids.chunks(BATCH_LEN) {
        loop {
            match client.feed_batch(stream, batch) {
                Ok(_) => break,
                Err(ServiceError::Busy) => std::thread::sleep(Duration::from_micros(200)),
                Err(err) => return Err(err),
            }
        }
    }
    Ok(())
}

fn scrape(addr: std::net::SocketAddr, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let mut conn = TcpStream::connect(addr)?;
    write!(conn, "GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n")?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or("no header/body split")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("GET {path}: {head}").into());
    }
    Ok(body.to_string())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("uns-metrics-smoke-{}", std::process::id()));
    let backend = Arc::new(DirBackend::create(&dir)?);
    let server = Server::start_durable(
        ServerConfig { workers: 2, queue_depth: 16 },
        DurabilityConfig::new(backend),
    )?;

    let wire = TcpListener::bind("127.0.0.1:0")?;
    let wire_addr = wire.local_addr()?;
    let admin = TcpListener::bind("127.0.0.1:0")?;
    let admin_addr = admin.local_addr()?;

    let result = std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        scope.spawn(|| server.serve_reactor(wire, ReactorConfig::default()));
        scope.spawn(|| server.serve_metrics_http(admin));

        let connect = move || -> Result<TcpStream, ServiceError> {
            let stream = TcpStream::connect(wire_addr)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        };
        let stream_config = StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 10,
            width: 10,
            depth: 5,
            seed: 42,
            family: HashFamilyKind::Mersenne,
        };
        ServiceClient::new(connect()?)?.create_stream("smoke", &stream_config)?;
        let slices = (0..CONNECTIONS)
            .map(|i| {
                Ok(IdStream::new(IdDistribution::uniform(50_000)?, 7 + i)
                    .take_vec(BATCHES * BATCH_LEN))
            })
            .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?;
        let started = Instant::now();
        let feeders: Vec<_> = slices
            .into_iter()
            .map(|ids| {
                scope.spawn(move || feed_all(&mut ServiceClient::new(connect()?)?, "smoke", &ids))
            })
            .collect();
        for feeder in feeders {
            feeder.join().expect("feeder panicked")?;
        }
        let fed = CONNECTIONS * (BATCHES * BATCH_LEN) as u64;
        println!(
            "feed burst: {fed} elements at {:.2} Melem/s (durable, per-op fsync)",
            fed as f64 / started.elapsed().as_secs_f64() / 1e6
        );

        // --- HTTP scrape: strict-parse, then assert the key series. ---
        let exposition = scrape(admin_addr, "/metrics")?;
        let samples = uns_metrics::parse_exposition(&exposition)
            .map_err(|err| format!("exposition rejected by strict parser: {err}"))?;
        println!("GET /metrics: {} bytes, {} samples, parser ok", exposition.len(), samples.len());

        let labels = [("stream", "smoke")];
        let nonzero = |family: &str| -> Result<u64, Box<dyn std::error::Error>> {
            let sample =
                find(&samples, family, &labels).ok_or_else(|| format!("missing {family}"))?;
            let value = sample.value_u64().ok_or_else(|| format!("{family} not integral"))?;
            if value == 0 {
                return Err(format!("{family} is zero after a {fed}-element run").into());
            }
            Ok(value)
        };
        let elements = nonzero(uns_sim::metrics::METRIC_STREAM_ELEMENTS)?;
        let wal_records = nonzero(uns_service::metrics::METRIC_STREAM_WAL_RECORDS)?;
        let floor = nonzero(uns_service::metrics::METRIC_STREAM_FLOOR)?;
        let window_min = nonzero(uns_service::metrics::METRIC_STREAM_FLOOR_WINDOW_MIN)?;
        let feed_count = find(&samples, "uns_op_latency_nanos_count", &[("op", "feed")])
            .and_then(|s| s.value_u64())
            .ok_or("missing feed latency count")?;
        if feed_count == 0 {
            return Err("uns_op_latency_nanos_count{op=\"feed\"} is zero".into());
        }
        println!(
            "key series: elements={elements} wal_records={wal_records} floor={floor} \
             floor_window_min={window_min} feed_latency_count={feed_count}"
        );

        // --- Wire opcode agrees with Stats, bit for bit. ---
        let mut client = ServiceClient::new(connect()?)?;
        let stats = client.stats("smoke")?;
        let wire_samples = uns_metrics::parse_exposition(&client.metrics()?)?;
        for (family, want) in [
            (uns_sim::metrics::METRIC_STREAM_ELEMENTS, stats.pipeline.elements),
            (uns_service::metrics::METRIC_STREAM_WAL_RECORDS, stats.durability.wal_records),
            (uns_service::metrics::METRIC_STREAM_BUSY, stats.busy_rejections),
        ] {
            let got = find(&wire_samples, family, &labels).and_then(|s| s.value_u64());
            if got != Some(want) {
                return Err(
                    format!("{family}: wire exposition {got:?} != Stats opcode {want}").into()
                );
            }
        }
        println!("wire Metrics opcode agrees with Stats opcode");

        // --- The other admin routes answer. ---
        if scrape(admin_addr, "/healthz")? != "ok\n" {
            return Err("/healthz did not answer ok".into());
        }
        let trace = scrape(admin_addr, "/trace")?;
        if !trace.contains("stream_created") {
            return Err(format!("/trace lacks the creation event:\n{trace}").into());
        }
        println!("/healthz ok, /trace carries {} lines. ok.", trace.lines().count());

        server.stop();
        Ok(())
    });
    std::fs::remove_dir_all(&dir).ok();
    result
}
