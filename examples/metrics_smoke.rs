//! CI smoke check for the live metrics surface, end to end over real TCP.
//!
//! ```text
//! cargo run --release --example metrics_smoke
//! ```
//!
//! Starts a **durable** server (WAL + snapshots on runner disk), serves
//! both listeners — the framed wire protocol through the reactor and the
//! plain-HTTP admin surface — runs a short load-generator burst, then
//! scrapes `GET /metrics` over a real socket and asserts that:
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
use uns_metrics::parse::find;
use uns_service::loadgen::{create_and_run, LoadgenConfig, LoadgenRetry, Workload};
use uns_service::protocol::{EstimatorKind, HashFamilyKind, StreamConfig};
use uns_service::server::{DurabilityConfig, Server, ServerConfig};
use uns_service::{DirBackend, ReactorConfig, ServiceClient};

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

        let connect = || {
            let stream = TcpStream::connect(wire_addr).map_err(uns_service::ServiceError::from)?;
            stream.set_nodelay(true).map_err(uns_service::ServiceError::from)?;
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
        // Enough batches (64 × 1024 elements per connection) to complete
        // several floor-trajectory windows.
        let config = LoadgenConfig {
            connections: 2,
            elements_per_connection: 64 * 1024,
            batch_len: 1024,
            workload: Workload::Uniform { domain: 50_000 },
            seed: 7,
            feed: true,
            retry: LoadgenRetry::default(),
        };
        let report = create_and_run(connect, "smoke", &stream_config, &config)?;
        println!(
            "loadgen: {} elements at {:.2} Melem/s (durable, per-op fsync)",
            report.elements,
            report.melem_per_s()
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
                return Err(
                    format!("{family} is zero after a {}-element run", report.elements).into()
                );
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
