//! One workload, start to finish: inputs, set-up, warm-up, the measured
//! window, drain, verification, and the metrics.

use std::error::Error;
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use uns_core::NodeId;
use uns_service::client::ServiceClient;
use uns_service::protocol::{Request, Response};
use uns_service::sampler::ServiceSampler;

use crate::layers;
use crate::load::{self, Clock, ConnLog, ConnRun};
use crate::stats::{highest_supported, sub_seed, Summary};
use crate::trace::{self, durations, Layer, Tracer};
use crate::verify::{self, ReplayInput, Served};
use crate::workload::{self, Deploy, Load, Setup, Spec};

/// How a run is sized.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// The measured window.
    pub window: Duration,
    pub warmup: Duration,
    /// Set-ups per run: the first half before the window (the last of those
    /// serves the load), the rest after verification. `setup_s` is their
    /// median; spreading them over the run samples the host's speed at two
    /// moments, as the window does, instead of at one.
    pub setups: usize,
    /// Identifiers per writing connection's pool (a multiple of every
    /// batch size).
    pub pool_len: usize,
    pub trace: bool,
    /// Where trace files go (none when `None`).
    pub out: Option<PathBuf>,
}

impl RunConfig {
    /// A full run measuring `seconds`.
    pub fn full(seed: u64, seconds: f64, trace: bool, out: Option<PathBuf>) -> Self {
        Self {
            seed,
            window: Duration::from_secs_f64(seconds),
            warmup: Duration::from_secs(2),
            setups: 64,
            pool_len: 1 << 22,
            trace,
            out,
        }
    }

    /// The smoke run: every code path, half-second windows.
    pub fn smoke(seed: u64) -> Self {
        Self {
            window: Duration::from_millis(500),
            warmup: Duration::from_millis(100),
            setups: 1,
            pool_len: 1 << 16,
            ..Self::full(seed, 0.5, true, None)
        }
    }
}

/// Traced runs alternate untraced and traced slices of the window.
const TRACE_SLICES: u32 = 12;

/// Per-thread span buffer capacity in traced runs.
const LIVE_SPANS: usize = 1 << 19;

/// Replay span buffer capacity in traced runs.
const REPLAY_SPANS: usize = 1 << 21;

/// Send lag p99 above which a run is flagged: the generator, not the
/// service, may then be what the latency measures.
const LAG_LIMIT_US: f64 = 200.0;

/// A metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a verified run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (from a traced run they carry the tracing
    /// overhead and are not reported).
    pub end_to_end: Vec<Metric>,
    /// Every per-layer metric; empty for untraced runs.
    pub per_layer: Vec<Metric>,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
    /// Sample counts and other context for the results file.
    pub extra: Vec<(&'static str, f64)>,
}

fn err(message: impl Into<String>) -> Box<dyn Error> {
    message.into().into()
}

/// The process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `sum` and `count` of `uns_op_latency_nanos{op="feed"}` in an exposition.
fn feed_op_nanos(text: &str) -> Result<(f64, f64), Box<dyn Error>> {
    let samples = uns_metrics::parse_exposition(text)?;
    let get = |name| {
        uns_metrics::parse::find(&samples, name, &[("op", "feed")])
            .map(|s| s.value)
            .ok_or_else(|| err(format!("{name}{{op=\"feed\"}} missing from the exposition")))
    };
    Ok((get("uns_op_latency_nanos_sum")?, get("uns_op_latency_nanos_count")?))
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn close(conns: &[TcpStream]) {
    for conn in conns {
        let _ = conn.shutdown(Shutdown::Both);
    }
}

/// Runs workload `name` and verifies its outputs. Durable state lives in a
/// scratch directory under `.perf` that is removed when the run ends.
pub fn run(name: &str, cfg: &RunConfig) -> Result<Outcome, Box<dyn Error>> {
    let spec =
        Spec::new(name, cfg.seed).ok_or_else(|| err(format!("unknown workload {name:?}")))?;
    let started = Instant::now();
    let pools = spec.pools(cfg.seed, cfg.pool_len);
    let notes =
        vec![format!("inputs: {:.2} s to draw the id pools", started.elapsed().as_secs_f64())];
    let scratch = PathBuf::from(".perf").join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let result = measure(&spec, cfg, &pools, &scratch, notes);
    let cleanup = std::fs::remove_dir_all(&scratch);
    let outcome = result?;
    cleanup?;
    Ok(outcome)
}

/// Sets the deployment up `count` (at least one) times, appending each
/// set-up time to `times`; tears every one down but the last, which it
/// returns.
fn set_up(
    spec: &Spec,
    scratch: &Path,
    count: usize,
    times: &mut Vec<f64>,
) -> Result<Setup, Box<dyn Error>> {
    let mut kept: Option<Setup> = None;
    for _ in 0..count.max(1) {
        let fresh = workload::set_up(spec, &scratch.join(format!("setup-{}", times.len())))?;
        times.push(fresh.seconds);
        if let Some(old) = kept.replace(fresh) {
            close(&old.conns);
            old.deployment.stop()?;
        }
    }
    Ok(kept.expect("at least one set-up"))
}

/// The exposition text at the window's start and end.
type Scrapes = (String, String);

/// Warm-up plus window: one load thread per connection. Traced runs also
/// scrape the exposition at the window's edges (untraced runs skip the
/// render, so nothing but the load runs in the window).
fn drive(
    spec: &Spec,
    cfg: &RunConfig,
    pools: &[Vec<NodeId>],
    setup: &Setup,
    clock: &Clock,
) -> Result<(Vec<ConnLog>, Option<Scrapes>), Box<dyn Error>> {
    let probes_reads = spec.probes_reads();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (conn, tcp) in setup.conns.iter().enumerate() {
            let conn_spec = &spec.conns[conn];
            let run = ConnRun {
                conn,
                tcp: tcp.try_clone()?,
                stream: &spec.streams[conn_spec.stream].name,
                load: conn_spec.load,
                pool: &pools[conn],
                probe: probes_reads == matches!(conn_spec.load, Load::OpenReads { .. }),
                seed: cfg.seed,
                tracer: cfg
                    .trace
                    .then(|| Tracer::new(clock.origin, format!("conn {conn}"), LIVE_SPANS)),
            };
            handles.push(scope.spawn(move || match run.load {
                Load::Closed { .. } => load::run_closed(run, clock),
                _ => load::run_open(run, clock),
            }));
        }
        sleep_until(clock.window_start);
        let before = cfg.trace.then(|| setup.deployment.metrics_text());
        sleep_until(clock.window_end);
        let after = cfg.trace.then(|| setup.deployment.metrics_text());
        let logs = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| err("a load thread panicked"))?.map_err(Box::from))
            .collect::<Result<Vec<ConnLog>, Box<dyn Error>>>()?;
        Ok((logs, before.zip(after)))
    })
}

/// One stream's verified replay.
struct Verified {
    order: Vec<Served>,
    sampler: ServiceSampler,
}

/// Verifies stream `index` against its live final snapshot and, for a
/// mesh, the logs in `dirs` (primary first).
#[allow(clippy::too_many_arguments)]
fn verify_stream(
    spec: &Spec,
    index: usize,
    pools: &[Vec<NodeId>],
    logs: &[ConnLog],
    live_snapshot: &[u8],
    dirs: &[PathBuf],
    tracer: Option<&mut Tracer>,
    notes: &mut Vec<String>,
) -> Result<Verified, Box<dyn Error>> {
    let stream = &spec.streams[index];
    let logs: Vec<&ConnLog> = logs.iter().filter(|l| spec.conns[l.conn].stream == index).collect();
    let served = logs
        .iter()
        .flat_map(|log| {
            let len = spec.conns[log.conn].load.batch().unwrap_or(0);
            log.fed.iter().map(move |&fed| Served { conn: log.conn, len, fed })
        })
        .collect();
    let order = verify::served_order(served)?;
    let log_check = match spec.deploy {
        Deploy::Mesh => Some(verify::check_logs(&dirs[0], &dirs[1], &stream.name, &order, pools)?),
        Deploy::Reactor => None,
    };
    let input = ReplayInput {
        name: &stream.name,
        config: &stream.config,
        pools,
        checkpoint: log_check.as_ref().map(|l| l.primary_base as usize),
    };
    let replayed = verify::replay(&input, &order, tracer)?;
    let mut blob = Vec::new();
    replayed.sampler.snapshot(&mut blob);
    if blob != live_snapshot {
        return Err(err(format!(
            "{}: the replayed snapshot differs from the live one",
            stream.name
        )));
    }
    if let Some(check) = &log_check {
        if replayed.checkpoint_blob.as_ref() != Some(&check.primary_snapshot) {
            return Err(err(
                "the primary's durable snapshot differs from the replay at its sequence",
            ));
        }
        notes.push(format!(
            "logs: the replica's log ({} bytes) holds all {} served batches; the primary's equals it \
             from record {}",
            check.replica_bytes,
            order.len(),
            check.primary_base
        ));
    }
    let mut positions: Vec<u64> = order.iter().map(|s| s.fed.position).collect();
    positions.insert(0, 0);
    for log in &logs {
        if log.bad_reads > 0 {
            return Err(err(format!("{} snapshot reads did not restore", log.bad_reads)));
        }
        if let Some(p) = log.stats_positions.iter().find(|p| positions.binary_search(p).is_err()) {
            return Err(err(format!("a Stats read reported length {p}, which no batch ended at")));
        }
    }
    notes.push(format!(
        "verified {}: {} batches replayed, every reply digest and the final snapshot equal",
        stream.name,
        order.len()
    ));
    Ok(Verified { order, sampler: replayed.sampler })
}

fn measure(
    spec: &Spec,
    cfg: &RunConfig,
    pools: &[Vec<NodeId>],
    scratch: &Path,
    mut notes: Vec<String>,
) -> Result<Outcome, Box<dyn Error>> {
    let mut setup_times = Vec::new();
    let setup = set_up(spec, scratch, cfg.setups.div_ceil(2), &mut setup_times)?;
    let origin = Instant::now();
    let window_start = origin + cfg.warmup;
    let clock = Clock {
        origin,
        window_start,
        window_end: window_start + cfg.window,
        trace_slice: cfg.trace.then(|| cfg.window / TRACE_SLICES),
    };
    let (mut logs, scrapes) = drive(spec, cfg, pools, &setup, &clock)?;
    let peak_rss_mib = peak_rss_kib().ok_or_else(|| err("VmHWM unavailable"))? as f64 / 1024.0;

    // The live final state of every stream, then shut everything down.
    let mut live_snapshots = Vec::new();
    for (index, stream) in spec.streams.iter().enumerate() {
        let conn = spec.conns.iter().position(|c| c.stream == index).expect("a connection");
        let mut client = ServiceClient::new(setup.conns[conn].try_clone()?)?;
        live_snapshots.push(client.snapshot(&stream.name)?);
    }
    close(&setup.conns);
    let dirs = setup.deployment.stop()?;

    let mut replay_tracer = cfg.trace.then(|| Tracer::new(origin, "replay", REPLAY_SPANS));
    let mut verified = Vec::new();
    for (index, live) in live_snapshots.iter().enumerate() {
        let tracer = replay_tracer.as_mut();
        verified.push(verify_stream(spec, index, pools, &logs, live, &dirs, tracer, &mut notes)?);
    }
    if cfg.setups > 1 {
        let last = set_up(spec, scratch, cfg.setups / 2, &mut setup_times)?;
        close(&last.conns);
        last.deployment.stop()?;
    }

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let window_s = cfg.window.as_secs_f64();
    let elems: u64 = logs.iter().map(|l| l.window_elems).sum();
    let latency = Summary::of(logs.iter().flat_map(|l| l.latency_us.iter().copied()).collect());
    let lag = Summary::of(logs.iter().flat_map(|l| l.lag_us.iter().copied()).collect());
    let slo_misses: u64 = logs.iter().map(|l| l.slo_misses).sum();
    let mean_throughput = elems as f64 / window_s / 1e6;
    let end_to_end = vec![
        ("throughput_melem_s", fast_cycle_throughput(spec, &logs, window_s), "Melem/s"),
        ("latency_p1_us", latency.p1, "us"),
        ("setup_s", Summary::of(setup_times.clone()).p50, "s"),
        ("peak_rss_mb", peak_rss_mib, "MiB"),
    ];
    let op = if spec.probes_reads() { "reads" } else { "FeedBatch writes" };
    let supported = match highest_supported(latency.n) {
        Some((q, b)) => format!(", highest supported percentile p{} ({b} beyond)", q * 100.0),
        None => String::new(),
    };
    notes.push(format!(
        "latency of {op}: n = {}, p1 {:.1} us with {} below, p50 {:.1} us, p90 {:.1} us, \
         p99 {:.1} us with {} beyond{supported}",
        latency.n,
        latency.p1,
        latency.below_p1,
        latency.p50,
        latency.p90,
        latency.p99,
        latency.beyond_p99
    ));
    notes.push(format!("mean throughput over the window: {mean_throughput:.4} Melem/s"));
    if !latency.p99_supported() {
        notes.push("warning: fewer than ten samples beyond p99".into());
    }
    if lag.p99 > LAG_LIMIT_US {
        notes.push(format!(
            "warning: the load generator ran late (send lag p99 {:.0} us > {LAG_LIMIT_US} us)",
            lag.p99
        ));
    }
    notes.push(format!("set-ups: {setup_times:.4?} s"));
    let share = |n: u64, of: u64| if of == 0 { 0.0 } else { n as f64 / of as f64 };
    let mut extra = vec![
        ("latency_samples", latency.n as f64),
        ("latency_p1_us", latency.p1),
        ("latency_p50_us", latency.p50),
        ("latency_p90_us", latency.p90),
        ("latency_p99_us", latency.p99),
        ("mean_throughput_melem_s", mean_throughput),
        ("lag_p99_us", lag.p99),
        ("slo_miss_share", share(slo_misses, latency.n as u64)),
        ("error_share", share(failed, attempted)),
        ("window_s", window_s),
    ];

    let per_layer = match replay_tracer {
        None => Vec::new(),
        Some(mut replay_tracer) => {
            let (stream, first) = (&spec.streams[0], &verified[0]);
            layers::time_reads(&first.sampler, sub_seed(cfg.seed, &[0x4EAD]), &mut replay_tracer);
            let wal = layers::time_wal(
                &scratch.join("wal-replay"),
                &stream.name,
                &first.order,
                pools,
                &mut replay_tracer,
            )?;
            layers::time_mesh(
                &scratch.join("mesh-replay"),
                &stream.name,
                &stream.config,
                &first.order,
                pools,
                &mut replay_tracer,
            )?;
            let mut tracers: Vec<Tracer> =
                logs.iter_mut().flat_map(|l| l.tracers.drain(..)).collect();
            tracers.push(replay_tracer);
            extra.push(("dropped_spans", tracers.iter().map(|t| t.dropped as f64).sum()));
            let scrapes = scrapes.ok_or_else(|| err("a traced run scrapes the exposition"))?;
            let metrics = per_layer_metrics(spec, &logs, &tracers, &lag, &scrapes, wal)?;
            if let Some(dir) = &cfg.out {
                let path = dir.join(format!("trace-{}.json", spec.name));
                trace::write_chrome_trace(&path, spec.name, &tracers)?;
                notes.push(format!("trace: {}", path.display()));
            }
            metrics
        }
    };
    Ok(Outcome { workload: spec.name, attempted, failed, end_to_end, per_layer, notes, extra })
}

/// Identifiers per second at the connections' fastest cycles: each
/// closed-loop connection contributes its batch over the 1st percentile of
/// its send-to-send cycle, each open-loop writer the ids it had
/// acknowledged per second of the window (its schedule sets that rate).
/// Cycles of refused or failed batches are not counted.
///
/// On a shared host, other tenants slow the CPU by up to 2x for seconds to
/// minutes, so the mean rate of the same build moves by up to a half from
/// run to run. The fastest cycles are those run while the host left the
/// service alone, and they repeat within about a tenth.
fn fast_cycle_throughput(spec: &Spec, logs: &[ConnLog], window_s: f64) -> f64 {
    logs.iter()
        .map(|log| match spec.conns[log.conn].load {
            Load::Closed { batch } if !log.cycle_us.is_empty() => {
                batch as f64 / Summary::of(log.cycle_us.clone()).p1
            }
            Load::Closed { .. } => 0.0,
            _ => log.window_elems as f64 / window_s / 1e6,
        })
        .sum()
}

/// Bytes on the wire per identifier fed: one `FeedBatch` frame and its
/// reply, length prefixes included.
fn wire_bytes_per_elem(spec: &Spec) -> f64 {
    let conn = spec.conns.iter().find(|c| c.load.batch().is_some()).expect("a writer");
    let batch = conn.load.batch().expect("a writer");
    let ids = vec![NodeId::new(0); batch];
    let (mut request, mut reply) = (Vec::new(), Vec::new());
    Request::encode_batch(&mut request, true, &spec.streams[conn.stream].name, &ids);
    Response::Fed { position: 0, admitted: 0, outputs: ids }.encode(&mut reply);
    (request.len() + reply.len() + 8) as f64 / batch as f64
}

fn per_layer_metrics(
    spec: &Spec,
    logs: &[ConnLog],
    tracers: &[Tracer],
    lag: &Summary,
    scrapes: &Scrapes,
    (wal_bytes, wal_elems): (u64, u64),
) -> Result<Vec<Metric>, Box<dyn Error>> {
    let summary = |layer, per_elem| Summary::of(durations(tracers, layer, per_elem));
    let encode = summary(Layer::ClientEncode, false);
    let send = summary(Layer::ClientSend, false);
    let wait = summary(Layer::ClientWait, false);
    let decode = summary(Layer::ClientDecode, false);
    let protocol_decode = summary(Layer::ProtocolDecode, false);
    let protocol_encode = summary(Layer::ProtocolEncode, false);
    let feed = summary(Layer::SamplerFeed, true);
    let feed_call = summary(Layer::SamplerFeed, false);
    let read = summary(Layer::SamplerRead, false);
    let record = summary(Layer::EstimatorRecord, true);
    let append = summary(Layer::WalAppend, false);
    let fsync = summary(Layer::WalFsync, false);
    let apply = summary(Layer::MeshApply, false);
    let fed_elems: u64 = logs
        .iter()
        .map(|l| l.fed.len() as u64 * spec.conns[l.conn].load.batch().unwrap_or(0) as u64)
        .sum();
    let admitted: u64 = logs.iter().map(|l| l.admitted).sum();
    if fed_elems == 0 || wait.n == 0 || feed.n == 0 {
        return Err(err("the traced slices recorded no FeedBatch"));
    }
    // What the replayed server-side layers account for of a request's wait.
    let mut server_us = (protocol_decode.mean + feed_call.mean + protocol_encode.mean) / 1e3;
    if spec.deploy == Deploy::Mesh {
        server_us += (append.mean + fsync.mean + apply.mean) / 1e3;
    }
    let residual_us = wait.mean / 1e3 - server_us;
    let (sum0, count0) = feed_op_nanos(&scrapes.0)?;
    let (sum1, count1) = feed_op_nanos(&scrapes.1)?;
    if count1 <= count0 {
        return Err(err("no FeedBatch reached a worker during the window"));
    }
    let traced: u64 = logs.iter().map(|l| l.traced_elems).sum();
    let untraced: u64 = logs.iter().map(|l| l.untraced_elems).sum();
    Ok(vec![
        ("client.encode_ns.mean", encode.mean, "ns"),
        ("client.encode_ns.p99", encode.p99, "ns"),
        ("client.send_ns.mean", send.mean, "ns"),
        ("client.send_ns.p99", send.p99, "ns"),
        ("client.wait_us.mean", wait.mean / 1e3, "us"),
        ("client.wait_us.p99", wait.p99 / 1e3, "us"),
        ("client.decode_ns.mean", decode.mean, "ns"),
        ("client.decode_ns.p99", decode.p99, "ns"),
        ("loadgen.lag_p99_us", lag.p99, "us"),
        ("protocol.decode_ns.mean", protocol_decode.mean, "ns"),
        ("protocol.decode_ns.p99", protocol_decode.p99, "ns"),
        ("protocol.encode_ns.mean", protocol_encode.mean, "ns"),
        ("protocol.encode_ns.p99", protocol_encode.p99, "ns"),
        ("protocol.bytes_per_elem", wire_bytes_per_elem(spec), "B/elem"),
        ("sampler.feed_ns_per_elem.mean", feed.mean, "ns"),
        ("sampler.feed_ns_per_elem.p99", feed.p99, "ns"),
        ("sampler.read_us.mean", read.mean / 1e3, "us"),
        ("sampler.read_us.p99", read.p99 / 1e3, "us"),
        ("sampler.admitted_share", admitted as f64 / fed_elems as f64, "ratio"),
        ("estimator.record_ns_per_elem.mean", record.mean, "ns"),
        ("estimator.record_ns_per_elem.p99", record.p99, "ns"),
        ("core.memory_coins_ns_per_elem", feed.mean - record.mean, "ns"),
        ("wal.append_us.mean", append.mean / 1e3, "us"),
        ("wal.append_us.p99", append.p99 / 1e3, "us"),
        ("wal.fsync_us.mean", fsync.mean / 1e3, "us"),
        ("wal.fsync_us.p99", fsync.p99 / 1e3, "us"),
        ("wal.bytes_per_elem", wal_bytes as f64 / wal_elems as f64, "B/elem"),
        ("mesh.replica_apply_us.mean", apply.mean / 1e3, "us"),
        ("mesh.replica_apply_us.p99", apply.p99 / 1e3, "us"),
        ("server.residual_us", residual_us, "us"),
        ("server.residual_share", residual_us / (wait.mean / 1e3), "ratio"),
        ("server.worker_op_us", (sum1 - sum0) / (count1 - count0) / 1e3, "us"),
        ("trace.overhead_share", 1.0 - traced as f64 / untraced.max(1) as f64, "ratio"),
    ])
}
