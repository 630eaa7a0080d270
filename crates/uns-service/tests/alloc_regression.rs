//! Allocation regression test for the service's batch hot path.
//!
//! PR 3 left one per-batch allocation proportional to the batch size on
//! the Feed path: the worker cloned its outputs buffer into every reply.
//! The buffer pool removed it — request-id buffers and reply-output
//! buffers now cycle between connections and workers. This test
//! pins the property with a counting global allocator: after warm-up, a
//! long feed session allocates a small *constant* number of bytes per
//! batch (reply-channel plumbing), not O(batch).
//!
//! The client side deliberately speaks the raw wire protocol with reused
//! buffers and never decodes the reply body (decoding would allocate the
//! outputs vector client-side and drown the signal).
//!
//! PR 8 put live metrics on this same hot path (per-op latency histogram,
//! per-stream pipeline counters, floor gauge, queue-depth gauge), so the
//! windows above now pin the *instrumented* path. A second test isolates
//! the instrumentation primitives themselves and pins them to literally
//! zero bytes per update. It counts only its own thread's allocations:
//! the test harness formats the sibling test's output on another thread
//! while it runs.
//!
//! A third test runs the long feed session over reactor TCP, where the
//! worker encodes each Fed reply into its thread's reused frame buffer and
//! writes it to the socket itself, under the same two bounds.
//!
//! A fourth pins the sketches' record paths to zero bytes at every depth,
//! on both sides of the 16-row switch to the unspecialised row loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use uns_core::NodeId;
use uns_service::protocol::Request;
use uns_service::transport::Transport;
use uns_service::wire::{read_frame, write_frame};
use uns_service::{
    EstimatorKind, HashFamilyKind, ReactorConfig, Server, ServerConfig, StreamConfig,
};

struct CountingAllocator;

/// Bytes allocated by every thread.
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated by threads that set [`COUNT_THIS_THREAD`].
static THREAD_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Marks the thread whose allocations [`THREAD_BYTES`] counts.
    /// `const`-initialised and drop-free, so reading it from inside the
    /// allocator never allocates.
    static COUNT_THIS_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    if COUNT_THIS_THREAD.try_with(Cell::get).unwrap_or(false) {
        THREAD_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the byte counters are a side effect with no influence on the returned
// memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The tests must not run concurrently: the per-batch tests count every
/// thread's allocations. A failure in one must not fail another through a
/// poisoned lock, so each takes it past poisoning.
static SERIAL: Mutex<()> = Mutex::new(());

/// Sends one pre-encoded frame and reads the reply into a reused buffer,
/// asserting it is a Fed reply (version byte, then response opcode 0x82)
/// without decoding it.
fn feed_once<R: std::io::Read, W: std::io::Write>(
    reader: &mut R,
    writer: &mut W,
    request: &[u8],
    reply: &mut Vec<u8>,
) {
    write_frame(writer, request).expect("write frame");
    assert!(read_frame(reader, reply).expect("read frame"), "server hung up");
    assert!(reply.len() >= 2 && reply[1] == 0x82, "expected a Fed reply, got {:?}", &reply[..2]);
}

/// Feeds `batches` pre-encoded batches and returns the average number of
/// bytes allocated per batch across the window.
fn measure_window<R: std::io::Read, W: std::io::Write>(
    batches: usize,
    reader: &mut R,
    writer: &mut W,
    request: &[u8],
    reply: &mut Vec<u8>,
) -> u64 {
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    for _ in 0..batches {
        feed_once(reader, writer, request, reply);
    }
    (ALLOCATED_BYTES.load(Ordering::Relaxed) - before) / batches as u64
}

#[test]
fn long_feed_session_does_not_allocate_per_batch_proportionally() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = Server::start(ServerConfig { workers: 1, queue_depth: 16 });
    let mut transport = server.connect_in_process();
    let mut writer = transport.try_clone_transport().expect("clone transport");

    let mut body = Vec::new();
    let config = StreamConfig {
        kind: EstimatorKind::CountMin,
        capacity: 10,
        width: 10,
        depth: 5,
        seed: 42,
        family: HashFamilyKind::Mersenne,
    };
    Request::CreateStream { name: "s", config }.encode(&mut body);
    let mut reply = Vec::new();
    write_frame(&mut writer, &body).expect("write create");
    assert!(read_frame(&mut transport, &mut reply).expect("read create reply"));

    const BATCH: usize = 4096;
    let ids: Vec<NodeId> = (0..BATCH as u64).map(|i| NodeId::new(i % 512)).collect();
    let mut request = Vec::new();
    Request::encode_batch(&mut request, true, "s", &ids);

    // Warm-up: grow the pipe buffers, the pooled id/output buffers and the
    // frame scratch to their steady-state capacities.
    for _ in 0..100 {
        feed_once(&mut transport, &mut writer, &request, &mut reply);
    }

    let first_window = measure_window(150, &mut transport, &mut writer, &request, &mut reply);
    let second_window = measure_window(150, &mut transport, &mut writer, &request, &mut reply);

    // The retired `outputs.clone()` alone cost 8 × BATCH = 32 KiB per
    // batch. What remains is per-request plumbing (the one-shot reply
    // channel), independent of the batch size.
    assert!(
        first_window < 8 * 1024,
        "{first_window} bytes allocated per {BATCH}-id batch: the hot path regressed to O(batch)"
    );
    // And the session does not creep: the second window allocates no more
    // than the first (equal steady states, with slack for timer noise).
    assert!(
        second_window <= first_window.saturating_mul(2) + 512,
        "per-batch allocations grew over the session: {first_window} -> {second_window}"
    );
}

/// The instrumentation added per batch — counter adds, gauge sets, one
/// histogram record, and (once per floor window) a trace push into a ring
/// at capacity — allocates **zero** bytes. Registration pays all the
/// allocations up front; steady state is pure relaxed atomics.
#[test]
fn metrics_hot_path_allocates_zero_bytes_per_update() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let registry = uns_metrics::MetricsRegistry::new();
    let counter = registry.counter("uns_test_total", "Counter under test.", &[("stream", "s")]);
    let gauge = registry.gauge("uns_test_gauge", "Gauge under test.", &[("stream", "s")]);
    let histogram =
        registry.histogram("uns_test_nanos", "Histogram under test.", &[("op", "feed")]);
    let trace = uns_metrics::TraceLog::new(64);
    let stream: std::sync::Arc<str> = std::sync::Arc::from("s");
    // Fill the ring so every further push overwrites instead of growing.
    for i in 0..64u64 {
        trace.push(uns_metrics::TraceKind::FloorSample, &stream, i, i);
    }

    COUNT_THIS_THREAD.with(|flag| flag.set(true));
    let before = THREAD_BYTES.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        counter.add(7);
        gauge.set_u64(i);
        histogram.record(i * 37);
        if i % 16 == 0 {
            trace.push(uns_metrics::TraceKind::FloorSample, &stream, i, i);
        }
    }
    let allocated = THREAD_BYTES.load(Ordering::Relaxed) - before;
    COUNT_THIS_THREAD.with(|flag| flag.set(false));
    assert_eq!(
        allocated, 0,
        "metrics hot path allocated {allocated} bytes over 10k updates; it must be atomics only"
    );
}

/// The sketches' record paths, which every fed id runs through, allocate
/// **zero** bytes at every depth: up to 16 rows the per-depth kernels keep
/// their per-row buffers on the stack, and deeper sketches reuse buffers
/// sized when the sketch was built.
#[test]
fn sketch_record_paths_allocate_zero_bytes_at_every_depth() {
    use uns_sketch::{CountMinSketch, CountSketch, UpdatePolicy};
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let ids: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 300).collect();
    for depth in 1..=20usize {
        for family in [HashFamilyKind::Mersenne, HashFamilyKind::MultiplyShift] {
            let count_min = |policy| {
                CountMinSketch::with_dimensions_family(32, depth, 5, family)
                    .expect("valid dimensions")
                    .with_policy(policy)
            };
            let mut standard = count_min(UpdatePolicy::Standard);
            let mut conservative = count_min(UpdatePolicy::Conservative);
            let mut count_sketch = CountSketch::with_dimensions_family(32, depth, 5, family)
                .expect("valid dimensions");

            COUNT_THIS_THREAD.with(|flag| flag.set(true));
            let before = THREAD_BYTES.load(Ordering::Relaxed);
            let mut acc = 0u64;
            for &id in &ids {
                for sketch in [&mut standard, &mut conservative] {
                    let (estimate, floor) = sketch.record_and_estimate(id);
                    sketch.record_many(id, 3);
                    acc = acc.wrapping_add(estimate ^ floor);
                }
                let (estimate, floor) = count_sketch.record_and_estimate(id);
                count_sketch.record_many(id, 2);
                acc = acc.wrapping_add(estimate ^ floor);
            }
            count_sketch.record_unfloored(&ids);
            let allocated = THREAD_BYTES.load(Ordering::Relaxed) - before;
            COUNT_THIS_THREAD.with(|flag| flag.set(false));
            std::hint::black_box(acc);
            assert_eq!(
                allocated, 0,
                "depth {depth}, {family:?}: the record paths allocated {allocated} bytes"
            );
        }
    }
}

#[test]
fn reactor_feed_session_does_not_allocate_per_batch_proportionally() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = Server::start(ServerConfig { workers: 1, queue_depth: 16 });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (first_window, second_window) = std::thread::scope(|scope| {
        let reactor = scope.spawn(|| server.serve_reactor(listener, ReactorConfig::default()));
        let mut reader = TcpStream::connect(addr).expect("connect");
        let mut writer = reader.try_clone().expect("clone socket");

        let mut body = Vec::new();
        let config = StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 10,
            width: 10,
            depth: 5,
            seed: 42,
            family: HashFamilyKind::Mersenne,
        };
        Request::CreateStream { name: "s", config }.encode(&mut body);
        let mut reply = Vec::new();
        write_frame(&mut writer, &body).expect("write create");
        assert!(read_frame(&mut reader, &mut reply).expect("read create reply"));

        const BATCH: usize = 4096;
        let ids: Vec<NodeId> = (0..BATCH as u64).map(|i| NodeId::new(i % 512)).collect();
        let mut request = Vec::new();
        Request::encode_batch(&mut request, true, "s", &ids);

        // Warm-up: the connection's buffers, the pooled id/output buffers,
        // the worker's frame buffer and the completion queue reach their
        // steady-state capacities.
        for _ in 0..100 {
            feed_once(&mut reader, &mut writer, &request, &mut reply);
        }
        let first = measure_window(150, &mut reader, &mut writer, &request, &mut reply);
        let second = measure_window(150, &mut reader, &mut writer, &request, &mut reply);
        server.stop();
        reactor.join().expect("reactor thread").expect("reactor exit");
        (first, second)
    });

    assert!(
        first_window < 8 * 1024,
        "{first_window} bytes allocated per 4096-id batch over reactor TCP: the hot path \
         regressed to O(batch)"
    );
    assert!(
        second_window <= first_window.saturating_mul(2) + 512,
        "per-batch allocations grew over the reactor session: {first_window} -> {second_window}"
    );
}
