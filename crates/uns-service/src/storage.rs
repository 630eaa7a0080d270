//! Storage backends the durability layer writes through.
//!
//! Two abstractions, chosen so the fault-injection layer can interpose on
//! exactly the operations real hardware gets wrong:
//!
//! * [`WalStore`] — one stream's append-only log file. `append` may write a
//!   *prefix* (a torn write), `sync` is the durability barrier: bytes are
//!   guaranteed to survive a crash only once a `sync` covering them
//!   returned. The WAL engine ([`crate::wal`]) is written against this
//!   contract, never against "writes always land whole".
//! * [`StorageBackend`] — the per-stream namespace: opens WAL stores,
//!   reads/writes snapshot blobs (snapshot writes are **atomic**: a crash
//!   leaves either the old or the new blob, never a torn mix), lists the
//!   streams that have durable state.
//!
//! Two implementations ship: [`DirBackend`] over a real directory (files,
//!   `fsync`, temp-file + rename for snapshot atomicity) and [`MemBackend`],
//!   an in-memory model with an explicit [`MemBackend::crash`] that discards
//!   every byte not covered by a `sync` — the crash-recovery tests use it to
//!   place crash points *exactly*, something a real filesystem cannot do
//!   deterministically.
//!
//! # Zero-filled preallocation
//!
//! [`DirBackend`]'s log files grow in zero-filled 64 KiB chunks ahead of the
//! records: an append that stays inside the allocated region does not change
//! the file's size, so its `fdatasync` commits data only, not a size update
//! through the filesystem journal — only the one append per chunk that
//! crosses the allocated end pays for that. The writer's handle keeps the
//! *logical* end, so its `len` and `read_all` see exactly the records; any
//! other handle (a generation probe, a replication attach read) sees the file
//! as it is, records followed by a zero tail — the same bytes a crash image
//! holds. A zero tail is a torn tail to [`crate::wal::parse_wal`] (a record
//! length of 0 is invalid), so recovery truncates it like any other. The
//! writer trims the tail when it is dropped, so an orderly close leaves the
//! log byte-exact; a handle that another writer has since replaced (it
//! truncated the same file after this one last did) leaves the file alone.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One stream's append-only write-ahead-log storage.
///
/// The contract mirrors a POSIX file opened for appending:
///
/// * [`append`](WalStore::append) returns how many bytes were written —
///   possibly fewer than offered (short write) — or an error after writing
///   any prefix (torn write). Callers must not assume all-or-nothing.
/// * [`sync`](WalStore::sync) is the durability barrier: only bytes covered
///   by a returned `sync` are guaranteed to survive a crash.
/// * [`truncate`](WalStore::truncate) discards everything past `len` — the
///   repair operation after a torn write and the tail cleanup after
///   recovery.
/// * [`len`](WalStore::len) and [`read_all`](WalStore::read_all) are
///   *logical* on the handle that writes the log: they cover exactly the
///   bytes it appended. Any other handle may see a zero tail after them, as
///   a crash image does; readers must treat zeros as a torn tail.
// `len` is fallible and `&mut` (it may query the file); an `is_empty`
// shim would be neither clearer nor cheaper.
#[allow(clippy::len_without_is_empty)]
pub trait WalStore: Send {
    /// Appends bytes at the end of the log; returns how many were written.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure. Bytes may have been partially written.
    fn append(&mut self, bytes: &[u8]) -> io::Result<usize>;

    /// Durability barrier: everything appended so far survives a crash.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure; durability of unsynced bytes is unknown.
    fn sync(&mut self) -> io::Result<()>;

    /// Current length of the log in bytes.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    fn len(&mut self) -> io::Result<u64>;

    /// Reads the whole log (synced or not) from the start.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;

    /// Discards everything past `len` bytes.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// The durable namespace one server persists its streams into.
///
/// Implementations must be shareable across worker threads (`Send + Sync`);
/// per-stream WAL handles are exclusive (`&mut` via [`WalStore`]) because a
/// stream is only ever owned by one worker.
pub trait StorageBackend: Send + Sync {
    /// Opens (creating if absent) the stream's WAL store.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    fn open_wal(&self, stream: &str) -> io::Result<Box<dyn WalStore>>;

    /// Atomically replaces the stream's snapshot blob: after a crash the
    /// stream has either the previous blob or this one, never a torn mix.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure; the previous blob (if any) must survive.
    fn write_snapshot(&self, stream: &str, bytes: &[u8]) -> io::Result<()>;

    /// Reads the stream's snapshot blob, `None` if it has none.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    fn read_snapshot(&self, stream: &str) -> io::Result<Option<Vec<u8>>>;

    /// Names of every stream with durable state (a snapshot blob).
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    fn list_streams(&self) -> io::Result<Vec<String>>;

    /// Deletes all durable state of `stream`.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    fn remove_stream(&self, stream: &str) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// Filesystem backend
// ---------------------------------------------------------------------------

/// Hex-encodes a stream name into a filesystem-safe file stem. Stream names
/// are arbitrary UTF-8 up to 255 bytes; hex sidesteps separators, dots and
/// case-folding filesystems at the cost of 2× name length.
fn encode_name(stream: &str) -> String {
    let mut out = String::with_capacity(stream.len() * 2);
    for byte in stream.as_bytes() {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

/// Inverse of [`encode_name`]; `None` on anything that is not our encoding.
fn decode_name(stem: &str) -> Option<String> {
    if !stem.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(stem.len() / 2);
    let stem = stem.as_bytes();
    for pair in stem.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        bytes.push((hi * 16 + lo) as u8);
    }
    String::from_utf8(bytes).ok()
}

/// Filesystem storage: one directory, `<hex(name)>.wal` + `<hex(name)>.snap`
/// per stream. Snapshot writes go through a temp file, `fsync`, and an
/// atomic rename; the directory itself is fsynced after renames so the
/// rename is durable too.
#[derive(Clone, Debug)]
pub struct DirBackend {
    root: PathBuf,
}

impl DirBackend {
    /// Opens (creating if needed) the backend rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failure.
    pub fn create(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The directory this backend persists into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn wal_path(&self, stream: &str) -> PathBuf {
        self.root.join(format!("{}.wal", encode_name(stream)))
    }

    fn snap_path(&self, stream: &str) -> PathBuf {
        self.root.join(format!("{}.snap", encode_name(stream)))
    }

    /// Best-effort directory fsync so renames/unlinks are durable. Some
    /// platforms cannot fsync directories; those errors are ignored (the
    /// data file itself is always fsynced).
    fn sync_dir(&self) {
        if let Ok(dir) = File::open(&self.root) {
            let _ = dir.sync_all();
        }
    }
}

impl StorageBackend for DirBackend {
    fn open_wal(&self, stream: &str) -> io::Result<Box<dyn WalStore>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.wal_path(stream))?;
        let meta = file.metadata()?;
        Ok(Box::new(FileWalStore {
            file,
            key: (meta.dev(), meta.ino()),
            ticket: None,
            end: 0,
            allocated: 0,
        }))
    }

    fn write_snapshot(&self, stream: &str, bytes: &[u8]) -> io::Result<()> {
        let final_path = self.snap_path(stream);
        let tmp_path = self.root.join(format!("{}.snap.tmp", encode_name(stream)));
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(bytes)?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        self.sync_dir();
        Ok(())
    }

    fn read_snapshot(&self, stream: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.snap_path(stream)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(err) => Err(err),
        }
    }

    fn list_streams(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("snap") {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if let Some(name) = decode_name(stem) {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove_stream(&self, stream: &str) -> io::Result<()> {
        for path in [
            self.snap_path(stream),
            self.wal_path(stream),
            self.root.join(format!("{}.snap.tmp", encode_name(stream))),
        ] {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(err) if err.kind() == io::ErrorKind::NotFound => {}
                Err(err) => return Err(err),
            }
        }
        self.sync_dir();
        Ok(())
    }
}

/// Growth step of a log file: appends past the allocated end extend the
/// file with zeros to the next multiple of this.
const CHUNK: u64 = 64 * 1024;

/// The zeros an extension writes; static, so growing the file allocates
/// nothing.
static ZEROS: [u8; CHUNK as usize] = [0; CHUNK as usize];

/// The handle that owns each log file's tail, by `(device, inode)`: the
/// one that last truncated it. Only the owner trims the zero tail when it
/// is dropped, so a writer replaced by a newer one on the same file (a
/// restore, an in-place heal) can never cut the newer writer's records.
static TAIL_OWNERS: Mutex<BTreeMap<(u64, u64), u64>> = Mutex::new(BTreeMap::new());

/// Source of the tickets [`TAIL_OWNERS`] records.
static NEXT_TICKET: AtomicU64 = AtomicU64::new(1);

/// A [`WalStore`] over a real file, preallocated in zero-filled
/// [`CHUNK`]s (see the module docs). Appends are positional writes at the
/// logical end; `sync` is `fdatasync`-class (`sync_data`).
///
/// A handle becomes the file's writer at its first `truncate` or `append`;
/// until then `len` and `read_all` report the file as it is.
struct FileWalStore {
    file: File,
    /// `(device, inode)`: the file's key in [`TAIL_OWNERS`].
    key: (u64, u64),
    /// This handle's ownership ticket, once it is the writer.
    ticket: Option<u64>,
    /// Logical end: where the next append lands (valid once the writer).
    end: u64,
    /// File length as this writer left it; `end..allocated` is zeros.
    allocated: u64,
}

impl FileWalStore {
    /// Makes this handle the writer and the owner of the file's tail. Runs
    /// before the file changes, so a dropped handle that still sees itself
    /// as owner under the lock never trims a newer writer's bytes.
    fn claim(&mut self) {
        let ticket =
            *self.ticket.get_or_insert_with(|| NEXT_TICKET.fetch_add(1, Ordering::Relaxed));
        TAIL_OWNERS.lock().expect("wal tail owner lock poisoned").insert(self.key, ticket);
    }
}

impl WalStore for FileWalStore {
    fn append(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.ticket.is_none() {
            self.end = self.file.metadata()?.len();
            self.allocated = self.end;
            self.claim();
        }
        let new_end = self.end + bytes.len() as u64;
        self.file.write_all_at(bytes, self.end)?;
        // An append at offset 0 is a fresh log's header: written exactly,
        // so creating a log does not pay for a chunk.
        if new_end > self.allocated && self.end > 0 {
            let boundary = new_end.next_multiple_of(CHUNK);
            self.file.write_all_at(&ZEROS[..(boundary - new_end) as usize], new_end)?;
            self.allocated = boundary;
        }
        self.allocated = self.allocated.max(new_end);
        self.end = new_end;
        Ok(bytes.len())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&mut self) -> io::Result<u64> {
        match self.ticket {
            Some(_) => Ok(self.end),
            None => Ok(self.file.metadata()?.len()),
        }
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        if self.ticket.is_some() {
            let mut bytes = vec![0; usize::try_from(self.end).map_err(io::Error::other)?];
            self.file.read_exact_at(&mut bytes, 0)?;
            return Ok(bytes);
        }
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.claim();
        self.file.set_len(len)?;
        self.end = len;
        self.allocated = len;
        self.file.sync_data()
    }
}

impl Drop for FileWalStore {
    /// The orderly close: the owning writer trims the zero tail, leaving
    /// the log byte-exact. Unsynced, like any close; a crash before the
    /// size change lands leaves a zero tail, which recovery discards.
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else { return };
        let mut owners = TAIL_OWNERS.lock().unwrap_or_else(PoisonError::into_inner);
        if owners.get(&self.key) == Some(&ticket) {
            owners.remove(&self.key);
            if self.end < self.allocated {
                let _ = self.file.set_len(self.end);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory backend with explicit crash semantics
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Prefix guaranteed to survive [`MemBackend::crash`] — advanced only
    /// by an explicit `sync`. Everything past it models bytes sitting in
    /// page cache when the power goes out.
    synced: usize,
}

#[derive(Debug, Default)]
struct MemState {
    wals: HashMap<String, MemFile>,
    snaps: HashMap<String, Vec<u8>>,
}

/// In-memory [`StorageBackend`] with an explicit crash model.
///
/// WAL bytes survive a [`crash`](MemBackend::crash) only up to the last
/// `sync`; snapshot writes are modelled as atomic (matching the
/// temp-file + rename contract of [`DirBackend`]). Cloning shares the
/// underlying state, so a "restarted server" opening the same `MemBackend`
/// clone sees exactly what survived — this is what the crash-recovery tests
/// restart against.
#[derive(Clone, Debug, Default)]
pub struct MemBackend {
    state: Arc<Mutex<MemState>>,
}

impl MemBackend {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates a process/power crash: every WAL loses the bytes not yet
    /// covered by a `sync`. Snapshots are unaffected (atomic writes).
    pub fn crash(&self) {
        let mut state = self.state.lock().expect("mem backend lock poisoned");
        for file in state.wals.values_mut() {
            file.data.truncate(file.synced);
        }
    }

    /// Runs `mutate` over the raw surviving WAL bytes of `stream` — the
    /// hook the fault-injection tests use to corrupt a log tail before
    /// recovery. No-op if the stream has no WAL.
    pub fn with_wal_bytes(&self, stream: &str, mutate: impl FnOnce(&mut Vec<u8>)) {
        let mut state = self.state.lock().expect("mem backend lock poisoned");
        if let Some(file) = state.wals.get_mut(stream) {
            mutate(&mut file.data);
            file.synced = file.synced.min(file.data.len());
        }
    }

    /// Current WAL length of `stream` in bytes (0 if absent).
    pub fn wal_len(&self, stream: &str) -> usize {
        let state = self.state.lock().expect("mem backend lock poisoned");
        state.wals.get(stream).map_or(0, |f| f.data.len())
    }
}

impl StorageBackend for MemBackend {
    fn open_wal(&self, stream: &str) -> io::Result<Box<dyn WalStore>> {
        {
            let mut state = self.state.lock().expect("mem backend lock poisoned");
            state.wals.entry(stream.to_string()).or_default();
        }
        Ok(Box::new(MemWalStore { state: Arc::clone(&self.state), key: stream.to_string() }))
    }

    fn write_snapshot(&self, stream: &str, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock().expect("mem backend lock poisoned");
        state.snaps.insert(stream.to_string(), bytes.to_vec());
        Ok(())
    }

    fn read_snapshot(&self, stream: &str) -> io::Result<Option<Vec<u8>>> {
        let state = self.state.lock().expect("mem backend lock poisoned");
        Ok(state.snaps.get(stream).cloned())
    }

    fn list_streams(&self) -> io::Result<Vec<String>> {
        let state = self.state.lock().expect("mem backend lock poisoned");
        let mut names: Vec<String> = state.snaps.keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    fn remove_stream(&self, stream: &str) -> io::Result<()> {
        let mut state = self.state.lock().expect("mem backend lock poisoned");
        state.wals.remove(stream);
        state.snaps.remove(stream);
        Ok(())
    }
}

struct MemWalStore {
    state: Arc<Mutex<MemState>>,
    key: String,
}

impl MemWalStore {
    fn with_file<T>(&mut self, f: impl FnOnce(&mut MemFile) -> T) -> T {
        let mut state = self.state.lock().expect("mem backend lock poisoned");
        f(state.wals.entry(self.key.clone()).or_default())
    }
}

impl WalStore for MemWalStore {
    fn append(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.with_file(|file| {
            file.data.extend_from_slice(bytes);
            Ok(bytes.len())
        })
    }

    fn sync(&mut self) -> io::Result<()> {
        self.with_file(|file| {
            file.synced = file.data.len();
            Ok(())
        })
    }

    fn len(&mut self) -> io::Result<u64> {
        self.with_file(|file| Ok(file.data.len() as u64))
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.with_file(|file| Ok(file.data.clone()))
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.with_file(|file| {
            let len = usize::try_from(len).unwrap_or(usize::MAX).min(file.data.len());
            file.data.truncate(len);
            file.synced = file.synced.min(len);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{
        encode_record, encode_wal_header, parse_wal, FsyncPolicy, WalHeader, WalOp, WalOpRef,
        WalWriter, WAL_HEADER_LEN,
    };

    #[test]
    fn name_encoding_round_trips() {
        for name in ["s", "stream-α/β.wal", "", "UPPER lower 0123"] {
            assert_eq!(decode_name(&encode_name(name)).as_deref(), Some(name));
        }
        assert_eq!(decode_name("zz"), None);
        assert_eq!(decode_name("abc"), None);
    }

    #[test]
    fn mem_backend_crash_discards_unsynced_bytes() {
        let backend = MemBackend::new();
        let mut wal = backend.open_wal("s").unwrap();
        wal.append(b"synced").unwrap();
        wal.sync().unwrap();
        wal.append(b" lost").unwrap();
        assert_eq!(wal.read_all().unwrap(), b"synced lost");
        backend.crash();
        assert_eq!(wal.read_all().unwrap(), b"synced");
        // Snapshots survive crashes (atomic contract).
        backend.write_snapshot("s", b"blob").unwrap();
        backend.crash();
        assert_eq!(backend.read_snapshot("s").unwrap().as_deref(), Some(&b"blob"[..]));
    }

    #[test]
    fn mem_backend_truncate_and_listing() {
        let backend = MemBackend::new();
        let mut wal = backend.open_wal("a").unwrap();
        wal.append(b"0123456789").unwrap();
        wal.sync().unwrap();
        wal.truncate(4).unwrap();
        assert_eq!(wal.len().unwrap(), 4);
        assert_eq!(wal.read_all().unwrap(), b"0123");
        backend.crash();
        assert_eq!(wal.read_all().unwrap(), b"0123", "synced watermark follows truncation");
        backend.write_snapshot("a", b"x").unwrap();
        backend.write_snapshot("b", b"y").unwrap();
        assert_eq!(backend.list_streams().unwrap(), vec!["a".to_string(), "b".to_string()]);
        backend.remove_stream("a").unwrap();
        assert_eq!(backend.list_streams().unwrap(), vec!["b".to_string()]);
    }

    /// A fresh directory under the system temp dir, unique per test thread.
    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "uns-storage-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// Length of `stream`'s log file on disk, zero tail included.
    fn file_len(backend: &DirBackend, stream: &str) -> u64 {
        std::fs::metadata(backend.wal_path(stream)).unwrap().len()
    }

    /// `count` records of `width` ids each, framed as the writer frames them.
    fn records(count: u64, width: u64) -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| {
                let ids: Vec<_> = (i * width..(i + 1) * width).map(uns_core::NodeId::new).collect();
                let mut record = Vec::new();
                encode_record(&mut record, WalOpRef::Feed(&ids));
                record
            })
            .collect()
    }

    #[test]
    fn dir_backend_round_trips_through_real_files() {
        let root = temp_root("round-trip");
        let backend = DirBackend::create(&root).unwrap();
        assert!(backend.read_snapshot("s").unwrap().is_none());
        assert!(backend.list_streams().unwrap().is_empty());

        let mut wal = backend.open_wal("stream/α").unwrap();
        wal.append(b"hello ").unwrap();
        wal.append(b"wal").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.len().unwrap(), 9);
        assert_eq!(wal.read_all().unwrap(), b"hello wal");
        wal.truncate(5).unwrap();
        assert_eq!(wal.read_all().unwrap(), b"hello");
        // Appends land after the truncation point.
        wal.append(b"!").unwrap();
        assert_eq!(wal.read_all().unwrap(), b"hello!");

        backend.write_snapshot("stream/α", b"blob-1").unwrap();
        backend.write_snapshot("stream/α", b"blob-2").unwrap();
        assert_eq!(backend.read_snapshot("stream/α").unwrap().as_deref(), Some(&b"blob-2"[..]));
        assert_eq!(backend.list_streams().unwrap(), vec!["stream/α".to_string()]);

        // A fresh handle on the *live* log sees the written bytes, then
        // only zeros: the preallocated tail, as a crash image holds it.
        let reopened = DirBackend::create(&root).unwrap();
        let live = reopened.open_wal("stream/α").unwrap().read_all().unwrap();
        assert_eq!(&live[..6], b"hello!");
        assert!(live.len() > 6 && live[6..].iter().all(|&b| b == 0));
        // After the writer's orderly close, a fresh handle sees exactly
        // the bytes written.
        drop(wal);
        let mut wal2 = reopened.open_wal("stream/α").unwrap();
        assert_eq!(wal2.read_all().unwrap(), b"hello!");

        // The same holds for a real log: the live view parses exactly as
        // the bytes written do.
        let mut log = Vec::new();
        encode_wal_header(&mut log, 1, 0);
        let mut writer = backend.open_wal("log").unwrap();
        writer.truncate(0).unwrap();
        writer.append(&log).unwrap();
        for record in records(3, 4) {
            writer.append(&record).unwrap();
            log.extend_from_slice(&record);
        }
        let live = reopened.open_wal("log").unwrap().read_all().unwrap();
        assert!(live.len() > log.len());
        assert_eq!(parse_wal(&live), parse_wal(&log));
        assert_eq!(parse_wal(&log).records.len(), 3);
        drop(writer);
        assert_eq!(reopened.open_wal("log").unwrap().read_all().unwrap(), log);

        backend.remove_stream("stream/α").unwrap();
        assert!(backend.read_snapshot("stream/α").unwrap().is_none());
        assert!(backend.list_streams().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn live_logs_grow_only_at_chunk_boundaries_and_close_byte_exact() {
        let root = temp_root("chunks");
        let backend = DirBackend::create(&root).unwrap();
        let mut writer =
            WalWriter::create(backend.open_wal("s").unwrap(), 1, 0, FsyncPolicy::PerOp).unwrap();
        // Creating a log writes its header exactly: no chunk is paid.
        assert_eq!(file_len(&backend, "s"), WAL_HEADER_LEN as u64);
        let mut sizes = Vec::new();
        for record in records(100, 128) {
            writer.append_record(&record).unwrap();
            let len = file_len(&backend, "s");
            assert_eq!(len % CHUNK, 0, "the live file grew to {len}, off a chunk boundary");
            assert!(len >= writer.len());
            sizes.push(len);
        }
        // 100 records of ~1 KiB span two chunks: the file grew exactly twice.
        sizes.dedup();
        assert_eq!(sizes, vec![CHUNK, 2 * CHUNK]);
        // A reset re-extends with fresh zeros, never recycling old bytes.
        writer.reset(100).unwrap();
        assert_eq!(file_len(&backend, "s"), WAL_HEADER_LEN as u64);
        writer.append_op(WalOpRef::Sample).unwrap();
        assert_eq!(file_len(&backend, "s"), CHUNK);
        let logical = writer.len();
        drop(writer);
        assert_eq!(file_len(&backend, "s"), logical, "the orderly close trims the zero tail");
        let parsed = parse_wal(&backend.open_wal("s").unwrap().read_all().unwrap());
        assert_eq!(parsed.header, Some(WalHeader { generation: 1, base_seq: 100 }));
        assert_eq!(parsed.records, vec![WalOp::Sample]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_second_handle_never_shrinks_a_live_log() {
        let root = temp_root("second-handle");
        let backend = DirBackend::create(&root).unwrap();
        let mut writer =
            WalWriter::create(backend.open_wal("s").unwrap(), 1, 0, FsyncPolicy::PerOp).unwrap();
        for record in records(4, 8) {
            writer.append_record(&record).unwrap();
        }
        // The generation probe and the replication attach read: open, read
        // the whole file, drop.
        for _ in 0..2 {
            let mut probe = backend.open_wal("s").unwrap();
            assert_eq!(probe.len().unwrap(), CHUNK);
            assert_eq!(parse_wal(&probe.read_all().unwrap()).records.len(), 4);
            drop(probe);
            assert_eq!(file_len(&backend, "s"), CHUNK, "a dropped reader shrank the live log");
        }
        writer.append_op(WalOpRef::Sample).unwrap();
        let logical = writer.len();
        drop(writer);
        assert_eq!(file_len(&backend, "s"), logical);
        assert_eq!(parse_wal(&backend.open_wal("s").unwrap().read_all().unwrap()).records.len(), 5);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_replaced_writer_never_cuts_the_new_writers_records() {
        let root = temp_root("replaced");
        let backend = DirBackend::create(&root).unwrap();
        // Either the old writer's logical end falls inside the new one's
        // records (the hazard: trimming there would cut them), or beyond
        // them (trimming there would re-grow the file).
        for (old_records, new_records) in [(1u64, 20u64), (20, 1)] {
            let open = || backend.open_wal("s").unwrap();
            let mut old = WalWriter::create(open(), 1, 0, FsyncPolicy::PerOp).unwrap();
            for record in records(old_records, 16) {
                old.append_record(&record).unwrap();
            }
            let mut new = WalWriter::create(open(), 2, 0, FsyncPolicy::PerOp).unwrap();
            for record in records(new_records, 16) {
                new.append_record(&record).unwrap();
            }
            let before = file_len(&backend, "s");
            drop(old);
            assert_eq!(file_len(&backend, "s"), before, "the replaced writer changed the file");
            let parsed = parse_wal(&open().read_all().unwrap());
            assert_eq!(parsed.header, Some(WalHeader { generation: 2, base_seq: 0 }));
            assert_eq!(parsed.records.len() as u64, new_records);
            assert_eq!(parsed.valid_len, new.len());
            new.append_op(WalOpRef::Sample).unwrap();
            let logical = new.len();
            drop(new);
            assert_eq!(file_len(&backend, "s"), logical, "the current writer still trims");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
