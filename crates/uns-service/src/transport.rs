//! Byte transports the service runs over.
//!
//! The server and client speak frames ([`crate::wire`]) over any
//! [`Transport`] — a reliable, ordered byte stream. Two implementations
//! ship: [`std::net::TcpStream`] for the real networked service, and an
//! in-process bounded [`duplex`] pipe so tests can exercise the full
//! protocol path (framing, routing, backpressure) without sockets or port
//! allocation.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A reliable, ordered, bidirectional byte stream the service can run
/// over. `try_clone` yields an independently usable handle to the *same*
/// stream (the server reads requests and writes responses on separate
/// borrows of one connection).
pub trait Transport: Read + Write + Send {
    /// An independently usable handle to the same underlying stream.
    ///
    /// # Errors
    ///
    /// Propagates the underlying handle-duplication failure.
    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>>;

    /// Bounds how long a single `read` may block; `None` restores
    /// unbounded blocking. A timed-out read fails with
    /// [`io::ErrorKind::TimedOut`] (or `WouldBlock` on some platforms) and
    /// leaves the byte position of the stream unspecified — a framed peer
    /// must treat the connection as dead after a timeout. Like
    /// [`TcpStream::set_read_timeout`], the setting is shared by every
    /// clone of the same underlying stream.
    ///
    /// # Errors
    ///
    /// Propagates the underlying setsockopt-style failure.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
}

/// One direction of the in-process pipe: a bounded byte queue.
///
/// Layout: `buf[head..]` are the unread bytes. Reads and writes move whole
/// slices (`copy_from_slice` / `extend_from_slice`) — the release-mode
/// exactness tests push multi-megabyte frames through this pipe, so
/// per-byte queue churn would dominate what they measure.
#[derive(Debug)]
struct Channel {
    buf: Vec<u8>,
    head: usize,
    capacity: usize,
    /// Write ends alive (writes fail-silently into a closed read side;
    /// reads return EOF once no writer remains and the buffer drains).
    writers: usize,
    readers: usize,
}

impl Channel {
    fn pending(&self) -> usize {
        self.buf.len() - self.head
    }
}

#[derive(Debug)]
struct Shared {
    channel: Mutex<Channel>,
    readable: Condvar,
    writable: Condvar,
}

impl Shared {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            channel: Mutex::new(Channel {
                buf: Vec::new(),
                head: 0,
                capacity,
                writers: 1,
                readers: 1,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        })
    }

    fn read(&self, out: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut channel = self.channel.lock().expect("pipe lock poisoned");
        loop {
            let pending = channel.pending();
            if pending > 0 {
                let n = out.len().min(pending);
                let head = channel.head;
                out[..n].copy_from_slice(&channel.buf[head..head + n]);
                channel.head += n;
                if channel.head == channel.buf.len() {
                    // Fully drained: reset so writes append at the front.
                    channel.buf.clear();
                    channel.head = 0;
                }
                self.writable.notify_all();
                return Ok(n);
            }
            if channel.writers == 0 {
                return Ok(0); // clean EOF
            }
            channel = match deadline {
                None => self.readable.wait(channel).expect("pipe lock poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "pipe read deadline elapsed",
                        ));
                    }
                    self.readable
                        .wait_timeout(channel, deadline - now)
                        .expect("pipe lock poisoned")
                        .0
                }
            };
        }
    }

    fn write(&self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut channel = self.channel.lock().expect("pipe lock poisoned");
        loop {
            if channel.readers == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe reader gone"));
            }
            let free = channel.capacity.saturating_sub(channel.pending());
            if free > 0 {
                let n = free.min(data.len());
                if channel.head > 0 {
                    // Compact the consumed prefix before appending so the
                    // buffer never grows past capacity + one write.
                    let head = channel.head;
                    channel.buf.drain(..head);
                    channel.head = 0;
                }
                channel.buf.extend_from_slice(&data[..n]);
                self.readable.notify_all();
                return Ok(n);
            }
            channel = self.writable.wait(channel).expect("pipe lock poisoned");
        }
    }

    fn add_writer(&self) {
        self.channel.lock().expect("pipe lock poisoned").writers += 1;
    }

    fn add_reader(&self) {
        self.channel.lock().expect("pipe lock poisoned").readers += 1;
    }

    fn drop_writer(&self) {
        let mut channel = self.channel.lock().expect("pipe lock poisoned");
        channel.writers -= 1;
        if channel.writers == 0 {
            self.readable.notify_all(); // blocked readers see EOF
        }
    }

    fn drop_reader(&self) {
        let mut channel = self.channel.lock().expect("pipe lock poisoned");
        channel.readers -= 1;
        if channel.readers == 0 {
            self.writable.notify_all(); // blocked writers see BrokenPipe
        }
    }
}

/// One end of an in-process duplex pipe (see [`duplex`]).
///
/// Blocking semantics mirror a socket: reads block until data or EOF
/// (every peer handle dropped), writes block while the peer's receive
/// buffer is full and fail with `BrokenPipe` once no reader remains.
#[derive(Debug)]
pub struct PipeTransport {
    /// Direction this end reads from.
    incoming: Arc<Shared>,
    /// Direction this end writes to.
    outgoing: Arc<Shared>,
    /// Read timeout in nanoseconds (0 = block forever), shared across
    /// clones of this end like a socket's `SO_RCVTIMEO`.
    read_timeout_nanos: Arc<AtomicU64>,
}

/// Creates an in-process duplex byte pipe with `capacity` bytes of buffer
/// per direction. The two returned ends are full [`Transport`]s: bytes
/// written to one are read from the other.
pub fn duplex(capacity: usize) -> (PipeTransport, PipeTransport) {
    let a_to_b = Shared::new(capacity.max(1));
    let b_to_a = Shared::new(capacity.max(1));
    (
        PipeTransport {
            incoming: Arc::clone(&b_to_a),
            outgoing: Arc::clone(&a_to_b),
            read_timeout_nanos: Arc::new(AtomicU64::new(0)),
        },
        PipeTransport {
            incoming: a_to_b,
            outgoing: b_to_a,
            read_timeout_nanos: Arc::new(AtomicU64::new(0)),
        },
    )
}

impl Read for PipeTransport {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let nanos = self.read_timeout_nanos.load(Ordering::Relaxed);
        let timeout = (nanos > 0).then(|| Duration::from_nanos(nanos));
        self.incoming.read(out, timeout)
    }
}

impl Write for PipeTransport {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.outgoing.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Transport for PipeTransport {
    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
        // This end reads `incoming` and writes `outgoing`; a clone adds
        // one reader handle to the former and one writer to the latter.
        self.incoming.add_reader();
        self.outgoing.add_writer();
        Ok(Box::new(PipeTransport {
            incoming: Arc::clone(&self.incoming),
            outgoing: Arc::clone(&self.outgoing),
            read_timeout_nanos: Arc::clone(&self.read_timeout_nanos),
        }))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        let nanos = match timeout {
            None => 0,
            Some(t) if t.is_zero() => {
                // Mirror `TcpStream`: a zero timeout is invalid, not "no
                // timeout" — callers must pass `None` for that.
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "zero read timeout (use None to disable)",
                ));
            }
            Some(t) => u64::try_from(t.as_nanos()).unwrap_or(u64::MAX).max(1),
        };
        self.read_timeout_nanos.store(nanos, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for PipeTransport {
    fn drop(&mut self) {
        self.incoming.drop_reader();
        self.outgoing.drop_writer();
    }
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
        (**self).try_clone_transport()
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        (**self).set_read_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn bytes_flow_both_ways() {
        let (mut a, mut b) = duplex(16);
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn full_buffer_blocks_until_drained() {
        let (mut a, mut b) = duplex(4);
        a.write_all(b"1234").unwrap();
        let writer = std::thread::spawn(move || {
            a.write_all(b"5678").unwrap(); // blocks until b reads
            a
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut buf = [0u8; 8];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"12345678");
        drop(writer.join().unwrap());
    }

    #[test]
    fn dropping_the_peer_gives_eof_and_broken_pipe() {
        let (mut a, b) = duplex(8);
        drop(b);
        let mut buf = [0u8; 1];
        assert_eq!(a.read(&mut buf).unwrap(), 0); // EOF
        assert!(a.write_all(b"x").is_err()); // BrokenPipe
    }

    #[test]
    fn read_timeout_fires_and_clears() {
        let (mut a, mut b) = duplex(8);
        a.set_read_timeout(Some(std::time::Duration::from_millis(10))).unwrap();
        let mut buf = [0u8; 1];
        let err = a.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        // Data present: the timeout never triggers.
        b.write_all(b"x").unwrap();
        assert_eq!(a.read(&mut buf).unwrap(), 1);
        // Cleared: the read blocks until data arrives again.
        a.set_read_timeout(None).unwrap();
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            a.read(&mut buf).map(|n| (n, buf[0]))
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        b.write_all(b"y").unwrap();
        assert_eq!(reader.join().unwrap().unwrap(), (1, b'y'));
        // Zero is rejected like TcpStream does.
        assert!(b.set_read_timeout(Some(std::time::Duration::ZERO)).is_err());
    }

    #[test]
    fn cloned_handles_keep_the_pipe_alive() {
        let (mut a, b) = duplex(8);
        let b2 = b.try_clone_transport().unwrap();
        drop(b);
        // b2 still holds the read side open: no EOF, writes succeed.
        a.write_all(b"hi").unwrap();
        let mut c = b2;
        let mut buf = [0u8; 2];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        drop(c);
        assert!(a.write_all(b"x").is_err());
    }
}
