//! Byte transports the service runs over.
//!
//! The server and client speak frames ([`crate::wire`]) over any
//! [`Transport`] — a reliable, ordered byte stream. Two implementations
//! ship: [`std::net::TcpStream`] for the real networked service, and
//! [`std::os::unix::net::UnixStream`], whose socket pairs back
//! [`crate::server::Server::connect_in_process`] so tests exercise the
//! full protocol path (framing, routing, backpressure) over kernel
//! byte-stream semantics without port allocation.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

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

impl Transport for UnixStream {
    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
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
    use std::thread;

    /// The behaviour `ResilientClient`'s `op_timeout` and the
    /// `try_clone_transport` users (`FaultTransport`,
    /// `ServiceClient::split_replication`) rely on.
    #[test]
    fn unix_stream_pair_meets_the_transport_contract() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        let mut a2 = a.try_clone_transport().unwrap();
        let mut buf = [0u8; 2];
        // A timeout set on one handle bounds reads on its clone.
        Transport::set_read_timeout(&a, Some(Duration::from_millis(10))).unwrap();
        let kind = a2.read(&mut buf).unwrap_err().kind();
        assert!(matches!(kind, io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock), "{kind:?}");
        // Zero is rejected; `None` clears, so the read blocks until data arrives.
        assert!(Transport::set_read_timeout(&a, Some(Duration::ZERO)).is_err());
        Transport::set_read_timeout(&a, None).unwrap();
        let reader = thread::spawn(move || {
            let mut buf = [0u8; 1];
            let n = a2.read(&mut buf).unwrap();
            (n, buf[0])
        });
        thread::sleep(Duration::from_millis(30));
        b.write_all(b"y").unwrap();
        assert_eq!(reader.join().unwrap(), (1, b'y'));
        // A surviving clone keeps the peer alive: no EOF, writes succeed.
        let mut b2 = b.try_clone_transport().unwrap();
        drop(b);
        a.write_all(b"hi").unwrap();
        b2.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        Transport::set_read_timeout(&a, Some(Duration::from_millis(10))).unwrap();
        assert!(a.read(&mut buf).is_err(), "EOF while a peer clone is alive");
        // Every peer handle gone: reads see EOF, writes fail.
        drop(b2);
        assert_eq!(a.read(&mut buf).unwrap(), 0);
        assert!(a.write_all(b"x").is_err());
    }
}
