//! All socket I/O for the service, in one file.
//!
//! This is the crate's designated I/O sink under lint rule I1: every
//! `std::io` / `std::net` touch lives here, and the rest of the crate
//! (scheduler, job machine, daemon logic, client) works with the typed
//! [`LineReader`] / [`ConnWriter`] handles. That keeps the "what can
//! happen to a socket" surface auditable in one place — the same
//! confinement discipline the core crate applies to its telemetry sinks.

use sfq_partition::witness::{self, Mutex};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// One read attempt on a connection.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadLine {
    /// A complete frame line (without the newline).
    Line(String),
    /// The configured read timeout elapsed with no complete line; the
    /// connection is still healthy. Lets reader loops poll shutdown flags.
    Timeout,
    /// The peer closed the connection (or it broke).
    Eof,
}

/// Buffered line reader over a socket.
#[derive(Debug)]
pub struct LineReader {
    reader: BufReader<TcpStream>,
    /// Partial line carried across timeout ticks. Bytes, not a `String`:
    /// `read_until` keeps already-consumed bytes in its buffer when a read
    /// times out mid-line, whereas `read_line`'s UTF-8 guard would discard
    /// them.
    partial: Vec<u8>,
}

impl LineReader {
    fn new(stream: TcpStream) -> Self {
        LineReader {
            reader: BufReader::new(stream),
            partial: Vec::new(),
        }
    }

    /// Sets (or clears) the read timeout that turns blocking reads into
    /// [`ReadLine::Timeout`] ticks.
    ///
    /// # Errors
    ///
    /// Propagates the socket error, e.g. on a closed descriptor.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Reads the next frame line.
    pub fn next_line(&mut self) -> ReadLine {
        loop {
            match self.reader.read_until(b'\n', &mut self.partial) {
                Ok(n) => {
                    if self.partial.last() == Some(&b'\n') {
                        let bytes = std::mem::take(&mut self.partial);
                        let mut line = String::from_utf8_lossy(&bytes).into_owned();
                        line.truncate(line.trim_end_matches(['\n', '\r']).len());
                        return ReadLine::Line(line);
                    }
                    // No delimiter means EOF. A trailing unterminated
                    // fragment still parses as a final frame; a bare EOF
                    // ends the connection.
                    if n == 0 && self.partial.is_empty() {
                        return ReadLine::Eof;
                    }
                    if n == 0 {
                        let bytes = std::mem::take(&mut self.partial);
                        return ReadLine::Line(String::from_utf8_lossy(&bytes).into_owned());
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ReadLine::Timeout;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadLine::Eof,
            }
        }
    }
}

#[derive(Debug)]
struct WriterState {
    stream: TcpStream,
    /// Reused frame buffer: the line and its newline are assembled here and
    /// leave in one `write_all`, so a frame never splits into a body write
    /// and a one-byte newline segment.
    frame: Vec<u8>,
    /// Sticky: once a write fails the connection is considered gone and
    /// every further send is a silent no-op. Job execution never depends
    /// on a deliverable client — results are simply dropped.
    dead: bool,
}

/// Shared, thread-safe frame writer for one connection.
///
/// Clones share the socket: the connection handler and any number of
/// worker/progress threads interleave whole frames (the mutex spans the
/// one write of a frame, so frames never tear).
#[derive(Debug, Clone)]
pub struct ConnWriter {
    inner: Arc<Mutex<WriterState>>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            inner: Arc::new(witness::mutex(
                "serviced:connwriter::inner",
                WriterState {
                    stream,
                    frame: Vec::new(),
                    dead: false,
                },
            )),
        }
    }

    /// Sends one frame line (newline appended) in a single write. Returns
    /// whether the connection still looked alive.
    pub fn send_line(&self, line: &str) -> bool {
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let state = &mut *guard;
        if state.dead {
            return false;
        }
        state.frame.clear();
        state.frame.extend_from_slice(line.as_bytes());
        state.frame.push(b'\n');
        let ok = state.stream.write_all(&state.frame).is_ok();
        if !ok {
            state.dead = true;
        }
        ok
    }

    /// Whether a send has already failed on this connection.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dead
    }
}

/// The daemon's listening socket.
#[derive(Debug)]
pub struct Listener {
    listener: TcpListener,
}

impl Listener {
    /// Binds to `addr` (`127.0.0.1:0` for an ephemeral test port).
    ///
    /// # Errors
    ///
    /// Propagates bind failures (port in use, permission).
    pub fn bind(addr: &str) -> std::io::Result<Listener> {
        Ok(Listener {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts one connection, applying `read_timeout` so the daemon's
    /// per-connection reader loop can poll its shutdown flag.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn accept(
        &self,
        read_timeout: Option<Duration>,
    ) -> std::io::Result<(LineReader, ConnWriter)> {
        let (stream, _peer) = self.listener.accept()?;
        split(stream, read_timeout)
    }
}

/// Configures a fresh connection and splits it into its two halves.
///
/// Nagle is off (`TCP_NODELAY`): every frame is a whole line leaving in
/// one write, so coalescing can only delay it. With Nagle on, a small
/// frame sent while an earlier one is unacknowledged waits for the peer's
/// delayed ACK (~40 ms on Linux).
fn split(
    stream: TcpStream,
    read_timeout: Option<Duration>,
) -> std::io::Result<(LineReader, ConnWriter)> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)?;
    let write_half = stream.try_clone()?;
    Ok((LineReader::new(stream), ConnWriter::new(write_half)))
}

/// Connects a client to a daemon.
///
/// # Errors
///
/// Propagates connect/clone failures.
pub fn connect<A: ToSocketAddrs>(
    addr: A,
    read_timeout: Option<Duration>,
) -> std::io::Result<(LineReader, ConnWriter)> {
    split(TcpStream::connect(addr)?, read_timeout)
}

/// Opens and immediately drops a connection to `addr` — used by drain to
/// wake an accept loop blocked in [`Listener::accept`].
pub fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_cross_the_socket_whole() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut reader, writer) = listener.accept(None).unwrap();
            while let ReadLine::Line(line) = reader.next_line() {
                writer.send_line(&format!("echo {line}"));
            }
        });
        let (mut reader, writer) = connect(addr, None).unwrap();
        assert!(writer.send_line("one"));
        assert!(writer.send_line("two {\"k\":1}"));
        assert_eq!(reader.next_line(), ReadLine::Line("echo one".into()));
        assert_eq!(
            reader.next_line(),
            ReadLine::Line("echo two {\"k\":1}".into())
        );
        drop(reader);
        drop(writer);
        server.join().unwrap();
    }

    fn nodelay_on_both_halves(reader: &LineReader, writer: &ConnWriter) -> bool {
        let read_half = reader.reader.get_ref().nodelay().unwrap();
        let write_half = writer.inner.lock().unwrap().stream.nodelay().unwrap();
        read_half && write_half
    }

    #[test]
    fn nagle_is_off_on_both_ends() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (client_reader, client_writer) = connect(addr, None).unwrap();
        let (server_reader, server_writer) = listener.accept(None).unwrap();
        assert!(nodelay_on_both_halves(&client_reader, &client_writer));
        assert!(nodelay_on_both_halves(&server_reader, &server_writer));
    }

    #[test]
    fn large_frames_arrive_whole() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut reader, _writer) = listener.accept(None).unwrap();
            (reader.next_line(), reader.next_line())
        });
        let (_reader, writer) = connect(addr, None).unwrap();
        // Past 64 KiB, and not a multiple of any buffer size.
        let big: String = (0..70_001u32)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        assert!(writer.send_line(&big));
        assert!(writer.send_line("after"));
        let (first, second) = server.join().unwrap();
        assert_eq!(first, ReadLine::Line(big));
        assert_eq!(second, ReadLine::Line("after".into()));
    }

    #[test]
    fn timeout_ticks_do_not_lose_data() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut reader, _writer) = listener.accept(Some(Duration::from_millis(10))).unwrap();
            let mut ticks = 0;
            loop {
                match reader.next_line() {
                    ReadLine::Line(line) => return (ticks, line),
                    ReadLine::Timeout => ticks += 1,
                    ReadLine::Eof => panic!("peer vanished"),
                }
            }
        });
        let (_reader, writer) = connect(addr, None).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert!(writer.send_line("late"));
        let (ticks, line) = server.join().unwrap();
        assert!(ticks >= 1, "reader observed timeout ticks");
        assert_eq!(line, "late");
    }

    #[test]
    fn writer_death_is_sticky_and_silent() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (_reader, writer) = connect(addr, None).unwrap();
        let (server_reader, server_writer) = listener.accept(None).unwrap();
        // Both halves share the fd via try_clone; drop both to close it.
        drop(server_reader);
        drop(server_writer);
        // The peer is gone; sends eventually fail and then stay failed.
        let mut saw_dead = false;
        for _ in 0..100 {
            if !writer.send_line("into the void") {
                saw_dead = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(saw_dead, "send to a closed peer must eventually fail");
        assert!(writer.is_dead());
        assert!(!writer.send_line("still dead"));
    }

    #[test]
    fn eof_on_peer_close() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (reader, writer) = connect(addr, None).unwrap();
        let (mut server_reader, _sw) = listener.accept(None).unwrap();
        drop(reader);
        drop(writer);
        assert_eq!(server_reader.next_line(), ReadLine::Eof);
    }
}
