//! Line transports.
//!
//! The runtime side of Figure 1's RPC arrows. A [`Transport`] carries
//! newline-delimited JSON both ways; [`TcpTransport`] wraps a
//! connected socket for the client side, and
//! [`crate::ServiceTransport`] is the in-process one (debugger and
//! simulation in one process, like the native ABI path of §3.4).
//!
//! Serving lives in [`crate::service`]: a [`crate::DebugService`]
//! owns the runtime on its own thread and fans out to any number of
//! sessions ([`crate::TcpDebugServer`] for sockets,
//! [`crate::ServiceHandle::connect`] for in-process, and
//! [`crate::serve`] for the embedded single-debugger case).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// What a bounded-wait receive produced (see
/// [`Transport::recv_timeout`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// One complete line arrived.
    Line(String),
    /// Nothing arrived within the timeout; the peer may still speak.
    TimedOut,
    /// The peer is gone.
    Closed,
}

/// Bidirectional line transport.
pub trait Transport {
    /// Receives the next line; `None` when the peer is gone.
    fn recv(&mut self) -> Option<String>;

    /// Receives the next line, giving up after `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome;

    /// Sends one line.
    ///
    /// # Errors
    ///
    /// Returns an error string when the peer is unreachable.
    fn send(&mut self, line: &str) -> Result<(), String>;
}

/// What one [`LineReader::read_line`] attempt produced.
#[derive(Debug)]
pub(crate) enum ReadLine {
    /// One complete line (newline stripped).
    Line(String),
    /// The underlying read hit its timeout; any partial line read so
    /// far is retained for the next attempt.
    TimedOut,
    /// Clean end of stream with no pending data.
    Eof,
    /// The current line exceeded the configured cap before its newline
    /// arrived. The connection should be torn down: the framer cannot
    /// resynchronize mid-line.
    TooLong,
    /// A non-timeout I/O failure. Connection fronts treat it as
    /// terminal without inspecting it; the payload exists for tests
    /// and debug formatting.
    Err(#[cfg_attr(not(test), allow(dead_code))] std::io::Error),
}

/// Incremental newline framer over a raw [`Read`].
///
/// `BufReader::read_line` has two failure modes this replaces: a read
/// timeout mid-line *discards* the partial line accumulated so far
/// (its internal `String` lives on the caller's stack), and nothing
/// bounds the line length — one peer sending an endless unterminated
/// line grows server memory without limit. This framer keeps partial
/// data across [`ReadLine::TimedOut`] and reports [`ReadLine::TooLong`]
/// at the cap instead of allocating on.
#[derive(Debug)]
pub(crate) struct LineReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for a newline (avoids re-scanning
    /// the prefix after every partial read).
    scanned: usize,
    max_len: usize,
    eof: bool,
}

impl LineReader {
    /// Creates a framer bounding any single line at `max_len` bytes.
    pub(crate) fn new(max_len: usize) -> LineReader {
        LineReader {
            buf: Vec::new(),
            scanned: 0,
            max_len: max_len.max(1),
            eof: false,
        }
    }

    /// Reads until one complete line, EOF, a timeout, or the length
    /// cap. A trailing unterminated line at EOF is delivered as a final
    /// [`ReadLine::Line`].
    pub(crate) fn read_line(&mut self, src: &mut impl Read) -> ReadLine {
        loop {
            if let Some(pos) = self.buf[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|p| self.scanned + p)
            {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                return ReadLine::Line(String::from_utf8_lossy(&line).into_owned());
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.max_len {
                return ReadLine::TooLong;
            }
            if self.eof {
                if self.buf.is_empty() {
                    return ReadLine::Eof;
                }
                let line = std::mem::take(&mut self.buf);
                self.scanned = 0;
                return ReadLine::Line(String::from_utf8_lossy(&line).into_owned());
            }
            let mut chunk = [0u8; 4096];
            match src.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        return ReadLine::TimedOut
                    }
                    std::io::ErrorKind::Interrupted => {}
                    _ => return ReadLine::Err(e),
                },
            }
        }
    }
}

/// Line cap for the *client-side* TCP transport. Server responses can
/// legitimately be large (a hierarchy dump, a deep batch), so this is
/// far above the server's inbound-request cap — it only exists so a
/// garbage-spewing peer cannot exhaust client memory.
const CLIENT_MAX_LINE: usize = 64 << 20;

/// TCP transport (newline-delimited JSON).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    writer: TcpStream,
    lines: LineReader,
}

impl TcpTransport {
    /// Wraps a connected stream.
    ///
    /// # Errors
    ///
    /// Fails if the stream cannot be cloned.
    pub fn new(stream: TcpStream) -> std::io::Result<TcpTransport> {
        // One JSON line per message: without TCP_NODELAY, Nagle's
        // algorithm holds each small request back until the previous
        // reply's ACK (~40ms per round-trip on loopback).
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(TcpTransport {
            stream,
            writer,
            lines: LineReader::new(CLIENT_MAX_LINE),
        })
    }
}

impl Transport for TcpTransport {
    fn recv(&mut self) -> Option<String> {
        if self.stream.set_read_timeout(None).is_err() {
            return None;
        }
        loop {
            match self.lines.read_line(&mut self.stream) {
                ReadLine::Line(line) => return Some(line),
                // No timeout is set; a spurious wakeup just retries.
                ReadLine::TimedOut => {}
                ReadLine::Eof | ReadLine::TooLong | ReadLine::Err(_) => return None,
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return RecvOutcome::TimedOut;
            };
            // set_read_timeout(Some(0)) is an invalid argument; clamp.
            let remaining = remaining.max(Duration::from_millis(1));
            if self.stream.set_read_timeout(Some(remaining)).is_err() {
                return RecvOutcome::Closed;
            }
            match self.lines.read_line(&mut self.stream) {
                ReadLine::Line(line) => return RecvOutcome::Line(line),
                ReadLine::TimedOut => {}
                ReadLine::Eof | ReadLine::TooLong | ReadLine::Err(_) => return RecvOutcome::Closed,
            }
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer
            .write_all(framed.as_bytes())
            .and_then(|_| self.writer.flush())
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_reader_preserves_partial_lines_across_timeouts() {
        // A Read that yields data in dribbles with timeouts between.
        struct Dribble {
            chunks: Vec<Result<Vec<u8>, std::io::ErrorKind>>,
        }
        impl Read for Dribble {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.chunks.pop() {
                    Some(Ok(bytes)) => {
                        buf[..bytes.len()].copy_from_slice(&bytes);
                        Ok(bytes.len())
                    }
                    Some(Err(kind)) => Err(kind.into()),
                    None => Ok(0),
                }
            }
        }
        let mut src = Dribble {
            chunks: vec![
                Ok(b"ail\n".to_vec()),
                Err(std::io::ErrorKind::WouldBlock),
                Ok(b"{\"t".to_vec()),
            ],
        };
        let mut lines = LineReader::new(1024);
        assert!(matches!(lines.read_line(&mut src), ReadLine::TimedOut));
        match lines.read_line(&mut src) {
            ReadLine::Line(l) => assert_eq!(l, "{\"tail"),
            other => panic!("expected line, got {other:?}"),
        }
        assert!(matches!(lines.read_line(&mut src), ReadLine::Eof));
    }

    #[test]
    fn line_reader_surfaces_hard_io_errors() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::ConnectionReset.into())
            }
        }
        let mut lines = LineReader::new(64);
        match lines.read_line(&mut Broken) {
            ReadLine::Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn line_reader_caps_unterminated_lines() {
        let mut src = std::io::repeat(b'x');
        let mut lines = LineReader::new(64);
        assert!(matches!(lines.read_line(&mut src), ReadLine::TooLong));
    }

    #[test]
    fn line_reader_delivers_trailing_partial_at_eof() {
        let mut src = std::io::Cursor::new(b"a\r\nb".to_vec());
        let mut lines = LineReader::new(64);
        match lines.read_line(&mut src) {
            ReadLine::Line(l) => assert_eq!(l, "a"),
            other => panic!("expected line, got {other:?}"),
        }
        match lines.read_line(&mut src) {
            ReadLine::Line(l) => assert_eq!(l, "b"),
            other => panic!("expected line, got {other:?}"),
        }
        assert!(matches!(lines.read_line(&mut src), ReadLine::Eof));
    }
}
