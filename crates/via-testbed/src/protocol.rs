//! Control-plane protocol between testbed clients and the controller.
//!
//! The prototype of §5.5 runs a central controller (the paper deployed it on
//! Azure) that instrumented clients contact over TCP. Messages are JSON
//! objects framed with a 4-byte big-endian length prefix — simple, debuggable
//! with standard tooling, and sufficient for a control plane that exchanges
//! one round-trip per call.

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};
use via_model::metrics::PathMetrics;

/// Maximum accepted control frame, bytes (a Report is < 1 KiB; anything
/// larger indicates a corrupt or hostile stream).
pub const MAX_FRAME: u32 = 256 * 1024;

/// One relay option in the testbed: an index into the harness's relay list.
/// (The testbed omits the direct path, as the paper's §5.5 experiment does.)
pub type RelayIndex = u16;

/// Client → controller messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Announce this client and the UDP port it receives probes on.
    Register {
        /// Client name (unique per testbed).
        name: String,
        /// UDP port the client's media socket is bound to.
        udp_port: u16,
    },
    /// Measured metrics of one probe call.
    Report {
        /// Caller name.
        caller: String,
        /// Callee name.
        callee: String,
        /// Relay used.
        relay: RelayIndex,
        /// Round number (back-to-back sweep index).
        round: u32,
        /// Measured metrics (RTT/loss/jitter over the probe stream).
        metrics: PathMetrics,
        /// True when the relay leg produced no echoes and the metrics were
        /// measured over the direct fallback path instead.
        degraded: bool,
    },
    /// The client is done with its assignments.
    Done {
        /// Client name.
        name: String,
    },
}

/// Controller → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerMsg {
    /// Registration accepted.
    Welcome,
    /// Make one probe call.
    Call {
        /// Callee's UDP address (as string, e.g. "127.0.0.1:4000").
        callee_addr: String,
        /// Relay UDP address to send through.
        relay_addr: String,
        /// Relay index (for reporting).
        relay: RelayIndex,
        /// Session id pre-registered at the relay.
        session: u16,
        /// Round number.
        round: u32,
        /// Number of probe packets.
        probes: u16,
        /// Inter-probe gap in milliseconds.
        gap_ms: u64,
        /// Callee name (for reporting).
        callee: String,
    },
    /// No more work; disconnect.
    Finished,
}

/// Errors from frame I/O.
#[derive(Debug)]
pub enum FrameError {
    /// Socket failure.
    Io(io::Error),
    /// Frame exceeded [`MAX_FRAME`].
    Oversized(u32),
    /// JSON decode failure.
    Decode(String),
    /// A read deadline elapsed before a complete frame arrived. Partial
    /// bytes stay buffered in the [`FrameConn`]; the stream is not desynced.
    Timeout,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::Decode(e) => write!(f, "frame decode error: {e}"),
            FrameError::Timeout => write!(f, "frame read deadline elapsed"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one length-prefixed JSON frame.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), FrameError> {
    // One write for prefix + body: two separate writes let Nagle hold the
    // body segment behind the prefix's delayed ACK, turning every RPC round
    // trip into tens of milliseconds on an otherwise-idle connection.
    let mut frame = Vec::new();
    encode_frame(&mut frame, msg)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Appends one length-prefixed JSON frame to `out` — the single frame
/// encoder behind [`write_frame`] and [`FrameConn::queue`]. On error
/// nothing is appended.
fn encode_frame<T: Serialize>(out: &mut Vec<u8>, msg: &T) -> Result<(), FrameError> {
    let body = serde_json::to_vec(msg).map_err(|e| FrameError::Decode(e.to_string()))?;
    let len = u32::try_from(body.len()).map_err(|_| FrameError::Oversized(u32::MAX))?;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    out.reserve(4 + body.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&body);
    Ok(())
}

/// Read granularity for frame bodies: the buffer grows by at most this much
/// per successful read, so allocation tracks bytes actually received.
const BODY_CHUNK: usize = 4096;

/// Reads one length-prefixed JSON frame.
pub fn read_frame<T: for<'de> Deserialize<'de>>(r: &mut impl Read) -> Result<T, FrameError> {
    let mut body = Vec::new();
    read_body(r, &mut body)?;
    serde_json::from_slice(&body).map_err(|e| FrameError::Decode(e.to_string()))
}

/// Reads one frame body into `body` (cleared first, capacity kept so loops
/// reuse a single allocation across frames).
///
/// The length prefix is untrusted input: a peer that writes 4 bytes claiming
/// a 256 KiB frame must not be able to force that allocation before sending
/// a single body byte. The buffer therefore grows incrementally — at most
/// [`BODY_CHUNK`] per read that actually delivered data — so memory held is
/// always proportional to bytes received, never to the claimed length.
///
/// # Errors
/// [`FrameError::Oversized`] when the prefix exceeds [`MAX_FRAME`]; an
/// `UnexpectedEof` I/O error when the peer closes mid-frame.
pub fn read_body(r: &mut impl Read, body: &mut Vec<u8>) -> Result<(), FrameError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let len = len as usize;
    body.clear();
    let mut chunk = [0u8; BODY_CHUNK];
    while body.len() < len {
        let want = (len - body.len()).min(BODY_CHUNK);
        let n = r.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the stream mid-frame",
            )));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(())
}

/// How long a write may block before the connection is declared dead.
/// One write carries at most [`OUT_FLUSH_BYTES`] of queued control frames
/// plus one more frame, so any write that stalls this long means the peer is
/// gone.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Poll interval for [`accept_deadline`], and the cap on one blocking read
/// inside [`FrameConn::read_deadline`] so the stop conditions stay live.
const POLL_SLICE: Duration = Duration::from_millis(50);

/// Connects to `addr` with a bounded timeout instead of the OS default
/// (which can be minutes).
///
/// # Errors
/// Propagates the connect failure, including `TimedOut`.
pub fn connect_deadline(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    TcpStream::connect_timeout(&addr, timeout)
}

/// Accepts one connection before `deadline`, or returns `Ok(None)` when the
/// deadline passes first. The listener is polled in non-blocking mode: a
/// plain `accept` has no timeout and can wedge the harness forever on a
/// client that never arrives.
///
/// # Errors
/// Propagates listener I/O failures.
pub fn accept_deadline(
    listener: &TcpListener,
    deadline: Instant,
) -> io::Result<Option<(TcpStream, SocketAddr)>> {
    listener.set_nonblocking(true)?;
    loop {
        // Non-blocking listener: returns WouldBlock instantly when idle.
        // via-audit: allow(socket-wait)
        match listener.accept() {
            Ok((stream, peer)) => {
                stream.set_nonblocking(false)?;
                return Ok(Some((stream, peer)));
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Room a socket read may fill: the input buffer grows by this much only
/// when it is full, so its size tracks bytes received, never a claimed
/// frame length.
const READ_CHUNK: usize = 16 * 1024;

/// Queued output that [`FrameConn::queue`] sends on its own, so a long run
/// of queued responses (a `Snapshot` can be large) never holds more than
/// this much memory before reaching the socket.
pub const OUT_FLUSH_BYTES: usize = 64 * 1024;

/// A control connection with deadline-bounded, desync-safe frame reads and
/// batched writes.
///
/// Plain `read_exact` with a socket timeout loses any partially read frame
/// when the timeout fires, desynchronizing the length-prefixed stream.
/// `FrameConn` instead accumulates bytes in an internal buffer and decodes a
/// frame only once it is complete, so a deadline can fire mid-frame and the
/// next call resumes exactly where the stream left off.
///
/// Writes go through a per-connection output buffer: [`FrameConn::queue`]
/// encodes a frame into it and [`FrameConn::flush`] sends it with one
/// `write_all`, so a peer that pipelines requests gets a whole batch of
/// responses in one syscall. [`FrameConn::write`] is `queue` + `flush`.
/// Queued bytes never wait on the peer: a read that must block flushes
/// first, and the buffer flushes itself past [`OUT_FLUSH_BYTES`].
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    /// Received bytes are `inbuf[head..tail]`; `inbuf[tail..]` is
    /// initialized room the next socket read fills in place.
    inbuf: Vec<u8>,
    head: usize,
    tail: usize,
    /// Encoded frames not yet sent.
    out: Vec<u8>,
    /// The read timeout last installed on the socket.
    read_timeout: Option<Duration>,
}

impl FrameConn {
    /// Wraps a connected stream, installing a bounded write timeout.
    ///
    /// # Errors
    /// Propagates socket-option failures.
    pub fn new(stream: TcpStream) -> io::Result<FrameConn> {
        // Control frames are small request/response pairs; Nagle coalescing
        // only adds delayed-ACK latency to them.
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(FrameConn {
            stream,
            inbuf: Vec::new(),
            head: 0,
            tail: 0,
            out: Vec::new(),
            read_timeout: None,
        })
    }

    /// Writes one frame now (bounded by the connection's write timeout),
    /// together with anything queued before it.
    ///
    /// # Errors
    /// Propagates frame encoding and socket failures.
    pub fn write<T: Serialize>(&mut self, msg: &T) -> Result<(), FrameError> {
        self.queue(msg)?;
        self.flush()
    }

    /// Encodes one frame into the output buffer without sending it, unless
    /// the buffer has passed [`OUT_FLUSH_BYTES`], in which case it is sent.
    ///
    /// # Errors
    /// Frame encoding failures (nothing is queued then), or a socket
    /// failure of the self-flush.
    pub fn queue<T: Serialize>(&mut self, msg: &T) -> Result<(), FrameError> {
        encode_frame(&mut self.out, msg)?;
        if self.out.len() >= OUT_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends every queued frame with one `write_all` (bounded by the
    /// connection's write timeout). A no-op when nothing is queued.
    ///
    /// # Errors
    /// Propagates socket failures; the queued bytes are dropped then, since
    /// a partial write leaves the stream unusable anyway.
    pub fn flush(&mut self) -> Result<(), FrameError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let sent = self.stream.write_all(&self.out);
        self.out.clear();
        sent.map_err(FrameError::Io)
    }

    /// Reads one frame, waiting at most until `deadline`. Queued output is
    /// flushed before the socket is read, so the peer never waits on
    /// responses this end is holding.
    ///
    /// # Errors
    /// [`FrameError::Timeout`] when the deadline elapses first (any partial
    /// frame stays buffered for the next call); otherwise I/O / decode
    /// failures.
    pub fn read_deadline<T: for<'de> Deserialize<'de>>(
        &mut self,
        deadline: Instant,
    ) -> Result<T, FrameError> {
        loop {
            if let Some(msg) = self.try_decode()? {
                return Ok(msg);
            }
            self.flush()?;
            let now = Instant::now();
            if now >= deadline {
                return Err(FrameError::Timeout);
            }
            let wait = deadline
                .saturating_duration_since(now)
                .min(POLL_SLICE)
                .max(Duration::from_millis(1));
            if self.read_timeout != Some(wait) {
                self.stream.set_read_timeout(Some(wait))?;
                self.read_timeout = Some(wait);
            }
            self.compact();
            match self.stream.read(&mut self.inbuf[self.tail..]) {
                Ok(0) => {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the control connection",
                    )))
                }
                Ok(n) => self.tail += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Moves the undecoded bytes to the front of the input buffer and makes
    /// sure there is room to read into.
    fn compact(&mut self) {
        if self.head > 0 {
            self.inbuf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.tail == self.inbuf.len() {
            self.inbuf.resize(self.inbuf.len() + READ_CHUNK, 0);
        }
    }

    /// Decodes one frame from the buffer if a complete one is present.
    fn try_decode<T: for<'de> Deserialize<'de>>(&mut self) -> Result<Option<T>, FrameError> {
        let Some((prefix, rest)) = self.inbuf[self.head..self.tail].split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix);
        if len > MAX_FRAME {
            return Err(FrameError::Oversized(len));
        }
        let Some(body) = rest.get(..len as usize) else {
            return Ok(None);
        };
        let msg = serde_json::from_slice(body).map_err(|e| FrameError::Decode(e.to_string()))?;
        self.head += 4 + body.len();
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_client_messages() {
        let msgs = vec![
            ClientMsg::Register {
                name: "sg-1".into(),
                udp_port: 4001,
            },
            ClientMsg::Report {
                caller: "sg-1".into(),
                callee: "uk-1".into(),
                relay: 3,
                round: 2,
                metrics: PathMetrics::new(123.0, 0.5, 4.2),
                degraded: false,
            },
            ClientMsg::Done {
                name: "sg-1".into(),
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for m in &msgs {
            let back: ClientMsg = read_frame(&mut cur).unwrap();
            assert_eq!(&back, m);
        }
    }

    #[test]
    fn roundtrip_controller_messages() {
        let m = ControllerMsg::Call {
            callee_addr: "127.0.0.1:4002".into(),
            relay_addr: "127.0.0.1:5001".into(),
            relay: 1,
            session: 9,
            round: 0,
            probes: 50,
            gap_ms: 20,
            callee: "uk-1".into(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &m).unwrap();
        let back: ControllerMsg = read_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn oversized_frame_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let err = read_frame::<ClientMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(_)));
    }

    /// A reader that hands out one byte per `read` call: the worst case for
    /// the incremental body path (maximum number of grow steps).
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn body_buffer_grows_with_received_bytes_not_the_claimed_length() {
        // A hostile 4-byte prefix claiming MAX_FRAME with no body: the
        // buffer must not balloon to the claimed size before body bytes
        // arrive. The EOF surfaces as an I/O error and the allocation stays
        // bounded by what was actually received (zero bytes here).
        let mut r = Cursor::new(MAX_FRAME.to_be_bytes().to_vec());
        let mut body = Vec::new();
        let err = read_body(&mut r, &mut body).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)));
        assert_eq!(body.len(), 0);
        assert!(
            body.capacity() < MAX_FRAME as usize / 2,
            "claimed length must not drive allocation (capacity {})",
            body.capacity()
        );
    }

    #[test]
    fn read_body_reassembles_trickled_frames_and_reuses_the_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &ControllerMsg::Welcome).unwrap();
        write_frame(&mut wire, &ControllerMsg::Finished).unwrap();
        let mut r = Trickle { data: wire, pos: 0 };
        let mut body = Vec::new();
        read_body(&mut r, &mut body).unwrap();
        let a: ControllerMsg = serde_json::from_slice(&body).unwrap();
        assert_eq!(a, ControllerMsg::Welcome);
        let cap_after_first = body.capacity();
        read_body(&mut r, &mut body).unwrap();
        let b: ControllerMsg = serde_json::from_slice(&body).unwrap();
        assert_eq!(b, ControllerMsg::Finished);
        assert!(
            body.capacity() >= cap_after_first.min(body.len()),
            "the body buffer is reused across frames"
        );
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ControllerMsg::Welcome).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame::<ControllerMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)));
    }

    #[test]
    fn garbage_is_decode_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"{{{");
        let err = read_frame::<ControllerMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Decode(_)));
    }

    #[test]
    fn accept_deadline_expires_without_a_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let t0 = Instant::now();
        let got = accept_deadline(&listener, t0 + Duration::from_millis(30)).unwrap();
        assert!(got.is_none());
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn connect_deadline_fails_fast_on_dead_port() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let t0 = Instant::now();
        let err = connect_deadline(addr, Duration::from_millis(500));
        assert!(err.is_err());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    /// The core desync-safety property: a deadline firing mid-frame must not
    /// lose the partial bytes; the completed frame decodes on a later call.
    #[test]
    fn frame_conn_survives_mid_frame_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut wire = Vec::new();
            write_frame(&mut wire, &ControllerMsg::Welcome).unwrap();
            // First half now, second half after the reader's deadline fires.
            let half = wire.len() / 2;
            s.write_all(&wire[..half]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(150));
            s.write_all(&wire[half..]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(200));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream).unwrap();
        let err = conn
            .read_deadline::<ControllerMsg>(Instant::now() + Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, FrameError::Timeout));
        let msg: ControllerMsg = conn
            .read_deadline(Instant::now() + Duration::from_secs(2))
            .unwrap();
        assert_eq!(msg, ControllerMsg::Welcome);
        writer.join().unwrap();
    }

    #[test]
    fn frame_conn_decodes_back_to_back_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(&mut s, &ControllerMsg::Welcome).unwrap();
            write_frame(&mut s, &ControllerMsg::Finished).unwrap();
            std::thread::sleep(Duration::from_millis(100));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        let a: ControllerMsg = conn.read_deadline(deadline).unwrap();
        let b: ControllerMsg = conn.read_deadline(deadline).unwrap();
        assert_eq!(a, ControllerMsg::Welcome);
        assert_eq!(b, ControllerMsg::Finished);
        writer.join().unwrap();
    }

    /// A connected (`FrameConn`, raw peer) pair on loopback.
    fn conn_pair() -> (FrameConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (FrameConn::new(stream).unwrap(), peer)
    }

    fn call_msg(round: u32) -> ControllerMsg {
        ControllerMsg::Call {
            callee_addr: "127.0.0.1:4002".into(),
            relay_addr: "127.0.0.1:5001".into(),
            relay: 1,
            session: 9,
            round,
            probes: 50,
            gap_ms: 20,
            callee: "uk-1".into(),
        }
    }

    #[test]
    fn queue_then_flush_sends_exactly_the_write_frame_bytes() {
        let (mut conn, mut peer) = conn_pair();
        let msgs = [ControllerMsg::Welcome, call_msg(3), ControllerMsg::Finished];
        let mut want = Vec::new();
        for m in &msgs {
            conn.queue(m).unwrap();
            write_frame(&mut want, m).unwrap();
        }
        assert_eq!(conn.out, want, "queued bytes are write_frame's bytes");
        conn.flush().unwrap();
        assert!(conn.out.is_empty());
        conn.write(&call_msg(4)).unwrap();
        write_frame(&mut want, &call_msg(4)).unwrap();
        let mut got = vec![0u8; want.len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn queue_flushes_itself_past_the_output_bound() {
        let (mut conn, mut peer) = conn_pair();
        // Rounds of four digits, so every frame has the same length.
        let msg = |i: usize| call_msg(1000 + u32::try_from(i).unwrap());
        let mut one = Vec::new();
        write_frame(&mut one, &msg(0)).unwrap();
        let frame_len = one.len();
        let below = (OUT_FLUSH_BYTES - 1) / frame_len;
        for i in 0..below {
            conn.queue(&msg(i)).unwrap();
        }
        assert_eq!(
            conn.out.len(),
            below * frame_len,
            "nothing sent below the bound"
        );
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; (below + 1) * frame_len];
            peer.read_exact(&mut got).unwrap();
            got
        });
        conn.queue(&msg(below)).unwrap();
        assert!(conn.out.is_empty(), "crossing the bound sends the queue");
        let mut cur = Cursor::new(reader.join().unwrap());
        for i in 0..=below {
            let m: ControllerMsg = read_frame(&mut cur).unwrap();
            assert_eq!(m, msg(i));
        }
    }

    /// A read that has to wait flushes queued output first, and a deadline
    /// that fires mid-frame keeps the partial input.
    #[test]
    fn partial_frame_survives_a_timeout_with_queued_output() {
        let (mut conn, mut peer) = conn_pair();
        conn.queue(&ControllerMsg::Welcome).unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, &call_msg(7)).unwrap();
        let half = wire.len() / 2;
        peer.write_all(&wire[..half]).unwrap();
        let err = conn
            .read_deadline::<ControllerMsg>(Instant::now() + Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, FrameError::Timeout));
        assert!(conn.out.is_empty(), "queued output goes out before a wait");
        let got: ControllerMsg = read_frame(&mut peer).unwrap();
        assert_eq!(got, ControllerMsg::Welcome);
        peer.write_all(&wire[half..]).unwrap();
        let msg: ControllerMsg = conn
            .read_deadline(Instant::now() + Duration::from_secs(2))
            .unwrap();
        assert_eq!(msg, call_msg(7));
    }

    /// The bytes left after a decoded frame are moved to the buffer's front
    /// before the next read; a hostile prefix split across that move is
    /// still caught.
    #[test]
    fn oversized_prefix_is_rejected_after_compaction() {
        let (mut conn, mut peer) = conn_pair();
        let mut wire = Vec::new();
        write_frame(&mut wire, &ControllerMsg::Welcome).unwrap();
        let bad = (MAX_FRAME + 1).to_be_bytes();
        wire.extend_from_slice(&bad[..2]);
        peer.write_all(&wire).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        let first: ControllerMsg = conn.read_deadline(deadline).unwrap();
        assert_eq!(first, ControllerMsg::Welcome);
        assert!(conn.head > 0, "the decoded frame is skipped, not drained");
        peer.write_all(&bad[2..]).unwrap();
        let err = conn.read_deadline::<ControllerMsg>(deadline).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(n) if n == MAX_FRAME + 1));
        assert_eq!(
            conn.head, 0,
            "the partial prefix was compacted to the front"
        );
    }

    #[test]
    fn frames_spanning_several_reads_decode_in_order() {
        let (mut conn, mut peer) = conn_pair();
        let mut wire = Vec::new();
        for round in 0..200 {
            write_frame(&mut wire, &call_msg(round)).unwrap();
        }
        assert!(wire.len() > READ_CHUNK, "spans more than one socket read");
        peer.write_all(&wire).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        for round in 0..200 {
            let m: ControllerMsg = conn.read_deadline(deadline).unwrap();
            assert_eq!(m, call_msg(round));
        }
    }
}
