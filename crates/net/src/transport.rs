//! Sequenced byte transports: ordered, framed, reconnectable circuits.
//!
//! The Locus layer the paper assumes (§7.1) gives the DSM protocol
//! ordered, non-duplicated delivery between each pair of sites. This
//! module abstracts that contract behind one narrow trait,
//! [`SequencedTransport`], so every runtime speaks it unchanged over
//! three very different wires:
//!
//! * [`ChannelNet`] — in-process `mpsc` channels (the original host
//!   runtime wire; zero configuration, never reconnects);
//! * [`StreamTransport`] over [`Endpoint::Uds`] — Unix-domain sockets
//!   between OS processes on one machine;
//! * [`StreamTransport`] over [`Endpoint::Tcp`] — TCP sockets.
//!
//! Stream transports frame messages with the [`crate::frame`] codec and
//! open every connection with an incarnation-stamped [`crate::frame::Hello`].
//! On the receive side a [`SequencedIn`] layers the existing
//! [`CircuitTable`] gap/duplicate verdicts on top: duplicates are
//! dropped, frames from a superseded incarnation are dropped (the
//! restarted process severed those circuits), and a gap — bytes lost
//! across a reconnect — releases the frame after advancing the circuit,
//! leaving recovery to the protocol's retransmit chains (PR 3), which
//! over these wires finally do real work.

use std::collections::HashMap;
use std::io::{
    Read,
    Write,
};
use std::net::{
    TcpListener,
    TcpStream,
};
use std::os::unix::net::{
    UnixListener,
    UnixStream,
};
use std::path::PathBuf;
use std::sync::atomic::{
    AtomicBool,
    AtomicU64,
    Ordering,
};
use std::sync::mpsc::{
    channel,
    Receiver,
    RecvTimeoutError,
    Sender,
};
use std::sync::Arc;
use std::time::{
    Duration,
    Instant,
};

use mirage_types::SiteId;

use crate::circuit::{
    CircuitTable,
    Verdict,
};
use crate::frame::{
    decode_hello,
    encode_frame,
    encode_hello,
    FrameDecoder,
    Hello,
    HELLO_LEN,
};

/// A frame delivered by a transport, already sequenced: in order per
/// peer, never a duplicate, never from a stale incarnation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerFrame {
    /// The sending site.
    pub from: SiteId,
    /// The protocol message bytes.
    pub payload: Vec<u8>,
}

/// What a [`SequencedTransport::recv_timeout`] call produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportEvent {
    /// An in-order frame from a peer.
    Frame(PeerFrame),
    /// Nothing arrived within the timeout.
    Timeout,
    /// The transport can never deliver again (every peer endpoint is
    /// gone); the kernel servicing it should shut down.
    Closed,
}

/// Delivery and filtering counters, mirrored into the host metrics
/// registry as `wire.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames handed to the wire.
    pub tx_frames: u64,
    /// Encoded frame bytes handed to the wire (including headers).
    pub tx_bytes: u64,
    /// Frames the send path dropped because the peer was unreachable
    /// even after a reconnect attempt (protocol retries recover).
    pub tx_dropped: u64,
    /// In-order frames delivered.
    pub rx_frames: u64,
    /// Payload bytes delivered.
    pub rx_bytes: u64,
    /// Duplicate frames discarded by the circuit check.
    pub rx_dup: u64,
    /// Frames discarded for carrying a superseded incarnation.
    pub rx_stale: u64,
    /// Sequence gaps accepted (messages declared lost across a
    /// reconnect before this frame was released).
    pub rx_gap: u64,
    /// Outbound connections (re)established.
    pub reconnects: u64,
}

/// An ordered, framed, reconnectable byte circuit fabric for one site.
///
/// The contract every implementation honors:
///
/// * frames from one peer are delivered in send order, never duplicated
///   (the [`SequencedIn`] filter enforces this even if the wire below
///   reconnects mid-stream);
/// * a frame may be silently lost when a connection breaks — loss is
///   the protocol retry layer's job, not the transport's;
/// * frames from an earlier incarnation of a peer are never delivered
///   once a later incarnation has been heard from.
pub trait SequencedTransport: Send {
    /// The site this transport serves.
    fn site(&self) -> SiteId;

    /// This process's incarnation (0 for in-process transports).
    fn incarnation(&self) -> u64;

    /// Queues `payload` toward `to` on that peer's circuit. Best-effort:
    /// an unreachable peer costs a reconnect attempt, then the frame is
    /// dropped and counted.
    fn send(&mut self, to: SiteId, payload: &[u8]);

    /// Waits up to `timeout` for the next in-order frame.
    fn recv_timeout(&mut self, timeout: Duration) -> TransportEvent;

    /// Delivery/filtering counters so far.
    fn stats(&self) -> TransportStats;
}

/// How a [`SequencedIn`] classified an arriving frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InVerdict {
    /// Deliver: the next expected frame on the circuit.
    Deliver,
    /// Deliver, after declaring this many earlier frames lost (a
    /// reconnect dropped them; the protocol retry chains re-drive).
    DeliverAfterGap(u64),
    /// Drop: already delivered (reconnect replay or wire duplicate).
    DropDuplicate,
    /// Drop: sent by a superseded incarnation of the peer.
    DropStale,
}

/// The receive-side sequencing filter: per-peer incarnation tracking
/// with [`CircuitTable`] verdicts layered on top.
#[derive(Debug, Default)]
pub struct SequencedIn {
    circuits: CircuitTable,
    incarnations: HashMap<SiteId, u64>,
}

impl SequencedIn {
    /// An empty filter; circuits materialize on first frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies a frame stamped (`from`, `incarnation`, `seq`) and
    /// advances the circuit state for everything except drops.
    pub fn accept(&mut self, from: SiteId, incarnation: u64, seq: u64) -> InVerdict {
        match self.incarnations.get(&from).copied() {
            Some(cur) if incarnation < cur => return InVerdict::DropStale,
            Some(cur) if incarnation > cur => {
                // The peer restarted: sever the old circuit entirely.
                self.circuits.reset_peer(from);
                self.incarnations.insert(from, incarnation);
            }
            Some(_) => {}
            None => {
                self.incarnations.insert(from, incarnation);
            }
        }
        match self.circuits.check_seq(from, seq) {
            Verdict::InOrder => InVerdict::Deliver,
            Verdict::Duplicate => InVerdict::DropDuplicate,
            Verdict::Gap { expected, got } => {
                // A stream below us never reorders, so a gap means the
                // missing frames died with a broken connection. Declare
                // them lost and release this frame.
                self.circuits.advance_to(from, got + 1);
                InVerdict::DeliverAfterGap(got - expected)
            }
        }
    }
}

/// A raw frame as reader threads and channel peers hand it over, before
/// the sequencing filter has ruled on it.
#[derive(Debug)]
struct RawFrame {
    from: SiteId,
    incarnation: u64,
    seq: u64,
    payload: Vec<u8>,
}

// ---------------------------------------------------------------------
// In-process channel wire.
// ---------------------------------------------------------------------

/// Factory for the in-process channel wire: one fully-connected set of
/// [`ChannelTransport`]s, one per site.
pub struct ChannelNet;

impl ChannelNet {
    /// Builds `n` mutually-connected channel transports.
    pub fn fabric(n: usize) -> Vec<ChannelTransport> {
        let pairs: Vec<(Sender<RawFrame>, Receiver<RawFrame>)> =
            (0..n).map(|_| channel()).collect();
        let senders: Vec<Sender<RawFrame>> = pairs.iter().map(|(s, _)| s.clone()).collect();
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (_, rx))| ChannelTransport {
                site: SiteId(i as u16),
                peers: senders.clone(),
                rx,
                out: CircuitTable::new(),
                inbound: SequencedIn::new(),
                stats: TransportStats::default(),
            })
            .collect()
    }
}

/// The original host-runtime wire: in-process `mpsc` channels, now
/// speaking the same sequenced-circuit contract as the socket wires.
pub struct ChannelTransport {
    site: SiteId,
    peers: Vec<Sender<RawFrame>>,
    rx: Receiver<RawFrame>,
    out: CircuitTable,
    inbound: SequencedIn,
    stats: TransportStats,
}

impl SequencedTransport for ChannelTransport {
    fn site(&self) -> SiteId {
        self.site
    }

    fn incarnation(&self) -> u64 {
        0
    }

    fn send(&mut self, to: SiteId, payload: &[u8]) {
        let seq = self.out.stamp_seq(to);
        self.stats.tx_frames += 1;
        self.stats.tx_bytes += (crate::frame::FRAME_HEADER + 4 + payload.len()) as u64;
        // A dead peer during shutdown is fine.
        if self.peers[to.index()]
            .send(RawFrame { from: self.site, incarnation: 0, seq, payload: payload.to_vec() })
            .is_err()
        {
            self.stats.tx_dropped += 1;
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> TransportEvent {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(raw) => match self.inbound.accept(raw.from, raw.incarnation, raw.seq) {
                    InVerdict::Deliver | InVerdict::DeliverAfterGap(_) => {
                        self.stats.rx_frames += 1;
                        self.stats.rx_bytes += raw.payload.len() as u64;
                        return TransportEvent::Frame(PeerFrame {
                            from: raw.from,
                            payload: raw.payload,
                        });
                    }
                    InVerdict::DropDuplicate => self.stats.rx_dup += 1,
                    InVerdict::DropStale => self.stats.rx_stale += 1,
                },
                Err(RecvTimeoutError::Timeout) => return TransportEvent::Timeout,
                Err(RecvTimeoutError::Disconnected) => return TransportEvent::Closed,
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// Stream (socket) wire: Unix-domain and TCP.
// ---------------------------------------------------------------------

/// A dialable address for one site of a socket-backed cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Uds(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7400`.
    Tcp(String),
}

impl core::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Endpoint::Uds(p) => write!(f, "uds:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl Endpoint {
    /// Parses the `uds:<path>` / `tcp:<addr>` forms of [`Endpoint`]'s
    /// `Display` output (manifest files round-trip through this).
    pub fn parse(s: &str) -> Option<Endpoint> {
        if let Some(p) = s.strip_prefix("uds:") {
            Some(Endpoint::Uds(PathBuf::from(p)))
        } else {
            s.strip_prefix("tcp:").map(|a| Endpoint::Tcp(a.to_string()))
        }
    }
}

/// One accepted or dialed stream, behind an enum so Unix-domain and TCP
/// share every code path.
enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn connect(ep: &Endpoint) -> std::io::Result<Stream> {
        match ep {
            Endpoint::Uds(path) => UnixStream::connect(path).map(Stream::Uds),
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
        }
    }

    fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(Some(d)),
            Stream::Tcp(s) => s.set_read_timeout(Some(d)),
        }
    }

    fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            Stream::Uds(s) => s.write_all(bytes),
            Stream::Tcp(s) => s.write_all(bytes),
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

/// A listener bound ahead of transport construction, so ephemeral TCP
/// ports are known (and can go into a manifest) before anyone dials.
pub struct BoundListener {
    inner: ListenerInner,
    endpoint: Endpoint,
}

enum ListenerInner {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl BoundListener {
    /// Binds `ep`. For `tcp:…:0` the endpoint is rewritten with the
    /// kernel-assigned port; for a Unix path any stale socket file from
    /// a killed previous incarnation is removed first.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(ep: &Endpoint) -> std::io::Result<BoundListener> {
        match ep {
            Endpoint::Uds(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(BoundListener { inner: ListenerInner::Uds(l), endpoint: ep.clone() })
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                let actual = l.local_addr()?;
                Ok(BoundListener {
                    inner: ListenerInner::Tcp(l),
                    endpoint: Endpoint::Tcp(actual.to_string()),
                })
            }
        }
    }

    /// The dialable endpoint (with the real port for `tcp:…:0` binds).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match &self.inner {
            ListenerInner::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
            ListenerInner::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }
}

/// How long reader threads block in `read(2)` between stop-flag checks.
const READER_POLL: Duration = Duration::from_millis(25);

/// One established outbound connection.
struct OutConn {
    stream: Stream,
}

/// A socket-backed [`SequencedTransport`]: one listener for inbound
/// circuits, lazily-dialed outbound connections with a one-shot
/// reconnect on failure, frame integrity from [`crate::frame`], and the
/// [`SequencedIn`] filter above the wire.
pub struct StreamTransport {
    site: SiteId,
    incarnation: u64,
    endpoints: Vec<Option<Endpoint>>,
    out: Vec<Option<OutConn>>,
    circuits: CircuitTable,
    inbound: SequencedIn,
    rx: Receiver<RawFrame>,
    stats: TransportStats,
    rx_stale_shared: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    uds_path: Option<PathBuf>,
}

impl StreamTransport {
    /// Starts the transport for `site`: takes the pre-bound listener,
    /// spawns the acceptor thread, and records how to dial every peer.
    /// `endpoints[i]` addresses site `i`; the entry for `site` itself is
    /// ignored.
    pub fn start(
        site: SiteId,
        incarnation: u64,
        listener: BoundListener,
        endpoints: Vec<Endpoint>,
    ) -> StreamTransport {
        let (tx, rx) = channel::<RawFrame>();
        let stop = Arc::new(AtomicBool::new(false));
        let rx_stale_shared = Arc::new(AtomicU64::new(0));
        let uds_path = match listener.endpoint() {
            Endpoint::Uds(p) => Some(p.clone()),
            Endpoint::Tcp(_) => None,
        };
        let stop2 = Arc::clone(&stop);
        let accept_handle = std::thread::Builder::new()
            .name(format!("mirage-accept-{}", site.0))
            .spawn(move || acceptor_main(listener, tx, stop2))
            .expect("spawn acceptor thread");
        StreamTransport {
            site,
            incarnation,
            endpoints: endpoints.into_iter().map(Some).collect(),
            out: Vec::new(),
            circuits: CircuitTable::new(),
            inbound: SequencedIn::new(),
            rx,
            stats: TransportStats::default(),
            rx_stale_shared,
            stop,
            accept_handle: Some(accept_handle),
            uds_path,
        }
    }

    /// Dials `to` and performs the handshake.
    fn connect(&mut self, to: SiteId) -> Option<Stream> {
        let ep = self.endpoints.get(to.index()).and_then(|e| e.as_ref())?;
        let mut stream = Stream::connect(ep).ok()?;
        let hello = encode_hello(&Hello { from: self.site, incarnation: self.incarnation });
        stream.write_all_bytes(&hello).ok()?;
        self.stats.reconnects += 1;
        Some(stream)
    }

    /// Writes one frame toward `to`, reconnecting once on failure.
    fn write_frame(&mut self, to: SiteId, wire: &[u8]) -> bool {
        let idx = to.index();
        if self.out.len() <= idx {
            self.out.resize_with(idx + 1, || None);
        }
        for attempt in 0..2 {
            if self.out[idx].is_none() {
                match self.connect(to) {
                    Some(stream) => self.out[idx] = Some(OutConn { stream }),
                    None => return false,
                }
            }
            let ok = self.out[idx]
                .as_mut()
                .map(|c| c.stream.write_all_bytes(wire).is_ok())
                .unwrap_or(false);
            if ok {
                return true;
            }
            // Broken connection: drop it; the second pass redials.
            self.out[idx] = None;
            let _ = attempt;
        }
        false
    }
}

impl SequencedTransport for StreamTransport {
    fn site(&self) -> SiteId {
        self.site
    }

    fn incarnation(&self) -> u64 {
        self.incarnation
    }

    fn send(&mut self, to: SiteId, payload: &[u8]) {
        let seq = self.circuits.stamp_seq(to);
        let mut wire = Vec::with_capacity(20 + payload.len());
        encode_frame(seq, payload, &mut wire);
        self.stats.tx_frames += 1;
        self.stats.tx_bytes += wire.len() as u64;
        if !self.write_frame(to, &wire) {
            self.stats.tx_dropped += 1;
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> TransportEvent {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(raw) => match self.inbound.accept(raw.from, raw.incarnation, raw.seq) {
                    InVerdict::Deliver => {
                        self.stats.rx_frames += 1;
                        self.stats.rx_bytes += raw.payload.len() as u64;
                        return TransportEvent::Frame(PeerFrame {
                            from: raw.from,
                            payload: raw.payload,
                        });
                    }
                    InVerdict::DeliverAfterGap(lost) => {
                        self.stats.rx_gap += lost;
                        self.stats.rx_frames += 1;
                        self.stats.rx_bytes += raw.payload.len() as u64;
                        return TransportEvent::Frame(PeerFrame {
                            from: raw.from,
                            payload: raw.payload,
                        });
                    }
                    InVerdict::DropDuplicate => self.stats.rx_dup += 1,
                    InVerdict::DropStale => {
                        self.stats.rx_stale += 1;
                        self.rx_stale_shared.fetch_add(1, Ordering::Relaxed);
                    }
                },
                Err(RecvTimeoutError::Timeout) => return TransportEvent::Timeout,
                // The acceptor thread only exits on stop; treat as closed.
                Err(RecvTimeoutError::Disconnected) => return TransportEvent::Closed,
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

impl Drop for StreamTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Accept loop: polls the non-blocking listener, spawns one reader
/// thread per accepted connection. Reader threads are detached; they
/// exit on EOF, on any framing error, or when the stop flag rises.
fn acceptor_main(listener: BoundListener, tx: Sender<RawFrame>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(stream) => {
                let tx2 = tx.clone();
                let stop2 = Arc::clone(&stop);
                let _ = std::thread::Builder::new()
                    .name("mirage-reader".into())
                    .spawn(move || reader_main(stream, tx2, stop2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Per-connection reader: handshake, then frames until the stream dies.
fn reader_main(mut stream: Stream, tx: Sender<RawFrame>, stop: Arc<AtomicBool>) {
    if stream.set_read_timeout(READER_POLL).is_err() {
        return;
    }
    // Read the fixed-size hello first.
    let mut hello_buf = [0u8; HELLO_LEN];
    let mut filled = 0usize;
    let hello_deadline = Instant::now() + Duration::from_secs(5);
    while filled < HELLO_LEN {
        if stop.load(Ordering::Acquire) || Instant::now() > hello_deadline {
            return;
        }
        match stream.read_some(&mut hello_buf[filled..]) {
            Ok(0) => return,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
    let Ok(hello) = decode_hello(&hello_buf) else {
        return;
    };
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match stream.read_some(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                decoder.push(&buf[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => {
                            if tx
                                .send(RawFrame {
                                    from: hello.from,
                                    incarnation: hello.incarnation,
                                    seq: frame.seq,
                                    payload: frame.payload,
                                })
                                .is_err()
                            {
                                return;
                            }
                        }
                        Ok(None) => break,
                        // Corrupt stream: kill the connection; the
                        // sender reconnects and the retry chains
                        // re-drive whatever was in flight.
                        Err(_) => return,
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequenced_in_orders_dedups_and_severs() {
        let mut f = SequencedIn::new();
        let p = SiteId(3);
        assert_eq!(f.accept(p, 1, 0), InVerdict::Deliver);
        assert_eq!(f.accept(p, 1, 1), InVerdict::Deliver);
        assert_eq!(f.accept(p, 1, 1), InVerdict::DropDuplicate);
        // Two frames lost across a reconnect: gap is declared, released.
        assert_eq!(f.accept(p, 1, 4), InVerdict::DeliverAfterGap(2));
        assert_eq!(f.accept(p, 1, 5), InVerdict::Deliver);
        // A restarted peer severs the circuit and starts from zero...
        assert_eq!(f.accept(p, 2, 0), InVerdict::Deliver);
        // ...and anything still arriving from the old incarnation dies.
        assert_eq!(f.accept(p, 1, 6), InVerdict::DropStale);
    }

    #[test]
    fn channel_net_delivers_in_order() {
        let mut ts = ChannelNet::fabric(2);
        let mut b = ts.pop().unwrap();
        let mut a = ts.pop().unwrap();
        a.send(SiteId(1), b"one");
        a.send(SiteId(1), b"two");
        let e1 = b.recv_timeout(Duration::from_secs(1));
        let e2 = b.recv_timeout(Duration::from_secs(1));
        assert_eq!(
            e1,
            TransportEvent::Frame(PeerFrame { from: SiteId(0), payload: b"one".to_vec() })
        );
        assert_eq!(
            e2,
            TransportEvent::Frame(PeerFrame { from: SiteId(0), payload: b"two".to_vec() })
        );
        assert_eq!(b.recv_timeout(Duration::from_millis(5)), TransportEvent::Timeout);
        assert_eq!(b.stats().rx_frames, 2);
        assert_eq!(a.stats().tx_frames, 2);
    }

    fn uds_pair(tag: &str) -> (StreamTransport, StreamTransport) {
        let dir = std::env::temp_dir().join(format!("mirage-net-test-{tag}-{}", unique()));
        std::fs::create_dir_all(&dir).unwrap();
        let eps = vec![Endpoint::Uds(dir.join("s0.sock")), Endpoint::Uds(dir.join("s1.sock"))];
        let l0 = BoundListener::bind(&eps[0]).unwrap();
        let l1 = BoundListener::bind(&eps[1]).unwrap();
        let t0 = StreamTransport::start(SiteId(0), 1, l0, eps.clone());
        let t1 = StreamTransport::start(SiteId(1), 1, l1, eps);
        (t0, t1)
    }

    fn unique() -> u64 {
        use std::sync::atomic::AtomicU64;
        static N: AtomicU64 = AtomicU64::new(0);
        (std::process::id() as u64) << 20 | N.fetch_add(1, Ordering::Relaxed)
    }

    fn expect_frame(t: &mut StreamTransport, secs: u64) -> PeerFrame {
        match t.recv_timeout(Duration::from_secs(secs)) {
            TransportEvent::Frame(f) => f,
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn uds_round_trip_both_directions() {
        let (mut t0, mut t1) = uds_pair("rt");
        t0.send(SiteId(1), b"ping");
        let f = expect_frame(&mut t1, 5);
        assert_eq!((f.from, f.payload.as_slice()), (SiteId(0), b"ping".as_slice()));
        t1.send(SiteId(0), b"pong");
        let f = expect_frame(&mut t0, 5);
        assert_eq!((f.from, f.payload.as_slice()), (SiteId(1), b"pong".as_slice()));
    }

    #[test]
    fn tcp_round_trip() {
        let l0 = BoundListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let l1 = BoundListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let eps = vec![l0.endpoint().clone(), l1.endpoint().clone()];
        let mut t0 = StreamTransport::start(SiteId(0), 1, l0, eps.clone());
        let mut t1 = StreamTransport::start(SiteId(1), 1, l1, eps);
        t0.send(SiteId(1), &[7u8; 600]);
        let f = expect_frame(&mut t1, 5);
        assert_eq!(f.payload, vec![7u8; 600]);
    }

    #[test]
    fn restarted_peer_supersedes_old_incarnation() {
        let dir = std::env::temp_dir().join(format!("mirage-net-test-inc-{}", unique()));
        std::fs::create_dir_all(&dir).unwrap();
        let eps = vec![Endpoint::Uds(dir.join("s0.sock")), Endpoint::Uds(dir.join("s1.sock"))];
        let l1 = BoundListener::bind(&eps[1]).unwrap();
        let mut t1 = StreamTransport::start(SiteId(1), 1, l1, eps.clone());
        // Incarnation 1 of site 0 speaks, then "crashes"; incarnation 2
        // takes over; a straggler from incarnation 1 must be dropped.
        let l0a = BoundListener::bind(&eps[0]).unwrap();
        let mut t0a = StreamTransport::start(SiteId(0), 1, l0a, eps.clone());
        t0a.send(SiteId(1), b"old-1");
        assert_eq!(expect_frame(&mut t1, 5).payload, b"old-1".to_vec());
        let l0b = BoundListener::bind(&eps[0]).unwrap();
        let mut t0b = StreamTransport::start(SiteId(0), 2, l0b, eps.clone());
        t0b.send(SiteId(1), b"new-1");
        assert_eq!(expect_frame(&mut t1, 5).payload, b"new-1".to_vec());
        // The old incarnation's connection is still open: its frame
        // arrives but must be filtered, not delivered.
        t0a.send(SiteId(1), b"old-2");
        t0b.send(SiteId(1), b"new-2");
        assert_eq!(expect_frame(&mut t1, 5).payload, b"new-2".to_vec());
        // `old-2` travels on its own connection, so it may be counted
        // only after `new-2` is delivered: keep receiving (nothing more
        // may be delivered) until the stale frame is dropped.
        let deadline = Instant::now() + Duration::from_secs(5);
        while t1.stats().rx_stale == 0 && Instant::now() < deadline {
            match t1.recv_timeout(Duration::from_millis(50)) {
                TransportEvent::Timeout => {}
                other => panic!("nothing but the stale frame may arrive, got {other:?}"),
            }
        }
        let stats = t1.stats();
        assert_eq!(stats.rx_stale, 1, "stale-incarnation frame dropped: {stats:?}");
    }

    #[test]
    fn endpoint_display_parse_round_trip() {
        for ep in
            [Endpoint::Uds(PathBuf::from("/tmp/x.sock")), Endpoint::Tcp("127.0.0.1:9".into())]
        {
            assert_eq!(Endpoint::parse(&ep.to_string()), Some(ep));
        }
        assert_eq!(Endpoint::parse("bogus"), None);
    }
}
