//! Single-layer costs timed in isolation: one protocol-driver dispatch,
//! the wire codec on a page grant, and a grant-sized frame's round trip
//! over a Unix socket. `host.unattributed_us` subtracts these from the
//! real fault latency.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{
    Duration,
    Instant,
};

use mirage_core::{
    Event,
    InMemStore,
    ProtoMsg,
    ProtocolConfig,
    ProtocolDriver,
    RecordedOps,
};
use mirage_mem::{
    LocalSegment,
    PageData,
};
use mirage_net::transport::{
    BoundListener,
    Endpoint,
    SequencedTransport,
    StreamTransport,
    TransportEvent,
};
use mirage_net::wire::{
    from_bytes,
    to_bytes,
};
use mirage_types::{
    Access,
    Delta,
    PageNum,
    Pid,
    SegmentId,
    SimTime,
    SiteId,
    PAGE_SIZE,
};

/// The single-layer costs a remote fault is made of.
pub struct Costs {
    pub dispatch_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub uds_rtt_us: f64,
}

impl Costs {
    /// Microseconds a fault with `msgs` messages and `events` driver
    /// events spends in the measured layers: half a round trip, one
    /// encode and one decode per message, one dispatch per event.
    pub fn explained_us(&self, msgs: f64, events: f64) -> f64 {
        msgs * (self.uds_rtt_us / 2.0 + (self.encode_ns + self.decode_ns) / 1e3)
            + events * self.dispatch_ns / 1e3
    }
}

/// Two protocol engines wired back to back with no simulator: a write
/// fault at one site is dispatched, then every message it causes, until
/// the exchange is quiet.
struct DirectPair {
    drivers: [ProtocolDriver; 2],
    stores: [InMemStore; 2],
    ops: RecordedOps,
    net: VecDeque<(SiteId, SiteId, ProtoMsg)>,
    seg: SegmentId,
}

impl DirectPair {
    fn new() -> Self {
        let seg = SegmentId::new(SiteId(0), 1);
        let mut drivers =
            [0, 1].map(|s| ProtocolDriver::from_config(SiteId(s), ProtocolConfig::default()));
        let mut stores = [InMemStore::new(), InMemStore::new()];
        for (i, (d, s)) in drivers.iter_mut().zip(stores.iter_mut()).enumerate() {
            s.add_segment(if i == 0 {
                LocalSegment::fully_resident(seg, 1)
            } else {
                LocalSegment::absent(seg, 1)
            });
            d.register_segment(seg, 1);
        }
        DirectPair { drivers, stores, ops: RecordedOps::new(), net: VecDeque::new(), seg }
    }

    fn pump(&mut self, site: usize, ev: Event) {
        self.drivers[site].drive(ev, SimTime::ZERO, &mut self.stores[site], &mut self.ops);
        let from = SiteId(site as u16);
        for (to, msg) in self.ops.sends.drain(..) {
            self.net.push_back((from, to, msg));
        }
        self.ops.clear();
    }

    fn fault_and_settle(&mut self, site: usize) {
        let pid = Pid::new(SiteId(site as u16), 1);
        self.pump(
            site,
            Event::Fault { pid, seg: self.seg, page: PageNum(0), access: Access::Write },
        );
        while let Some((from, to, msg)) = self.net.pop_front() {
            self.pump(to.index(), Event::Deliver { from, msg });
        }
    }

    fn events(&self) -> u64 {
        self.drivers.iter().map(ProtocolDriver::events_dispatched).sum()
    }
}

/// Write ping-pong cycles timed for `core.dispatch_ns`.
const DISPATCH_CYCLES: u32 = 200_000;

/// Wall time per driver event, in nanoseconds.
pub fn dispatch_ns() -> f64 {
    let mut pair = DirectPair::new();
    pair.fault_and_settle(1);
    pair.fault_and_settle(0);
    let before = pair.events();
    let start = Instant::now();
    for _ in 0..DISPATCH_CYCLES {
        pair.fault_and_settle(1);
        pair.fault_and_settle(0);
    }
    let ns = start.elapsed().as_nanos() as f64;
    ns / (pair.events() - before) as f64
}

/// A full page grant, the large message of every remote fault.
fn page_grant() -> ProtoMsg {
    ProtoMsg::PageGrant {
        seg: SegmentId::new(SiteId(0), 1),
        page: PageNum(3),
        access: Access::Write,
        window: Delta(0),
        data: PageData::from_bytes(&[0xAB; PAGE_SIZE]),
        serial: 7,
    }
}

const CODEC_ITERS: u32 = 500_000;

/// `(encode_ns, decode_ns)` of one page grant.
pub fn codec_ns() -> (f64, f64) {
    let msg = page_grant();
    let bytes = to_bytes(&msg);
    let start = Instant::now();
    for _ in 0..CODEC_ITERS {
        std::hint::black_box(to_bytes(std::hint::black_box(&msg)));
    }
    let enc = start.elapsed().as_nanos() as f64 / CODEC_ITERS as f64;
    let start = Instant::now();
    for _ in 0..CODEC_ITERS {
        let m =
            from_bytes::<ProtoMsg>(std::hint::black_box(&bytes)).expect("own encoding decodes");
        std::hint::black_box(m);
    }
    let dec = start.elapsed().as_nanos() as f64 / CODEC_ITERS as f64;
    (enc, dec)
}

const RTT_ROUNDS: u32 = 2_000;

/// Median round trip, in microseconds, of a grant-sized frame between
/// two `StreamTransport`s over Unix sockets in `dir`. `None` if a frame
/// did not come back within a second.
pub fn uds_rtt_us(dir: &Path) -> Option<f64> {
    std::fs::create_dir_all(dir).ok()?;
    let eps: Vec<Endpoint> =
        (0..2).map(|i| Endpoint::Uds(dir.join(format!("site{i}.sock")))).collect();
    let mut ts: Vec<StreamTransport> = eps
        .iter()
        .enumerate()
        .map(|(i, ep)| {
            let l = BoundListener::bind(ep).expect("bind a benchmark socket");
            StreamTransport::start(SiteId(i as u16), 0, l, eps.clone())
        })
        .collect();
    let payload = to_bytes(&page_grant());
    let mut rtts = Vec::with_capacity(RTT_ROUNDS as usize);
    let mut ok = true;
    for _ in 0..RTT_ROUNDS {
        let start = Instant::now();
        ts[0].send(SiteId(1), &payload);
        ok &= matches!(ts[1].recv_timeout(Duration::from_secs(1)), TransportEvent::Frame(_));
        ts[1].send(SiteId(0), &payload);
        ok &= matches!(ts[0].recv_timeout(Duration::from_secs(1)), TransportEvent::Frame(_));
        rtts.push(start.elapsed().as_nanos() as f64 / 1e3);
        if !ok {
            break;
        }
    }
    drop(ts);
    let _ = std::fs::remove_dir_all(dir);
    ok.then(|| crate::median(&rtts))
}
