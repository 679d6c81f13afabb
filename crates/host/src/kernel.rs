//! The site kernel: one protocol engine serviced by one loop, fed by
//! real faults, a sequenced transport, and a command channel.
//!
//! This is the piece `crates/host` shares between its two deployment
//! shapes. In-process clusters ([`crate::runtime::HostCluster`]) run one
//! [`kernel_main`] thread per site over the channel transport; the
//! `mirage-site` binary runs exactly one per OS process over a socket
//! transport. Either way the loop is the same: fire due timers, service
//! posted `SIGSEGV` faults, apply host commands, and deliver wire
//! frames — the host-runtime analogue of the paper's interrupt-driven
//! kernel path (§6).
//!
//! On its way out — commanded stop or transport closure — the kernel
//! *poisons* its site: every page of every local segment is opened
//! read-write, the site's poison flag is raised, and every in-flight
//! fault slot is granted. An application thread parked in the fault
//! handler therefore always resumes (its retried access succeeds
//! against the opened pages), so cluster teardown can never deadlock on
//! a dead site's grant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{
    Receiver,
    Sender,
    TryRecvError,
};
use std::sync::{
    Arc,
    Mutex,
};
use std::time::{
    Duration,
    Instant,
};

use mirage_core::{
    DriverOps,
    Event,
    PageStore,
    ProtoMsg,
    ProtocolConfig,
    ProtocolDriver,
    RefLogEntry,
};
use mirage_net::transport::{
    SequencedTransport,
    TransportEvent,
};
use mirage_net::wire::{
    from_bytes,
    to_bytes,
};
use mirage_trace::{
    Entry,
    RefLog,
    Registry,
    TraceEvent,
    TraceKind,
};
use mirage_types::{
    Access,
    PageNum,
    PageProt,
    Pid,
    SegmentId,
    SimTime,
    SiteId,
};

use crate::{
    arch::STRIDE,
    fault::{
        self,
        GRANTED,
        IN_SERVICE,
        MAILBOXES,
        POSTED,
        SLOTS_PER_SITE,
    },
    region,
    store::HostStore,
};

/// Host-side commands to a running kernel.
pub enum Command {
    /// Create a segment locally; reply with the user-view base address.
    CreateSegment {
        /// The segment id (its embedded library site decides residency
        /// elsewhere; `resident` decides it here).
        seg: SegmentId,
        /// DSM pages in the segment.
        pages: usize,
        /// Whether this site starts with the fully-resident creator view.
        resident: bool,
        /// Reply channel for the user-view base address.
        ack: Sender<usize>,
    },
    /// Drive [`Event::MigrateLibrary`]: hand the library role to `to`.
    Migrate {
        /// Segment whose library role moves.
        seg: SegmentId,
        /// Destination site.
        to: SiteId,
        /// Page-range shard to move (`None` = every local shard).
        shard: Option<u32>,
    },
    /// Reply with a snapshot of this site's reference log (§9).
    RefLog(Sender<RefLog>),
    /// Reply with this site's metrics registry (counters carry an
    /// `s<site>.` prefix so per-site registries merge deterministically).
    Metrics(Sender<Registry>),
    /// Reply with the segment's page contents, read through the kernel
    /// view (coherence checking; `pages * PAGE_SIZE` bytes).
    Snapshot(SegmentId, Sender<Vec<u8>>),
    /// Shut down (poisons the site on the way out).
    Stop,
}

/// Everything a kernel needs besides its transport and command channel.
pub struct KernelCtx {
    /// This site.
    pub site: SiteId,
    /// The site's row in the fault mailboxes / poison table.
    pub slot: usize,
    /// Protocol configuration.
    pub config: ProtocolConfig,
    /// Cluster epoch: `SimTime` is nanoseconds since this instant (§9:
    /// Δ is real time).
    pub epoch: Instant,
    /// Where to record region-table slots for later cleanup.
    pub region_slots: Arc<Mutex<Vec<usize>>>,
}

/// The kernel's own event counters. Each is a slot in [`Counters`];
/// its registry name is built only when metrics are requested.
#[derive(Clone, Copy)]
enum Counter {
    SendMsgs,
    DeliverMsgs,
    TimerFired,
    FaultRead,
    FaultWrite,
    MigrateIssued,
    DecodeError,
}

impl Counter {
    const ALL: [Counter; 7] = [
        Counter::SendMsgs,
        Counter::DeliverMsgs,
        Counter::TimerFired,
        Counter::FaultRead,
        Counter::FaultWrite,
        Counter::MigrateIssued,
        Counter::DecodeError,
    ];

    fn name(self) -> &'static str {
        match self {
            Counter::SendMsgs => "send.msgs",
            Counter::DeliverMsgs => "deliver.msgs",
            Counter::TimerFired => "timer.fired",
            Counter::FaultRead => "fault.read",
            Counter::FaultWrite => "fault.write",
            Counter::MigrateIssued => "migrate.issued",
            Counter::DecodeError => "wire.decode_error",
        }
    }
}

/// Fixed counter arrays: a send, delivery, timer, or trace event bumps
/// one slot and allocates nothing.
struct Counters {
    kernel: [u64; Counter::ALL.len()],
    /// Trace events per kind (`proto.<Kind>`), with the kind kept for
    /// its name.
    proto: [Option<(TraceKind, u64)>; TraceKind::COUNT],
}

impl Counters {
    fn new() -> Self {
        Self { kernel: [0; Counter::ALL.len()], proto: [None; TraceKind::COUNT] }
    }

    fn bump(&mut self, c: Counter) {
        self.kernel[c as usize] += 1;
    }

    /// The counters as a registry, each name under `prefix`; counters
    /// never bumped are left out, as a string-keyed registry would.
    fn registry(&self, prefix: &str) -> Registry {
        let mut reg = Registry::new();
        for c in Counter::ALL {
            let n = self.kernel[c as usize];
            if n > 0 {
                reg.add(&format!("{prefix}{}", c.name()), n);
            }
        }
        for (kind, n) in self.proto.iter().flatten() {
            reg.add(&format!("{prefix}proto.{kind:?}"), *n);
        }
        reg
    }
}

/// [`DriverOps`] receiver for a kernel: sends become frames on the
/// transport, wakes flip the faulting thread's mailbox slot, timers
/// join the local heap, log records land in the site's reference log,
/// and trace events tick the per-kind counters.
struct KernelOps<'a> {
    slot: usize,
    timers: &'a mut BinaryHeap<Reverse<(SimTime, u64)>>,
    transport: &'a mut dyn SequencedTransport,
    ref_log: &'a mut RefLog,
    counters: &'a mut Counters,
}

impl DriverOps for KernelOps<'_> {
    fn send(&mut self, to: SiteId, msg: ProtoMsg) {
        let bytes = to_bytes(&msg);
        self.counters.bump(Counter::SendMsgs);
        self.transport.send(to, &bytes);
    }

    fn wake(&mut self, pid: Pid) {
        let slot = &MAILBOXES[self.slot][(pid.local as usize) - 1];
        // Only wake a slot this site put in service; stale wakes for
        // recycled slots are ignored by the CAS.
        let _ = slot.state.compare_exchange(
            IN_SERVICE,
            GRANTED,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    fn set_timer(&mut self, at: SimTime, token: u64) {
        self.timers.push(Reverse((at, token)));
    }

    fn log(&mut self, e: RefLogEntry) {
        self.ref_log.record(Entry {
            seg: e.seg,
            page: e.page,
            at: e.at,
            pid: e.pid,
            access: e.access,
        });
    }

    fn trace(&mut self, ev: TraceEvent) {
        self.counters.proto[ev.kind as usize].get_or_insert((ev.kind, 0)).1 += 1;
    }
}

/// One site's kernel state: the engine and everything its
/// [`KernelOps`] lends out while it runs.
struct Kernel {
    slot: usize,
    driver: ProtocolDriver,
    store: HostStore,
    /// Pending engine timers, earliest first.
    timers: BinaryHeap<Reverse<(SimTime, u64)>>,
    transport: Box<dyn SequencedTransport>,
    ref_log: RefLog,
    counters: Counters,
}

impl Kernel {
    fn drive(&mut self, ev: Event, now: SimTime) {
        self.driver.drive(
            ev,
            now,
            &mut self.store,
            &mut KernelOps {
                slot: self.slot,
                timers: &mut self.timers,
                transport: self.transport.as_mut(),
                ref_log: &mut self.ref_log,
                counters: &mut self.counters,
            },
        );
    }
}

/// The kernel loop. Returns when commanded to stop or when the
/// transport closes; either way the site is poisoned first (pages
/// opened, slots granted) so parked application threads always resume.
pub fn kernel_main(
    ctx: KernelCtx,
    transport: Box<dyn SequencedTransport>,
    cmds: Receiver<Command>,
) {
    let KernelCtx { site, slot, config, epoch, region_slots } = ctx;
    debug_assert_eq!(transport.site(), site);
    let prefix = format!("s{}.", site.0);
    let mut k = Kernel {
        slot,
        driver: ProtocolDriver::from_config(site, config),
        store: HostStore::new(),
        timers: BinaryHeap::new(),
        transport,
        ref_log: RefLog::new(),
        counters: Counters::new(),
    };
    let now = || SimTime(epoch.elapsed().as_nanos() as u64);

    'main: loop {
        // Fire due timers.
        let t_now = now();
        while let Some(&Reverse((at, token))) = k.timers.peek() {
            if at > t_now {
                break;
            }
            k.timers.pop();
            k.counters.bump(Counter::TimerFired);
            k.drive(Event::Timer { token }, t_now);
        }
        // Service posted faults.
        #[allow(clippy::needless_range_loop)] // `slot` is the site row, not the loop index.
        for slot_idx in 0..SLOTS_PER_SITE {
            let fslot = &MAILBOXES[slot][slot_idx];
            if fslot
                .state
                .compare_exchange(POSTED, IN_SERVICE, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let addr = fslot.addr.load(Ordering::Relaxed);
            let hw_write = fslot.write.load(Ordering::Relaxed) == 1;
            let Some(hit) = region::lookup(addr) else {
                // Region vanished (segment destroyed mid-fault); let the
                // app retry and crash honestly.
                fslot.state.store(GRANTED, Ordering::Release);
                continue;
            };
            let page = PageNum((hit.offset / STRIDE) as u32);
            // Typed fault: the x86-64 error-code bit; on other
            // architectures infer from the current protection (a fault
            // on a readable page must be a write).
            let access = if hw_write || k.store.prot(hit.seg, page) == PageProt::Read {
                Access::Write
            } else {
                Access::Read
            };
            k.counters.bump(if access == Access::Write {
                Counter::FaultWrite
            } else {
                Counter::FaultRead
            });
            let pid = Pid::new(site, (slot_idx + 1) as u32);
            k.drive(Event::Fault { pid, seg: hit.seg, page, access }, now());
        }
        // Apply host commands.
        loop {
            match cmds.try_recv() {
                Ok(Command::CreateSegment { seg, pages, resident, ack }) => {
                    k.store.add_segment(seg, pages, resident);
                    k.driver.register_segment(seg, pages);
                    let base = k.store.mapping(seg).expect("just added").user_base() as usize;
                    let rslot = region::register(base, pages * STRIDE, slot, seg);
                    region_slots.lock().unwrap().push(rslot);
                    let _ = ack.send(base);
                }
                Ok(Command::Migrate { seg, to, shard }) => {
                    k.counters.bump(Counter::MigrateIssued);
                    k.drive(Event::MigrateLibrary { seg, to, shard }, now());
                }
                Ok(Command::RefLog(ack)) => {
                    let _ = ack.send(k.ref_log.clone());
                }
                Ok(Command::Metrics(ack)) => {
                    let mut reg = k.counters.registry(&prefix);
                    let s = k.transport.stats();
                    for (name, v) in [
                        ("wire.tx.frames", s.tx_frames),
                        ("wire.tx.bytes", s.tx_bytes),
                        ("wire.tx.dropped", s.tx_dropped),
                        ("wire.rx.frames", s.rx_frames),
                        ("wire.rx.bytes", s.rx_bytes),
                        ("wire.rx.dup", s.rx_dup),
                        ("wire.rx.stale", s.rx_stale),
                        ("wire.rx.gap", s.rx_gap),
                        ("wire.reconnects", s.reconnects),
                    ] {
                        reg.gauge_set(&format!("{prefix}{name}"), v);
                    }
                    let _ = ack.send(reg);
                }
                Ok(Command::Snapshot(seg, ack)) => {
                    let pages =
                        k.store.segments().iter().find(|(s, _)| *s == seg).map(|(_, p)| *p);
                    let mut out = Vec::new();
                    if let Some(pages) = pages {
                        for p in 0..pages {
                            out.extend_from_slice(
                                k.store.copy(seg, PageNum(p as u32)).as_bytes(),
                            );
                        }
                    }
                    let _ = ack.send(out);
                }
                Ok(Command::Stop) => break 'main,
                Err(TryRecvError::Empty) => break,
                // Host dropped the command channel: shut down cleanly.
                Err(TryRecvError::Disconnected) => break 'main,
            }
        }
        // Wait briefly for wire traffic.
        match k.transport.recv_timeout(Duration::from_micros(500)) {
            TransportEvent::Frame(f) => {
                k.counters.bump(Counter::DeliverMsgs);
                match from_bytes::<ProtoMsg>(&f.payload) {
                    Ok(msg) => k.drive(Event::Deliver { from: f.from, msg }, now()),
                    // A frame that passed the checksum but fails the
                    // protocol codec is counted and dropped, never a
                    // panic: the retry chains re-drive the exchange.
                    Err(_) => k.counters.bump(Counter::DecodeError),
                }
            }
            TransportEvent::Timeout => {}
            TransportEvent::Closed => break 'main,
        }
    }

    // Teardown poison (in this order — see module docs): open every
    // page so retried accesses succeed, raise the poison flag so the
    // fault handler stops parking threads, then grant whatever is
    // already parked.
    k.store.open_all();
    fault::poison(slot);
    let mut released = false;
    for fslot in &MAILBOXES[slot] {
        released |= fslot
            .state
            .compare_exchange(POSTED, GRANTED, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        released |= fslot
            .state
            .compare_exchange(IN_SERVICE, GRANTED, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
    }
    if released {
        // A thread we just granted is about to retry its access; the
        // opened pages must stay mapped for that retry, so the store
        // (and its memfd mappings) is deliberately leaked. This only
        // happens on teardown with threads still parked — a bounded,
        // once-per-site cost that buys a deadlock-free exit.
        std::mem::forget(k.store);
    }
}
