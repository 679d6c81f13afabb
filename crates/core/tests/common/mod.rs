//! A synchronous multi-site test harness for the protocol engines.
//!
//! Messages are delivered instantly and in order; timers advance a
//! virtual clock. `run()` drives everything to quiescence, so tests can
//! interleave faults and assert on quiescent global state.

use std::collections::VecDeque;
use std::ops::{
    Deref,
    DerefMut,
};

use mirage_core::{
    DriverOps,
    Event,
    InMemStore,
    PageStore,
    ProtoMsg,
    ProtocolConfig,
    ProtocolDriver,
    RefLogEntry,
    SiteEngine,
};
use mirage_mem::{
    LocalSegment,
    PageData,
};
use mirage_net::{
    message::Sized2,
    SizeClass,
};
use mirage_trace::TraceEvent;
use mirage_types::{
    Access,
    PageNum,
    PageProt,
    Pid,
    SegmentId,
    SimTime,
    SiteId,
};

/// A recorded network message, for message-count assertions.
#[derive(Clone, Debug)]
#[allow(dead_code)] // Fields are for debug output in assertion messages.
pub struct SentMsg {
    pub from: SiteId,
    pub to: SiteId,
    pub tag: &'static str,
    pub size: SizeClass,
}

/// An [`InMemStore`] that holds the engine to the order real memory
/// needs: a page is never copied out while local threads may still
/// write it, since a store landing after the copy would be lost to the
/// readers the copy is for.
pub struct CheckedStore(InMemStore);

impl Deref for CheckedStore {
    type Target = InMemStore;

    fn deref(&self) -> &InMemStore {
        &self.0
    }
}

impl DerefMut for CheckedStore {
    fn deref_mut(&mut self) -> &mut InMemStore {
        &mut self.0
    }
}

impl PageStore for CheckedStore {
    fn take(&mut self, seg: SegmentId, page: PageNum) -> PageData {
        self.0.take(seg, page)
    }

    fn copy(&self, seg: SegmentId, page: PageNum) -> PageData {
        assert_ne!(
            self.0.prot(seg, page),
            PageProt::ReadWrite,
            "{seg:?} {page:?} copied out while still writable"
        );
        self.0.copy(seg, page)
    }

    fn install(&mut self, seg: SegmentId, page: PageNum, data: PageData, prot: PageProt) {
        self.0.install(seg, page, data, prot);
    }

    fn set_prot(&mut self, seg: SegmentId, page: PageNum, prot: PageProt) {
        self.0.set_prot(seg, page, prot);
    }

    fn prot(&self, seg: SegmentId, page: PageNum) -> PageProt {
        self.0.prot(seg, page)
    }
}

#[allow(dead_code)] // Not every test binary uses every helper.
pub struct Cluster {
    pub drivers: Vec<ProtocolDriver>,
    pub stores: Vec<CheckedStore>,
    now: SimTime,
    net: VecDeque<(SiteId, SiteId, ProtoMsg)>,
    timers: Vec<(SimTime, SiteId, u64)>,
    pub sent: Vec<SentMsg>,
    pub woken: Vec<Pid>,
    pub ref_log: Vec<RefLogEntry>,
    /// Protocol trace, collected from every site (tracing is always on
    /// in the harness so each flow test doubles as an emission test).
    pub trace: Vec<TraceEvent>,
    next_serial: u32,
}

#[allow(dead_code)] // Not every test binary uses every helper.
impl Cluster {
    pub fn new(n: usize, config: ProtocolConfig) -> Self {
        let drivers = (0..n)
            .map(|i| {
                let mut d = ProtocolDriver::from_config(SiteId(i as u16), config.clone());
                d.set_tracing(true);
                d
            })
            .collect();
        let stores = (0..n).map(|_| CheckedStore(InMemStore::new())).collect();
        Self {
            drivers,
            stores,
            now: SimTime::ZERO,
            net: VecDeque::new(),
            timers: Vec::new(),
            sent: Vec::new(),
            woken: Vec::new(),
            ref_log: Vec::new(),
            trace: Vec::new(),
            next_serial: 1,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to one site's engine, for state assertions.
    pub fn engine(&self, site: usize) -> &SiteEngine {
        self.drivers[site].engine()
    }

    /// Creates a segment with its library at `lib`, registering it at
    /// every site. The library site starts fully resident (it is the
    /// creator), all other sites absent.
    pub fn create_segment(&mut self, lib: usize, pages: usize) -> SegmentId {
        let seg = SegmentId::new(SiteId(lib as u16), self.next_serial);
        self.next_serial += 1;
        for (i, (drv, store)) in self.drivers.iter_mut().zip(self.stores.iter_mut()).enumerate()
        {
            let view = if i == lib {
                LocalSegment::fully_resident(seg, pages)
            } else {
                LocalSegment::absent(seg, pages)
            };
            store.add_segment(view);
            drv.register_segment(seg, pages);
        }
        seg
    }

    /// Dispatches one event at `site` and drains the resulting actions
    /// into the harness queues.
    fn dispatch(&mut self, site: usize, ev: Event) {
        let Self { drivers, stores, now, net, timers, sent, woken, ref_log, trace, .. } = self;
        drivers[site].drive(
            ev,
            *now,
            &mut stores[site],
            &mut ClusterOps {
                from: SiteId(site as u16),
                net,
                timers,
                sent,
                woken,
                ref_log,
                trace,
            },
        );
    }

    /// Drives messages and timers to quiescence.
    pub fn run(&mut self) {
        self.run_filtered(|_, _, _| Verdict::Deliver);
    }

    /// Drives to quiescence, dropping up to `budget` messages matching
    /// `pred` along the way (targeted loss injection).
    pub fn run_dropping(
        &mut self,
        mut budget: usize,
        pred: impl Fn(SiteId, SiteId, &ProtoMsg) -> bool,
    ) {
        self.run_filtered(|from, to, msg| {
            if budget > 0 && pred(from, to, msg) {
                budget -= 1;
                Verdict::Drop
            } else {
                Verdict::Deliver
            }
        });
    }

    /// Drives to quiescence, delivering up to `budget` messages matching
    /// `pred` twice (duplicate injection).
    pub fn run_duplicating(
        &mut self,
        mut budget: usize,
        pred: impl Fn(SiteId, SiteId, &ProtoMsg) -> bool,
    ) {
        self.run_filtered(|from, to, msg| {
            if budget > 0 && pred(from, to, msg) {
                budget -= 1;
                Verdict::Duplicate
            } else {
                Verdict::Deliver
            }
        });
    }

    /// Drains the message queue only, leaving armed timers pending:
    /// the state "quiescent except for retransmit timers", where a crash
    /// can be injected before any retry fires. Drops up to `budget`
    /// messages matching `pred`.
    pub fn run_messages_dropping(
        &mut self,
        mut budget: usize,
        pred: impl Fn(SiteId, SiteId, &ProtoMsg) -> bool,
    ) {
        while let Some((from, to, msg)) = self.net.pop_front() {
            if budget > 0 && pred(from, to, &msg) {
                budget -= 1;
                continue;
            }
            self.dispatch(to.index(), Event::Deliver { from, msg });
        }
    }

    /// Drives messages and timers to quiescence, consulting `verdict`
    /// for every queued message before delivery.
    fn run_filtered(&mut self, mut verdict: impl FnMut(SiteId, SiteId, &ProtoMsg) -> Verdict) {
        loop {
            if let Some((from, to, msg)) = self.net.pop_front() {
                match verdict(from, to, &msg) {
                    Verdict::Drop => {}
                    Verdict::Duplicate => {
                        self.dispatch(to.index(), Event::Deliver { from, msg: msg.clone() });
                        self.dispatch(to.index(), Event::Deliver { from, msg });
                    }
                    Verdict::Deliver => {
                        self.dispatch(to.index(), Event::Deliver { from, msg });
                    }
                }
                continue;
            }
            if !self.timers.is_empty() {
                // Fire the earliest timer, advancing virtual time.
                let idx = self
                    .timers
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(at, _, _))| at)
                    .map(|(i, _)| i)
                    .unwrap();
                let (at, site, token) = self.timers.remove(idx);
                if at > self.now {
                    self.now = at;
                }
                self.dispatch(site.index(), Event::Timer { token });
                continue;
            }
            break;
        }
    }

    /// Raises a typed fault at a site and runs to quiescence.
    pub fn fault(&mut self, site: usize, seg: SegmentId, page: PageNum, access: Access) {
        let pid = Pid::new(SiteId(site as u16), 1);
        self.dispatch(site, Event::Fault { pid, seg, page, access });
        self.run();
    }

    /// Raises a fault *without* running to quiescence (for interleaving
    /// tests); call `run()` afterwards.
    pub fn fault_no_run(
        &mut self,
        site: usize,
        local: u32,
        seg: SegmentId,
        page: PageNum,
        access: Access,
    ) {
        let pid = Pid::new(SiteId(site as u16), local);
        self.dispatch(site, Event::Fault { pid, seg, page, access });
    }

    /// Initiates a library-role handoff at `site` *without* running to
    /// quiescence, so tests can interleave crashes and message loss
    /// with the freeze → transfer → activate sequence.
    pub fn migrate_library_no_run(&mut self, site: usize, seg: SegmentId, to: SiteId) {
        self.dispatch(site, Event::MigrateLibrary { seg, to, shard: None });
    }

    /// Like [`Self::migrate_library_no_run`], but hands off only one
    /// page-range shard of the segment (requires a sharded
    /// `ProtocolConfig`).
    pub fn migrate_library_shard_no_run(
        &mut self,
        site: usize,
        seg: SegmentId,
        to: SiteId,
        shard: u32,
    ) {
        self.dispatch(site, Event::MigrateLibrary { seg, to, shard: Some(shard) });
    }

    /// Advances virtual time (e.g., to let a Δ window expire).
    pub fn advance(&mut self, d: mirage_types::SimDuration) {
        self.now += d;
    }

    /// Emulates a process write: fault until writable, then store a word.
    pub fn write_u32(
        &mut self,
        site: usize,
        seg: SegmentId,
        page: PageNum,
        off: usize,
        val: u32,
    ) {
        use mirage_core::PageStore;
        for _ in 0..8 {
            if self.stores[site].prot(seg, page).permits(Access::Write) {
                self.stores[site]
                    .segment_mut(seg)
                    .unwrap()
                    .frame_mut(page)
                    .unwrap()
                    .store_u32(off, val);
                return;
            }
            self.fault(site, seg, page, Access::Write);
        }
        panic!("write access never granted at site {site}");
    }

    /// Emulates a process read: fault until readable, then load a word.
    pub fn read_u32(&mut self, site: usize, seg: SegmentId, page: PageNum, off: usize) -> u32 {
        use mirage_core::PageStore;
        for _ in 0..8 {
            if self.stores[site].prot(seg, page).permits(Access::Read) {
                return self.stores[site]
                    .segment(seg)
                    .unwrap()
                    .frame(page)
                    .unwrap()
                    .load_u32(off);
            }
            self.fault(site, seg, page, Access::Read);
        }
        panic!("read access never granted at site {site}");
    }

    /// Runs the coherence checker for a page across all sites.
    pub fn check_coherence(&self, seg: SegmentId, page: PageNum) {
        use mirage_core::PageStore;
        let refs: Vec<(SiteId, &dyn PageStore)> = self
            .stores
            .iter()
            .enumerate()
            .map(|(i, s)| (SiteId(i as u16), s as &dyn PageStore))
            .collect();
        let v = mirage_core::invariants::check_page(&refs, seg, page);
        assert!(v.is_empty(), "coherence violations: {v:?}");
        // The causal trace oracle cross-checks the structural one.
        self.check_trace();
    }

    /// Runs the offline trace checker over everything traced so far.
    pub fn check_trace(&self) {
        let report = mirage_trace::check(&self.trace);
        assert!(
            report.violations.is_empty(),
            "trace checker violations: {:?}",
            report.violations
        );
    }

    /// Number of traced events of the given kind.
    pub fn trace_count(&self, kind: mirage_trace::TraceKind) -> usize {
        self.trace.iter().filter(|e| e.kind == kind).count()
    }

    /// Clears message/wake instrumentation.
    pub fn clear_instrumentation(&mut self) {
        self.sent.clear();
        self.woken.clear();
    }

    /// Number of recorded sends with the given tag.
    pub fn sent_count(&self, tag: &str) -> usize {
        self.sent.iter().filter(|m| m.tag == tag).count()
    }

    /// Crashes a site: the engine drops its volatile state, and every
    /// message still queued to or from the site is lost with it (the
    /// simulator's circuit severing, collapsed to instant delivery).
    pub fn crash(&mut self, site: usize) {
        self.drivers[site].crash();
        let id = SiteId(site as u16);
        self.net.retain(|&(from, to, _)| from != id && to != id);
        self.timers.retain(|&(_, s, _)| s != id);
    }

    /// Restarts a crashed site, queueing the retransmissions its engine
    /// reconstructs from the persistent tables.
    pub fn restart(&mut self, site: usize) {
        let Self { drivers, stores, now, net, timers, sent, woken, ref_log, trace, .. } = self;
        drivers[site].restart(*now, &mut stores[site]);
        drivers[site].flush(&mut ClusterOps {
            from: SiteId(site as u16),
            net,
            timers,
            sent,
            woken,
            ref_log,
            trace,
        });
    }
}

/// What to do with one queued message in [`Cluster::run_filtered`].
enum Verdict {
    Deliver,
    Drop,
    Duplicate,
}

/// [`DriverOps`] receiver for the harness: everything is recorded.
struct ClusterOps<'a> {
    from: SiteId,
    net: &'a mut VecDeque<(SiteId, SiteId, ProtoMsg)>,
    timers: &'a mut Vec<(SimTime, SiteId, u64)>,
    sent: &'a mut Vec<SentMsg>,
    woken: &'a mut Vec<Pid>,
    ref_log: &'a mut Vec<RefLogEntry>,
    trace: &'a mut Vec<TraceEvent>,
}

impl DriverOps for ClusterOps<'_> {
    fn send(&mut self, to: SiteId, msg: ProtoMsg) {
        self.sent.push(SentMsg { from: self.from, to, tag: msg.tag(), size: msg.size_class() });
        self.net.push_back((self.from, to, msg));
    }

    fn wake(&mut self, pid: Pid) {
        self.woken.push(pid);
    }

    fn set_timer(&mut self, at: SimTime, token: u64) {
        self.timers.push((at, self.from, token));
    }

    fn log(&mut self, entry: RefLogEntry) {
        self.ref_log.push(entry);
    }

    fn trace(&mut self, ev: TraceEvent) {
        self.trace.push(ev);
    }
}
