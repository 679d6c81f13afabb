//! The using-site role: fault handling, page installation, and clock-site
//! duties (window enforcement and invalidation rounds).
//!
//! Per-page state lives in dense per-segment tables ([`UseState`]): one
//! slab-index lookup per segment, then plain vector indexing per page —
//! the shape of the paper's auxpte arrays (Table 2). Each page entry
//! absorbs what used to be five separate tuple-keyed maps (waiters,
//! outstanding-request flags, invalidation round, delayed invalidation,
//! deferred clock duties), so the fault path hashes nothing per page and
//! steady-state handling allocates nothing.

use std::collections::VecDeque;

use mirage_mem::{
    AuxTable,
    PageData,
};
use mirage_trace::TraceKind;
use mirage_types::{
    fnv64,
    Access,
    Delta,
    FastMap,
    PageDiff,
    PageNum,
    PageProt,
    Pid,
    ReaderSet,
    SegmentId,
    SiteId,
    SiteSet,
};

use crate::{
    config::ProtocolConfig,
    engine::{
        SiteEngine,
        TimerKind,
    },
    event::Action,
    msg::{
        Demand,
        DoneInfo,
        ProtoMsg,
    },
    sink::ActionSink,
    store::PageStore,
};

/// An in-flight invalidation round this site is conducting as clock site.
#[derive(Debug)]
struct InvRound {
    demand: Demand,
    window: Delta,
    /// Victims whose acks are still awaited.
    remaining: ReaderSet,
    /// Victims not yet sent an invalidation (sequential mode), visited
    /// in ascending site order.
    to_send: ReaderSet,
    /// Page data to forward to the new writer once the round completes.
    /// Absent for upgrades — and always absent in retry mode, where the
    /// local copy is relinquished at round *completion* instead of round
    /// start so a crash mid-round cannot lose the only copy.
    data: Option<PageData>,
    /// Demand serial of the round (0 when retry is disabled).
    serial: u32,
    /// Retransmit count for the round's invalidations (volatile).
    attempt: u32,
}

/// An invalidation delayed until window expiry (queued-invalidation
/// optimization, §7.1 caveat 1).
#[derive(Debug)]
struct DelayedInvalidate {
    demand: Demand,
    readers: ReaderSet,
    window: Delta,
    serial: u32,
}

/// A grant retained until the receiver acknowledges installation
/// (retry mode only). Write grants carry the only copy of the page, so
/// losing one loses the page. Read grants matter too: the library
/// records the receiver as a reader the moment the grant is *emitted*,
/// and a later write by that site is then served as an in-place upgrade
/// — which silently promotes a possibly-never-delivered copy to sole
/// copy. Upgrade notifications (`data: None`) transfer sole-copy
/// responsibility without bytes, so the granter keeps its own copy
/// until the ack (`use_grant_ack` performs the deferred relinquish).
/// Persistent across a crash.
#[derive(Debug)]
struct PendingGrant {
    to: SiteId,
    window: Delta,
    /// The page bytes. For an upgrade notification these are a *reserve*
    /// taken at relinquish time, not sent on the wire — unless the
    /// receiver nacks (its read copy never arrived), which escalates the
    /// entry to a full data-carrying grant.
    data: PageData,
    access: Access,
    /// True while the entry retransmits as a short [`ProtoMsg::UpgradeGrant`];
    /// flipped to false by [`ProtoMsg::UpgradeNack`].
    upgrade: bool,
    serial: u32,
    /// Retransmit count (volatile).
    attempt: u32,
}

/// The remembered content of this page's last data transfer between
/// this site and `peer` (delta-grant mode only).
///
/// One slot per page per site bounds the memory to a single retained
/// page image; every transfer (full grant emitted, full grant
/// installed, delta patched) replaces it. The sender diffs against its
/// slot when serving `peer` again; the receiver patches into a clone of
/// its slot after checking `tag`. The tag is the [`fnv64`] hash of the
/// content, computed independently at both ends, so any full-page
/// transfer bootstraps delta mode without widening the full-grant wire
/// format. Volatile: cleared on crash, evicted when the peer nacks a
/// delta (its slot diverged, e.g. across a crash).
#[derive(Debug)]
struct ShadowBase {
    peer: SiteId,
    tag: u64,
    data: PageData,
}

/// A clock-site duty that arrived before the page it concerns.
///
/// The library serializes demands per page, but the page *data* travels
/// on a different circuit (old holder → new clock) than the library's
/// next instruction (library → new clock); a short instruction can
/// physically beat a 1024-byte grant (6.4 ms vs 15 ms one-way in the
/// paper's own numbers). A robust clock site defers such duties until
/// its copy arrives.
#[derive(Debug)]
enum DeferredOp {
    Invalidate { demand: Demand, readers: ReaderSet, window: Delta, serial: u32 },
    AddReaders { readers: ReaderSet, window: Delta, serial: u32 },
    ReaderInvalidate { from: SiteId, serial: u32 },
}

/// The using-site record for one page: everything this site tracks about
/// the page beyond the auxpte proper.
#[derive(Debug, Default)]
struct UsePage {
    /// Local processes blocked in a fault on this page.
    waiters: Vec<(Pid, Access)>,
    /// A read request for this page is in flight to the library.
    out_read: bool,
    /// A write request for this page is in flight to the library.
    out_write: bool,
    /// The invalidation round in progress (clock duty).
    round: Option<InvRound>,
    /// An invalidation delayed until window expiry (clock duty).
    delayed: Option<DelayedInvalidate>,
    /// Clock duties deferred until our copy arrives.
    deferred: VecDeque<DeferredOp>,
    /// Retransmit count for the outstanding request (volatile).
    req_attempt: u32,
    /// Generation of the outstanding request's retry chain, bumped each
    /// time a fresh request is sent. A satisfied request leaves its last
    /// backoff timer pending; the stamp keeps that stale firing from
    /// aliasing onto the next request and forking its chain (volatile).
    req_gen: u32,
    /// Pid stamped on retransmitted requests (volatile; reference-log
    /// attribution only).
    retry_pid: Option<Pid>,
    /// Completion report not yet acknowledged by the library; the clock
    /// retransmits it until `DoneAck` (persistent across crash).
    pending_done: Option<(u32, DoneInfo)>,
    /// Retransmit count for `pending_done` (volatile).
    done_attempt: u32,
    /// Grants not yet acknowledged by their receivers (persistent
    /// across crash — a write grant may hold the only copy of the
    /// page). One serial can cover several entries: an `AddReaders`
    /// batch grants the same serial to every new reader.
    pending_grants: Vec<PendingGrant>,
    /// Highest demand serial this site has completed as clock, for
    /// deduplicating retransmitted `Invalidate`s (persistent).
    last_serial: u32,
    /// Floor on grant installs: a grant or upgrade stamped with a serial
    /// below this is stale and must be dropped (persistent).
    min_install_serial: u32,
    /// Causal span of the outstanding page request (volatile; raw
    /// [`mirage_trace::SpanId`] bits, 0 when tracing is off or no
    /// request is in flight).
    req_span: u64,
    /// Causal span of the clock duty in progress (volatile; raw span
    /// bits, 0 outside an invalidation round).
    duty_span: u64,
    /// Last data transfer exchanged with a peer, the delta-grant base
    /// (volatile; `None` whenever [`ProtocolConfig::delta_grants`] is
    /// off, so the default configuration allocates nothing here).
    shadow: Option<Box<ShadowBase>>,
}

/// Per-segment using-site state: the auxiliary table plus the dense
/// per-page records.
#[derive(Debug)]
struct SegState {
    aux: AuxTable,
    pages: Vec<UsePage>,
    /// Where this site currently believes each library shard lives, one
    /// entry per page-range shard. Starts at the static `seg.library`
    /// and is updated by redirects and observed handoffs. Persistent
    /// across a crash (like the aux table): a restarted site must not
    /// fall back to a stale static address the stubs have long since
    /// stopped answering for. Each entry pairs the hinted site with the
    /// handoff epoch it was learned at; redirects apply only when
    /// strictly newer (0 until the shard first moves).
    lib_hints: Vec<(SiteId, u32)>,
    /// Pages per library shard (0 = one shard for the whole segment),
    /// mirrored from [`ProtocolConfig::shard_pages`] at registration.
    shard_pages: u32,
}

impl SegState {
    fn shard_of(&self, page: PageNum) -> usize {
        crate::library::shard_of(page, self.shard_pages).min(self.lib_hints.len() - 1)
    }
}

/// Using-role state for all segments known at this site.
///
/// Segments are slab-indexed: `index` maps a [`SegmentId`] to a slot in
/// `segs` once, and page lookups are then direct vector indexing.
#[derive(Debug, Default)]
pub struct UseState {
    index: FastMap<SegmentId, usize>,
    segs: Vec<SegState>,
    /// Reused by `wake_satisfied` so waking waiters allocates nothing.
    wake_scratch: Vec<Pid>,
}

impl UseState {
    pub(crate) fn register_segment(
        &mut self,
        seg: SegmentId,
        pages: usize,
        config: &ProtocolConfig,
    ) {
        let mut aux = AuxTable::new(pages, Delta::ZERO);
        for p in 0..pages {
            let page = PageNum(p as u32);
            aux.set_window(page, config.delta.window(page));
        }
        let shards = crate::library::shard_count(pages, config.shard_pages);
        let state = SegState {
            aux,
            pages: (0..pages).map(|_| UsePage::default()).collect(),
            lib_hints: vec![(seg.library, 0); shards],
            shard_pages: config.shard_pages,
        };
        match self.index.get(&seg) {
            Some(&slot) => self.segs[slot] = state,
            None => {
                self.index.insert(seg, self.segs.len());
                self.segs.push(state);
            }
        }
    }

    fn seg_mut(&mut self, seg: SegmentId) -> Option<&mut SegState> {
        let &slot = self.index.get(&seg)?;
        Some(&mut self.segs[slot])
    }

    fn seg(&self, seg: SegmentId) -> Option<&SegState> {
        let &slot = self.index.get(&seg)?;
        Some(&self.segs[slot])
    }

    fn entry_mut(&mut self, seg: SegmentId, page: PageNum) -> Option<&mut UsePage> {
        self.seg_mut(seg)?.pages.get_mut(page.index())
    }

    /// This site's current library hint for the shard holding `page`,
    /// with its epoch.
    pub(crate) fn lib_hint(&self, seg: SegmentId, page: PageNum) -> Option<(SiteId, u32)> {
        self.seg(seg).map(|s| s.lib_hints[s.shard_of(page)])
    }

    /// Repoints the library hint for the shard holding `page` (handoff
    /// observed or redirect applied).
    pub(crate) fn set_lib_hint(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        to: SiteId,
        epoch: u32,
    ) {
        if let Some(s) = self.seg_mut(seg) {
            let shard = s.shard_of(page);
            s.lib_hints[shard] = (to, epoch);
        }
    }

    /// The page range `[start, end)` of the shard holding `page`.
    fn shard_range(&self, seg: SegmentId, page: PageNum) -> std::ops::Range<usize> {
        let Some(s) = self.seg(seg) else {
            return 0..0;
        };
        if s.shard_pages == 0 {
            return 0..s.pages.len();
        }
        let shard = s.shard_of(page);
        let start = shard * s.shard_pages as usize;
        let end = (start + s.shard_pages as usize).min(s.pages.len());
        start..end
    }

    pub(crate) fn waiter_count(&self, seg: SegmentId, page: PageNum) -> usize {
        self.seg(seg).and_then(|s| s.pages.get(page.index())).map_or(0, |e| e.waiters.len())
    }

    pub(crate) fn has_outstanding(
        &self,
        seg: SegmentId,
        page: PageNum,
        access: Access,
    ) -> bool {
        self.seg(seg).and_then(|s| s.pages.get(page.index())).is_some_and(|e| match access {
            Access::Read => e.out_read,
            Access::Write => e.out_write,
        })
    }

    /// Discards all volatile using-site state (site crash). The aux
    /// table, the unacked retransmit obligations, and the stale-grant
    /// floors survive; waiters, in-flight rounds, deferred duties, and
    /// outstanding-request flags do not — the site's processes re-fault
    /// after restart and rebuild them.
    pub(crate) fn crash(&mut self) {
        for s in &mut self.segs {
            for e in &mut s.pages {
                e.waiters.clear();
                e.out_read = false;
                e.out_write = false;
                e.round = None;
                e.delayed = None;
                e.deferred.clear();
                e.req_attempt = 0;
                e.retry_pid = None;
                e.done_attempt = 0;
                e.req_span = 0;
                e.duty_span = 0;
                for g in &mut e.pending_grants {
                    g.attempt = 0;
                }
                // The delta base is volatile by design: a restarted
                // site must never patch against a pre-crash image.
                e.shadow = None;
            }
        }
    }

    /// Pages with persistent retransmit obligations, for restart.
    fn pending_pages(&self) -> Vec<(SegmentId, PageNum)> {
        let mut out = Vec::new();
        for (&seg, &slot) in &self.index {
            for (p, e) in self.segs[slot].pages.iter().enumerate() {
                if e.pending_done.is_some() || !e.pending_grants.is_empty() {
                    out.push((seg, PageNum(p as u32)));
                }
            }
        }
        out.sort();
        out
    }
}

impl SiteEngine {
    /// A local process faulted on a shared page (typed fault, §6.2).
    pub(crate) fn fault(
        &mut self,
        pid: Pid,
        seg: SegmentId,
        page: PageNum,
        access: Access,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        if store.prot(seg, page).permits(access) {
            // The process's PTE was stale (lazy remapping, §6.2); the
            // master already permits the access.
            self.wake(pid, sink);
            return;
        }
        let Some(entry) = self.usr.entry_mut(seg, page) else {
            return;
        };
        entry.waiters.push((pid, access));
        let depth = entry.waiters.len();
        // Deduplicate outstanding requests from this site: an in-flight
        // write request will grant read-write, which covers read faults
        // too.
        let need_send = match access {
            Access::Read => !entry.out_read && !entry.out_write,
            Access::Write => !entry.out_write,
        };
        let mut gen = 0;
        if need_send {
            match access {
                Access::Read => entry.out_read = true,
                Access::Write => entry.out_write = true,
            }
            entry.retry_pid = Some(pid);
            entry.req_attempt = 0;
            entry.req_gen = entry.req_gen.wrapping_add(1);
            gen = entry.req_gen;
        }
        let (lib, lib_epoch) = self.library_route(seg, page);
        if self.tracing() {
            let span = if need_send {
                let span = self.new_span();
                if let Some(entry) = self.usr.entry_mut(seg, page) {
                    entry.req_span = span.0;
                }
                span.0
            } else {
                self.usr
                    .seg(seg)
                    .and_then(|s| s.pages.get(page.index()))
                    .map_or(0, |e| e.req_span)
            };
            let mut ev = self.trace_event(TraceKind::FaultTaken, span, seg, page, sink);
            ev.pid = Some(pid);
            ev.access = Some(access);
            ev.detail = depth as u64;
            self.push_trace(ev, sink);
            if need_send {
                let mut ev = self.trace_event(TraceKind::RequestSent, span, seg, page, sink);
                ev.peer = Some(lib);
                ev.pid = Some(pid);
                ev.access = Some(access);
                self.push_trace(ev, sink);
            }
        }
        if need_send {
            self.emit(
                lib,
                ProtoMsg::PageRequest { seg, page, access, pid, epoch: lib_epoch },
                sink,
            );
            self.arm_retry(0, TimerKind::RequestRetry { seg, page, gen }, sink);
        }
    }

    /// Request retransmit timer fired (retry mode): if the request is
    /// still unanswered, re-send it and back off. The library deduplicates
    /// (queue scan plus in-flight-serve check), so retransmitting into a
    /// healthy network is harmless — and retransmitting into a restarted
    /// library is exactly how its request queue gets reconstructed.
    pub(crate) fn use_request_retry(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        gen: u32,
        sink: &mut ActionSink,
    ) {
        let Some(entry) = self.usr.entry_mut(seg, page) else {
            return;
        };
        if gen != entry.req_gen {
            // A leftover timer from a request that was already satisfied;
            // only the current chain may retransmit (and re-arm).
            return;
        }
        // A write request covers a read one, so retransmit the strongest
        // outstanding class.
        let access = if entry.out_write {
            Access::Write
        } else if entry.out_read {
            Access::Read
        } else {
            // Satisfied; let the retry chain die.
            return;
        };
        entry.req_attempt += 1;
        let attempt = entry.req_attempt;
        let span = entry.req_span;
        let pid = entry
            .retry_pid
            .or_else(|| entry.waiters.first().map(|&(pid, _)| pid))
            .unwrap_or(Pid::new(self.site, 0));
        let (lib, lib_epoch) = self.library_route(seg, page);
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::RequestRetry, span, seg, page, sink);
            ev.peer = Some(lib);
            ev.pid = Some(pid);
            ev.access = Some(access);
            ev.detail = u64::from(attempt);
            self.push_trace(ev, sink);
        }
        self.emit(
            lib,
            ProtoMsg::PageRequest { seg, page, access, pid, epoch: lib_epoch },
            sink,
        );
        self.arm_retry(attempt, TimerKind::RequestRetry { seg, page, gen }, sink);
    }

    /// Library told us (the fixed clock site) to grant read copies to
    /// additional readers — Table 1 row 1, no clock check.
    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    pub(crate) fn use_add_readers(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        readers: SiteSet,
        window: Delta,
        serial: u32,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let retry_on = self.config.retry.is_some();
        if store.prot(seg, page) == PageProt::None {
            // Our copy is still in flight; serve the readers once it
            // lands. In retry mode a retransmitted instruction may
            // already be queued — same serial, don't queue it twice.
            if let Some(entry) = self.usr.entry_mut(seg, page) {
                let dup = retry_on
                    && entry.deferred.iter().any(
                        |op| matches!(op, DeferredOp::AddReaders { serial: s, .. } if *s == serial),
                    );
                if !dup {
                    let count = readers.len() as u64;
                    entry.deferred.push_back(DeferredOp::AddReaders {
                        readers,
                        window,
                        serial,
                    });
                    if self.tracing() {
                        let mut ev =
                            self.trace_event(TraceKind::AddReadersDeferred, 0, seg, page, sink);
                        ev.serial = serial;
                        ev.detail = count;
                        self.push_trace(ev, sink);
                    }
                }
            }
            return;
        }
        let duty = if self.tracing() { self.new_span().0 } else { 0 };
        let data = store.copy(seg, page);
        for r in readers.iter() {
            if r == self.site {
                continue;
            }
            if retry_on {
                self.retain_grant(
                    seg,
                    page,
                    PendingGrant {
                        to: r,
                        window,
                        data: data.clone(),
                        access: Access::Read,
                        upgrade: false,
                        serial,
                        attempt: 0,
                    },
                    sink,
                );
            }
            let sent_delta = self.emit_data_grant(
                seg,
                page,
                r,
                Access::Read,
                window,
                data.clone(),
                serial,
                duty,
                sink,
            );
            if self.tracing() && !sent_delta {
                let mut ev = self.trace_event(TraceKind::GrantSent, duty, seg, page, sink);
                ev.peer = Some(r);
                ev.access = Some(Access::Read);
                ev.serial = serial;
                ev.detail = u64::from(window.0);
                self.push_trace(ev, sink);
            }
        }
        if readers.contains(self.site) {
            // Raced local request: we already hold a copy; wake readers.
            if retry_on {
                if let Some(entry) = self.usr.entry_mut(seg, page) {
                    // Our own read request is satisfied by the copy we
                    // hold — stop the request-retry chain.
                    entry.out_read = false;
                }
            }
            self.wake_satisfied(seg, page, store, sink);
        }
    }

    /// Library asked us (the clock site) to invalidate the current copy.
    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    pub(crate) fn use_invalidate(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        demand: Demand,
        readers: SiteSet,
        window: Delta,
        serial: u32,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let retry_on = self.config.retry.is_some();
        if retry_on {
            if let Some(entry) = self.usr.entry_mut(seg, page) {
                // The library serializes demands per page, so anything
                // already in progress here is the same demand this
                // (retransmitted) message describes — let it finish.
                if entry.round.is_some() || entry.delayed.is_some() {
                    return;
                }
                // Already served: a retransmission of a demand whose
                // completion report (or its ack) was lost. Re-report the
                // completion if the library has not confirmed it.
                if serial <= entry.last_serial {
                    let redo = match &entry.pending_done {
                        Some((s, info)) if *s == serial => Some(*info),
                        _ => None,
                    };
                    if let Some(info) = redo {
                        let lib = self.library_route(seg, page).0;
                        self.emit(
                            lib,
                            ProtoMsg::InvalidateDone { seg, page, info, serial },
                            sink,
                        );
                    }
                    return;
                }
            }
        }
        if store.prot(seg, page) == PageProt::None {
            // The copy this demand must invalidate has not arrived yet
            // (short library message beat the page-carrying grant).
            // Defer; the window check will run against the fresh install.
            if let Some(entry) = self.usr.entry_mut(seg, page) {
                let dup = retry_on
                    && entry.deferred.iter().any(
                        |op| matches!(op, DeferredOp::Invalidate { serial: s, .. } if *s == serial),
                    );
                if !dup {
                    entry.deferred.push_back(DeferredOp::Invalidate {
                        demand,
                        readers,
                        window,
                        serial,
                    });
                    if self.tracing() {
                        let mut ev =
                            self.trace_event(TraceKind::InvalidateDeferred, 0, seg, page, sink);
                        ev.serial = serial;
                        self.push_trace(ev, sink);
                    }
                }
            }
            return;
        }
        let now = sink.now();
        let expired =
            self.usr.seg(seg).map(|st| st.aux.get(page).window_expired(now)).unwrap_or(true);
        if !expired {
            let st = self.usr.seg(seg).expect("segment known");
            let remaining = st.aux.get(page).window_remaining(now);
            if self.config.queued_invalidation
                && remaining <= mirage_net::NetCosts::vax_locus().retry_threshold()
            {
                // §7.1 caveat 1: honor after a short delay rather than
                // forcing the library to retry over the network.
                let expiry = st.aux.get(page).window_expiry();
                if let Some(entry) = self.usr.entry_mut(seg, page) {
                    entry.delayed = Some(DelayedInvalidate { demand, readers, window, serial });
                }
                if self.tracing() {
                    let mut ev =
                        self.trace_event(TraceKind::InvalidateQueued, 0, seg, page, sink);
                    ev.serial = serial;
                    ev.detail = remaining.0;
                    self.push_trace(ev, sink);
                }
                self.set_timer(expiry, TimerKind::ClockDelayed { seg, page }, sink);
                return;
            }
            // "the clock site replies immediately with the amount of time
            // the library must wait until the invalidation can be
            // honored."
            let lib = self.library_route(seg, page).0;
            self.emit(
                lib,
                ProtoMsg::InvalidateDeny { seg, page, wait: remaining, serial },
                sink,
            );
            if self.tracing() {
                let mut ev = self.trace_event(TraceKind::DenySent, 0, seg, page, sink);
                ev.peer = Some(lib);
                ev.serial = serial;
                ev.detail = remaining.0;
                self.push_trace(ev, sink);
            }
            return;
        }
        self.honor_invalidation(seg, page, demand, readers, window, serial, store, sink);
    }

    /// A delayed (queued) invalidation's window expired; honor it now.
    pub(crate) fn use_delayed_invalidation(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let Some(d) = self.usr.entry_mut(seg, page).and_then(|e| e.delayed.take()) else {
            return;
        };
        self.honor_invalidation(
            seg, page, d.demand, d.readers, d.window, d.serial, store, sink,
        );
    }

    /// Carries out an accepted invalidation: "typically it: 1) invalidates
    /// the local page, 2) invalidates any other outstanding readers, if
    /// the page is a read-copy and 3) distributes the page to the new
    /// writer or any new readers." (§6.1)
    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    fn honor_invalidation(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        demand: Demand,
        readers: SiteSet,
        window: Delta,
        serial: u32,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let retry_on = self.config.retry.is_some();
        if retry_on {
            if let Some(entry) = self.usr.entry_mut(seg, page) {
                // A deferred duplicate can reach here after the live copy
                // of the same demand already started a round — drop it.
                if entry.round.is_some() {
                    return;
                }
                // This demand supersedes every grant stamped at or below
                // its serial: refuse any such stale install from now on.
                entry.min_install_serial = entry.min_install_serial.max(serial + 1);
            }
        } else {
            debug_assert!(
                self.usr
                    .seg(seg)
                    .and_then(|s| s.pages.get(page.index()))
                    .is_none_or(|e| e.round.is_none()),
                "library serializes demands per page"
            );
        }
        let duty = if self.tracing() { self.new_span().0 } else { 0 };
        match demand {
            Demand::Read { to } => {
                // We are the writer (Table 1 row 3). Grant read copies,
                // then downgrade ourselves (optimization 2) or discard.
                // Write access goes first: on real memory, application
                // threads store to the frame directly, and a store
                // landing after the copy would be lost to the readers.
                let downgraded = self.config.downgrade_optimization;
                let data = if downgraded {
                    store.set_prot(seg, page, PageProt::Read);
                    store.copy(seg, page)
                } else {
                    store.take(seg, page)
                };
                for r in to.iter() {
                    if r == self.site {
                        continue;
                    }
                    if retry_on {
                        self.retain_grant(
                            seg,
                            page,
                            PendingGrant {
                                to: r,
                                window,
                                data: data.clone(),
                                access: Access::Read,
                                upgrade: false,
                                serial,
                                attempt: 0,
                            },
                            sink,
                        );
                    }
                    let sent_delta = self.emit_data_grant(
                        seg,
                        page,
                        r,
                        Access::Read,
                        window,
                        data.clone(),
                        serial,
                        duty,
                        sink,
                    );
                    if self.tracing() && !sent_delta {
                        let mut ev =
                            self.trace_event(TraceKind::GrantSent, duty, seg, page, sink);
                        ev.peer = Some(r);
                        ev.access = Some(Access::Read);
                        ev.serial = serial;
                        ev.detail = u64::from(window.0);
                        self.push_trace(ev, sink);
                    }
                }
                if downgraded {
                    // Table 2: `install time` is "installation time for
                    // this page at this site" — a downgrade is not a new
                    // install, so the (already expired) window is NOT
                    // restarted. A reader that turns around and writes
                    // (the Figure 8 pattern) therefore upgrades without
                    // waiting out a second window.
                    if let Some(st) = self.usr.seg_mut(seg) {
                        st.aux.get_mut(page).window = window;
                    }
                    if self.tracing() {
                        let mut ev =
                            self.trace_event(TraceKind::Downgraded, duty, seg, page, sink);
                        ev.serial = serial;
                        ev.detail = u64::from(window.0);
                        self.push_trace(ev, sink);
                    }
                } else {
                    if self.tracing() {
                        let mut ev = self.trace_event(
                            TraceKind::CopyRelinquished,
                            duty,
                            seg,
                            page,
                            sink,
                        );
                        ev.serial = serial;
                        self.push_trace(ev, sink);
                    }
                }
                let info = DoneInfo { writer_downgraded: downgraded };
                let lib = self.library_route(seg, page).0;
                self.emit(lib, ProtoMsg::InvalidateDone { seg, page, info, serial }, sink);
                if self.tracing() {
                    let mut ev = self.trace_event(TraceKind::DoneSent, duty, seg, page, sink);
                    ev.peer = Some(lib);
                    ev.serial = serial;
                    ev.detail = u64::from(info.writer_downgraded);
                    self.push_trace(ev, sink);
                }
                if retry_on {
                    if let Some(entry) = self.usr.entry_mut(seg, page) {
                        entry.pending_done = Some((serial, info));
                        entry.done_attempt = 0;
                        entry.last_serial = serial;
                    }
                    self.arm_retry(0, TimerKind::DoneRetry { seg, page, serial }, sink);
                }
            }
            Demand::Write { to, upgrade } => {
                let i_am_writer = store.prot(seg, page) == PageProt::ReadWrite;
                let held_copy = readers.contains(self.site);
                // Victims: every reader except the upgrading requester
                // and ourselves (we invalidate locally, without a
                // message).
                let mut victims = readers;
                victims.remove(self.site);
                if upgrade {
                    victims.remove(to);
                }
                if self.tracing() {
                    let mut ev = self.trace_event(TraceKind::RoundStart, duty, seg, page, sink);
                    ev.serial = serial;
                    ev.access = Some(Access::Write);
                    ev.detail = victims.len() as u64;
                    self.push_trace(ev, sink);
                }
                // Invalidate the local copy; if we are the data source
                // (no upgrade), keep the bytes to forward. In retry mode
                // the relinquish is deferred to round *completion*
                // ([`SiteEngine::finish_write_round`]) so a crash
                // mid-round cannot lose the only copy of the page.
                let data = if self.site == to || retry_on {
                    None
                } else if upgrade {
                    store.set_prot(seg, page, PageProt::None);
                    if self.tracing() {
                        let mut ev = self.trace_event(
                            TraceKind::CopyRelinquished,
                            duty,
                            seg,
                            page,
                            sink,
                        );
                        ev.serial = serial;
                        self.push_trace(ev, sink);
                    }
                    None
                } else {
                    debug_assert!(i_am_writer || held_copy, "clock site must hold a copy");
                    let taken = store.take(seg, page);
                    if self.tracing() {
                        let mut ev = self.trace_event(
                            TraceKind::CopyRelinquished,
                            duty,
                            seg,
                            page,
                            sink,
                        );
                        ev.serial = serial;
                        self.push_trace(ev, sink);
                    }
                    Some(taken)
                };
                let mut round = InvRound {
                    demand: Demand::Write { to, upgrade },
                    window,
                    remaining: ReaderSet::empty(),
                    to_send: victims,
                    data,
                    serial,
                    attempt: 0,
                };
                if round.to_send.is_empty() {
                    if let Some(entry) = self.usr.entry_mut(seg, page) {
                        entry.round = Some(round);
                        entry.duty_span = duty;
                        self.finish_write_round(seg, page, store, sink);
                    }
                    return;
                }
                if self.config.multicast_invalidation {
                    // One multicast round: send all, await all acks.
                    let all = std::mem::replace(&mut round.to_send, ReaderSet::empty());
                    let targets: Vec<SiteId> = all.iter().collect();
                    round.remaining = all;
                    for v in targets {
                        self.emit(v, ProtoMsg::ReaderInvalidate { seg, page, serial }, sink);
                        if self.tracing() {
                            let mut ev = self.trace_event(
                                TraceKind::ReaderInvalidateSent,
                                duty,
                                seg,
                                page,
                                sink,
                            );
                            ev.peer = Some(v);
                            ev.serial = serial;
                            self.push_trace(ev, sink);
                        }
                    }
                } else {
                    // Paper behaviour: "invalidations are processed
                    // sequentially" — one victim at a time, in ascending
                    // site order.
                    let first = round.to_send.first().expect("to_send nonempty");
                    round.to_send.remove(first);
                    round.remaining.insert(first);
                    self.emit(first, ProtoMsg::ReaderInvalidate { seg, page, serial }, sink);
                    if self.tracing() {
                        let mut ev = self.trace_event(
                            TraceKind::ReaderInvalidateSent,
                            duty,
                            seg,
                            page,
                            sink,
                        );
                        ev.peer = Some(first);
                        ev.serial = serial;
                        self.push_trace(ev, sink);
                    }
                }
                if let Some(entry) = self.usr.entry_mut(seg, page) {
                    entry.round = Some(round);
                    entry.duty_span = duty;
                }
                if retry_on {
                    self.arm_retry(0, TimerKind::RoundRetry { seg, page, serial }, sink);
                }
            }
        }
    }

    /// The clock site told us to discard our read copy.
    pub(crate) fn use_reader_invalidate(
        &mut self,
        from: SiteId,
        seg: SegmentId,
        page: PageNum,
        serial: u32,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        if self.config.retry.is_some() {
            // Deferring the ack (the reliable-transport tactic below)
            // would deadlock under loss: the grant we are waiting for may
            // never arrive, wedging the clock's round forever. Instead the
            // discard is gated on the stale-grant floor — a duplicated
            // old invalidation must not destroy a copy re-granted since —
            // and the ack always goes out, echoing the serial so the
            // clock can match it to its current round.
            let apply = self.usr.entry_mut(seg, page).is_some_and(|e| {
                if serial < e.min_install_serial {
                    return false;
                }
                // Grants from superseded rounds (below this serial) are
                // now stale. The floor stops at `serial`, not past it:
                // when the upgrade optimization is off, the requester of
                // this very round is reader-invalidated like any other
                // copyholder and then receives the round's full
                // `PageGrant` stamped with the *same* serial — raising
                // the floor above it would drop (yet ack) that grant,
                // leaving the library convinced a writer exists at a
                // site that holds nothing and wedging every later serve
                // behind an invalidation no one can honor. Once the
                // grant installs, the install path raises the floor past
                // it, so duplicates still die.
                e.min_install_serial = serial;
                true
            });
            if apply {
                store.set_prot(seg, page, PageProt::None);
                if self.tracing() {
                    let mut ev =
                        self.trace_event(TraceKind::ReaderInvalidated, 0, seg, page, sink);
                    ev.peer = Some(from);
                    ev.serial = serial;
                    self.push_trace(ev, sink);
                }
            }
            self.emit(from, ProtoMsg::ReaderInvalidateAck { seg, page, serial }, sink);
            return;
        }
        if store.prot(seg, page) == PageProt::None {
            let expecting_grant = self
                .usr
                .seg(seg)
                .and_then(|s| s.pages.get(page.index()))
                .is_some_and(|e| e.out_read || e.out_write);
            if expecting_grant {
                // Our read copy from the *previous* demand is still in
                // flight on another circuit. Acking now would let the
                // stale grant install after the new writer's write —
                // defer the invalidation until the copy lands.
                if let Some(entry) = self.usr.entry_mut(seg, page) {
                    entry.deferred.push_back(DeferredOp::ReaderInvalidate { from, serial });
                }
                return;
            }
        }
        store.set_prot(seg, page, PageProt::None);
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::ReaderInvalidated, 0, seg, page, sink);
            ev.peer = Some(from);
            ev.serial = serial;
            self.push_trace(ev, sink);
        }
        self.emit(from, ProtoMsg::ReaderInvalidateAck { seg, page, serial }, sink);
    }

    /// A victim acknowledged its invalidation.
    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    pub(crate) fn use_reader_ack(
        &mut self,
        from: SiteId,
        seg: SegmentId,
        page: PageNum,
        serial: u32,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let retry_on = self.config.retry.is_some();
        let duty = if self.tracing() {
            self.usr.seg(seg).and_then(|s| s.pages.get(page.index())).map_or(0, |e| e.duty_span)
        } else {
            0
        };
        let finished = {
            let Some(round) = self.usr.entry_mut(seg, page).and_then(|e| e.round.as_mut())
            else {
                return;
            };
            // Duplicated or stale acks must not advance the round: the
            // sender must be a victim we are actually waiting on, and the
            // echoed serial must match the round being conducted.
            if retry_on && (serial != round.serial || !round.remaining.contains(from)) {
                return;
            }
            round.remaining.remove(from);
            if let Some(next) = round.to_send.first() {
                round.to_send.remove(next);
                round.remaining.insert(next);
                let rserial = round.serial;
                self.emit(
                    next,
                    ProtoMsg::ReaderInvalidate { seg, page, serial: rserial },
                    sink,
                );
                if self.tracing() {
                    let mut ev = self.trace_event(
                        TraceKind::ReaderInvalidateSent,
                        duty,
                        seg,
                        page,
                        sink,
                    );
                    ev.peer = Some(next);
                    ev.serial = rserial;
                    self.push_trace(ev, sink);
                }
                false
            } else {
                round.remaining.is_empty()
            }
        };
        if finished {
            self.finish_write_round(seg, page, store, sink);
        }
    }

    /// Round retransmit timer fired (retry mode): re-send the
    /// invalidation to every victim that has not acknowledged yet.
    pub(crate) fn use_round_retry(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        serial: u32,
        sink: &mut ActionSink,
    ) {
        let (targets, attempt, duty) = {
            let Some(entry) = self.usr.entry_mut(seg, page) else {
                return;
            };
            let duty = entry.duty_span;
            let Some(round) = entry.round.as_mut() else {
                return;
            };
            if round.serial != serial {
                return;
            }
            round.attempt += 1;
            (round.remaining.clone(), round.attempt, duty)
        };
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::RoundRetry, duty, seg, page, sink);
            ev.serial = serial;
            ev.detail = u64::from(attempt);
            self.push_trace(ev, sink);
        }
        for v in targets.iter() {
            self.emit(v, ProtoMsg::ReaderInvalidate { seg, page, serial }, sink);
        }
        self.arm_retry(attempt, TimerKind::RoundRetry { seg, page, serial }, sink);
    }

    /// All victims invalidated: deliver the write copy (or upgrade) and
    /// report completion to the library.
    fn finish_write_round(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let retry_on = self.config.retry.is_some();
        let (round, duty) = self
            .usr
            .entry_mut(seg, page)
            .and_then(|e| e.round.take().map(|r| (r, std::mem::take(&mut e.duty_span))))
            .expect("round in flight");
        let serial = round.serial;
        let Demand::Write { to, upgrade } = round.demand else {
            unreachable!("read demands never start ack rounds");
        };
        if to == self.site {
            // We are both clock site and requester: upgrade in place.
            store.set_prot(seg, page, PageProt::ReadWrite);
            let now = sink.now();
            let mut req_span = 0;
            if let Some(st) = self.usr.seg_mut(seg) {
                let e = st.aux.get_mut(page);
                e.install_time = now;
                e.window = round.window;
                if let Some(entry) = st.pages.get_mut(page.index()) {
                    entry.out_write = false;
                    entry.out_read = false;
                    req_span = std::mem::take(&mut entry.req_span);
                }
            }
            if self.tracing() {
                let span = if req_span != 0 { req_span } else { duty };
                let mut ev = self.trace_event(TraceKind::Upgraded, span, seg, page, sink);
                ev.serial = serial;
                ev.detail = u64::from(round.window.0);
                self.push_trace(ev, sink);
            }
            self.wake_satisfied(seg, page, store, sink);
        } else if upgrade {
            if retry_on {
                // Deferred relinquish (see `honor_invalidation`): every
                // victim has acknowledged — drop our copy now. Keeping
                // it readable until the upgrader's ack would leave a
                // *stale* copy here while the upgrader writes. But the
                // upgrader's read copy may itself have been lost in
                // transit (the library records readers when grants are
                // *emitted*, not when they install), so the bytes we
                // relinquish go into the retained entry as a reserve:
                // the notification retransmits until acknowledged, and
                // an `UpgradeNack` (receiver has no frame) escalates it
                // to a full data-carrying grant.
                let reserve = store.take(seg, page);
                if self.tracing() {
                    let mut ev =
                        self.trace_event(TraceKind::CopyRelinquished, duty, seg, page, sink);
                    ev.serial = serial;
                    self.push_trace(ev, sink);
                }
                self.retain_grant(
                    seg,
                    page,
                    PendingGrant {
                        to,
                        window: round.window,
                        data: reserve,
                        access: Access::Write,
                        upgrade: true,
                        serial,
                        attempt: 0,
                    },
                    sink,
                );
            }
            // §6.1 optimization 1: notification, not a page copy.
            self.emit(
                to,
                ProtoMsg::UpgradeGrant { seg, page, window: round.window, serial },
                sink,
            );
            if self.tracing() {
                let mut ev = self.trace_event(TraceKind::UpgradeSent, duty, seg, page, sink);
                ev.peer = Some(to);
                ev.serial = serial;
                ev.detail = u64::from(round.window.0);
                self.push_trace(ev, sink);
            }
        } else {
            let data = if retry_on {
                // Deferred relinquish: the only copy leaves this site in
                // the grant below, so retain it (`pending_grant`) until
                // the receiver acknowledges installation.
                let taken = store.take(seg, page);
                if self.tracing() {
                    let mut ev =
                        self.trace_event(TraceKind::CopyRelinquished, duty, seg, page, sink);
                    ev.serial = serial;
                    self.push_trace(ev, sink);
                }
                taken
            } else {
                round.data.expect("non-upgrade write demand carries data")
            };
            if retry_on {
                self.retain_grant(
                    seg,
                    page,
                    PendingGrant {
                        to,
                        window: round.window,
                        data: data.clone(),
                        access: Access::Write,
                        upgrade: false,
                        serial,
                        attempt: 0,
                    },
                    sink,
                );
            }
            let sent_delta = self.emit_data_grant(
                seg,
                page,
                to,
                Access::Write,
                round.window,
                data,
                serial,
                duty,
                sink,
            );
            if self.tracing() && !sent_delta {
                let mut ev = self.trace_event(TraceKind::GrantSent, duty, seg, page, sink);
                ev.peer = Some(to);
                ev.access = Some(Access::Write);
                ev.serial = serial;
                ev.detail = u64::from(round.window.0);
                self.push_trace(ev, sink);
            }
        }
        let info = DoneInfo { writer_downgraded: false };
        let lib = self.library_route(seg, page).0;
        self.emit(lib, ProtoMsg::InvalidateDone { seg, page, info, serial }, sink);
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::DoneSent, duty, seg, page, sink);
            ev.peer = Some(lib);
            ev.serial = serial;
            self.push_trace(ev, sink);
        }
        if retry_on {
            if let Some(entry) = self.usr.entry_mut(seg, page) {
                entry.pending_done = Some((serial, info));
                entry.done_attempt = 0;
                entry.last_serial = serial;
            }
            self.arm_retry(0, TimerKind::DoneRetry { seg, page, serial }, sink);
        }
    }

    /// A page arrived from the storing site.
    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    pub(crate) fn use_grant(
        &mut self,
        from: SiteId,
        seg: SegmentId,
        page: PageNum,
        access: Access,
        window: Delta,
        data: PageData,
        serial: u32,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let retry_on = self.config.retry.is_some();
        if retry_on {
            let stale = self
                .usr
                .seg(seg)
                .and_then(|s| s.pages.get(page.index()))
                .is_some_and(|e| serial < e.min_install_serial);
            if stale {
                // Duplicated or superseded grant: do not install, but
                // still acknowledge so the granter releases its retained
                // entry and stops retransmitting — staleness means we
                // already installed this grant once, or something newer
                // superseded it.
                if self.tracing() {
                    let mut ev =
                        self.trace_event(TraceKind::StaleGrantDropped, 0, seg, page, sink);
                    ev.peer = Some(from);
                    ev.access = Some(access);
                    ev.serial = serial;
                    self.push_trace(ev, sink);
                }
                self.emit(from, ProtoMsg::GrantAck { seg, page, serial }, sink);
                return;
            }
        }
        self.install_grant(from, seg, page, access, window, data, serial, store, sink);
    }

    /// A grant arrived as a diff against the last transfer we exchanged
    /// with the granter (delta-grant mode). Patch a clone of the shadow
    /// slot and install the result exactly as a full grant would be
    /// installed; when the slot is missing or its tag does not match
    /// the base the sender diffed against, nack so the granter
    /// escalates to a full [`ProtoMsg::PageGrant`].
    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    pub(crate) fn use_grant_delta(
        &mut self,
        from: SiteId,
        seg: SegmentId,
        page: PageNum,
        access: Access,
        window: Delta,
        base_tag: u64,
        diff: PageDiff,
        serial: u32,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let retry_on = self.config.retry.is_some();
        if retry_on {
            let stale = self
                .usr
                .seg(seg)
                .and_then(|s| s.pages.get(page.index()))
                .is_some_and(|e| serial < e.min_install_serial);
            if stale {
                if self.tracing() {
                    let mut ev =
                        self.trace_event(TraceKind::StaleGrantDropped, 0, seg, page, sink);
                    ev.peer = Some(from);
                    ev.access = Some(access);
                    ev.serial = serial;
                    self.push_trace(ev, sink);
                }
                self.emit(from, ProtoMsg::GrantAck { seg, page, serial }, sink);
                return;
            }
        }
        // The base is the retained shadow, never the live frame: a
        // relinquished frame has no bytes left, and the tag is a content
        // hash, so a matching slot holds the exact bytes the sender
        // diffed against no matter which peer delivered them.
        let patched = self.usr.entry_mut(seg, page).and_then(|e| {
            let sh = e.shadow.as_ref()?;
            if sh.tag != base_tag {
                return None;
            }
            let mut data = sh.data.clone();
            diff.apply(data.as_bytes_mut());
            Some(data)
        });
        let Some(data) = patched else {
            // Missing or diverged base (e.g. we restarted since the last
            // transfer, or the original delta this retransmission
            // duplicates was lost before it could advance our slot). The
            // granter evicts its slot for us and escalates the retained
            // grant to a full transfer.
            if self.tracing() {
                let mut ev = self.trace_event(TraceKind::DeltaRejected, 0, seg, page, sink);
                ev.peer = Some(from);
                ev.access = Some(access);
                ev.serial = serial;
                ev.detail = base_tag;
                self.push_trace(ev, sink);
            }
            self.emit(from, ProtoMsg::UpgradeNack { seg, page, serial }, sink);
            return;
        };
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::DeltaPatched, 0, seg, page, sink);
            ev.peer = Some(from);
            ev.access = Some(access);
            ev.serial = serial;
            ev.detail = fnv64(data.as_bytes());
            self.push_trace(ev, sink);
        }
        self.install_grant(from, seg, page, access, window, data, serial, store, sink);
    }

    /// Shared install tail for full grants and patched deltas: map the
    /// bytes, refresh the aux window, close out request state, trace,
    /// ack (retry mode), and wake.
    #[allow(clippy::too_many_arguments)]
    fn install_grant(
        &mut self,
        from: SiteId,
        seg: SegmentId,
        page: PageNum,
        access: Access,
        window: Delta,
        data: PageData,
        serial: u32,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let retry_on = self.config.retry.is_some();
        if self.config.delta_grants {
            self.set_shadow(seg, page, from, &data);
        }
        let prot = match access {
            Access::Read => PageProt::Read,
            Access::Write => PageProt::ReadWrite,
        };
        store.install(seg, page, data, prot);
        let now = sink.now();
        let mut req_span = 0;
        if let Some(st) = self.usr.seg_mut(seg) {
            let e = st.aux.get_mut(page);
            e.install_time = now;
            e.window = window;
            if let Some(entry) = st.pages.get_mut(page.index()) {
                entry.out_read = false;
                if access == Access::Write {
                    entry.out_write = false;
                }
                // A read grant can land while a write request is still in
                // flight; that request's fetch span stays open for the
                // upgrade it will produce.
                req_span = if entry.out_write {
                    entry.req_span
                } else {
                    std::mem::take(&mut entry.req_span)
                };
                if retry_on {
                    // Anything stamped at or below what we just installed
                    // is older than our copy.
                    entry.min_install_serial = entry.min_install_serial.max(serial + 1);
                }
            }
        }
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::Installed, req_span, seg, page, sink);
            ev.peer = Some(from);
            ev.access = Some(access);
            ev.serial = serial;
            ev.detail = u64::from(window.0);
            self.push_trace(ev, sink);
        }
        if retry_on {
            self.emit(from, ProtoMsg::GrantAck { seg, page, serial }, sink);
        }
        self.wake_satisfied(seg, page, store, sink);
        self.drain_deferred(seg, page, store, sink);
    }

    /// We held a read copy and are now the writer (optimization 1).
    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    pub(crate) fn use_upgrade(
        &mut self,
        from: SiteId,
        seg: SegmentId,
        page: PageNum,
        window: Delta,
        serial: u32,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let retry_on = self.config.retry.is_some();
        if retry_on {
            let stale = self
                .usr
                .seg(seg)
                .and_then(|s| s.pages.get(page.index()))
                .is_some_and(|e| serial < e.min_install_serial);
            if stale {
                // A delayed/duplicated upgrade from a serve that has been
                // superseded must not re-promote us, but the granter
                // still needs the ack to release its retained copy.
                if self.tracing() {
                    let mut ev =
                        self.trace_event(TraceKind::StaleGrantDropped, 0, seg, page, sink);
                    ev.peer = Some(from);
                    ev.access = Some(Access::Write);
                    ev.serial = serial;
                    self.push_trace(ev, sink);
                }
                self.emit(from, ProtoMsg::GrantAck { seg, page, serial }, sink);
                return;
            }
            if store.prot(seg, page) == PageProt::None {
                // The read copy this upgrade presumes never arrived
                // (lost in transit, or its granting instruction died
                // with a crashed library). We cannot become the writer
                // without bytes — tell the granter, which escalates its
                // retained notification to a full data-carrying grant.
                if self.tracing() {
                    let mut ev =
                        self.trace_event(TraceKind::UpgradeNackSent, 0, seg, page, sink);
                    ev.peer = Some(from);
                    ev.serial = serial;
                    self.push_trace(ev, sink);
                }
                self.emit(from, ProtoMsg::UpgradeNack { seg, page, serial }, sink);
                return;
            }
        }
        store.set_prot(seg, page, PageProt::ReadWrite);
        let now = sink.now();
        let mut req_span = 0;
        if let Some(st) = self.usr.seg_mut(seg) {
            let e = st.aux.get_mut(page);
            e.install_time = now;
            e.window = window;
            if let Some(entry) = st.pages.get_mut(page.index()) {
                entry.out_read = false;
                entry.out_write = false;
                req_span = std::mem::take(&mut entry.req_span);
                if retry_on {
                    entry.min_install_serial = entry.min_install_serial.max(serial + 1);
                }
            }
        }
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::Upgraded, req_span, seg, page, sink);
            ev.peer = Some(from);
            ev.serial = serial;
            ev.detail = u64::from(window.0);
            self.push_trace(ev, sink);
        }
        if retry_on {
            self.emit(from, ProtoMsg::GrantAck { seg, page, serial }, sink);
        }
        self.wake_satisfied(seg, page, store, sink);
        self.drain_deferred(seg, page, store, sink);
    }

    /// Runs clock-site duties that were deferred while our copy was in
    /// flight. Each op is dispatched once; an op that still cannot run
    /// (copy gone again) re-defers itself without looping.
    fn drain_deferred(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let Some(ops) = self.usr.entry_mut(seg, page).map(|e| std::mem::take(&mut e.deferred))
        else {
            return;
        };
        for op in ops {
            match op {
                DeferredOp::Invalidate { demand, readers, window, serial } => {
                    self.use_invalidate(
                        seg, page, demand, readers, window, serial, store, sink,
                    );
                }
                DeferredOp::AddReaders { readers, window, serial } => {
                    self.use_add_readers(seg, page, readers, window, serial, store, sink);
                }
                DeferredOp::ReaderInvalidate { from, serial } => {
                    self.use_reader_invalidate(from, seg, page, serial, store, sink);
                }
            }
        }
    }

    /// Library confirmed receipt of a completion report: stop
    /// retransmitting it.
    pub(crate) fn use_done_ack(&mut self, seg: SegmentId, page: PageNum, serial: u32) {
        if let Some(entry) = self.usr.entry_mut(seg, page) {
            if matches!(entry.pending_done, Some((s, _)) if s == serial) {
                entry.pending_done = None;
                entry.done_attempt = 0;
            }
        }
    }

    /// Emits a data-carrying grant to `to`, choosing the wire form:
    /// when delta grants are on and the shadow slot holds this
    /// recipient's last transfer, ship an XOR diff against it wherever
    /// that is smaller than the full page; otherwise ship the page.
    /// Either way the slot advances to the content now on the wire, so
    /// a retransmission recomputes against the *current* slot — after a
    /// successful first delta that yields an empty diff the installed
    /// receiver acks as stale, and after a *lost* first delta the
    /// receiver's tag mismatches, it nacks, and the grant escalates to
    /// a full transfer.
    ///
    /// Returns true when a delta was sent (and traced as
    /// [`TraceKind::DeltaGrantSent`]); the caller traces its own
    /// `GrantSent` only for the full form, so the two kinds partition
    /// data grants for the metrics split.
    #[allow(clippy::too_many_arguments)]
    fn emit_data_grant(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        to: SiteId,
        access: Access,
        window: Delta,
        data: PageData,
        serial: u32,
        span: u64,
        sink: &mut ActionSink,
    ) -> bool {
        if self.config.delta_grants {
            let choice = self.usr.entry_mut(seg, page).and_then(|e| {
                let sh = e.shadow.as_ref()?;
                if sh.peer != to {
                    return None;
                }
                let diff = PageDiff::compute(sh.data.as_bytes(), data.as_bytes());
                let payload = ProtoMsg::delta_payload_bytes(&diff);
                (payload < ProtoMsg::FULL_GRANT_PAYLOAD_BYTES)
                    .then_some((sh.tag, diff, payload))
            });
            self.set_shadow(seg, page, to, &data);
            if let Some((base_tag, diff, payload)) = choice {
                let tag = fnv64(data.as_bytes());
                self.emit(
                    to,
                    ProtoMsg::PageGrantDelta {
                        seg,
                        page,
                        access,
                        window,
                        base_tag,
                        diff,
                        serial,
                    },
                    sink,
                );
                if self.tracing() {
                    let mut ev =
                        self.trace_event(TraceKind::DeltaGrantSent, span, seg, page, sink);
                    ev.peer = Some(to);
                    ev.access = Some(access);
                    ev.serial = serial;
                    ev.detail = tag;
                    ev.epoch = payload as u32;
                    self.push_trace(ev, sink);
                }
                return true;
            }
        }
        self.emit(to, ProtoMsg::PageGrant { seg, page, access, window, data, serial }, sink);
        false
    }

    /// Replaces the page's delta base with the content just transferred
    /// to or from `peer` (delta-grant mode only). Reuses the slot's
    /// allocation once one exists, so steady-state ping-pong does not
    /// churn the heap.
    fn set_shadow(&mut self, seg: SegmentId, page: PageNum, peer: SiteId, data: &PageData) {
        let Some(entry) = self.usr.entry_mut(seg, page) else {
            return;
        };
        let tag = fnv64(data.as_bytes());
        match entry.shadow.as_deref_mut() {
            Some(sh) => {
                sh.peer = peer;
                sh.tag = tag;
                sh.data.as_bytes_mut().copy_from_slice(data.as_bytes());
            }
            None => {
                entry.shadow = Some(Box::new(ShadowBase { peer, tag, data: data.clone() }));
            }
        }
    }

    /// Remembers a grant until its receiver acknowledges installation
    /// (retry mode), arming the retransmit chain. Retransmitted serve
    /// instructions can re-grant the same (receiver, serial) pair;
    /// those duplicates are not retained twice.
    fn retain_grant(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        grant: PendingGrant,
        sink: &mut ActionSink,
    ) {
        let serial = grant.serial;
        let Some(entry) = self.usr.entry_mut(seg, page) else {
            return;
        };
        if entry.pending_grants.iter().any(|g| g.to == grant.to && g.serial == serial) {
            return;
        }
        entry.pending_grants.push(grant);
        self.arm_retry(0, TimerKind::GrantRetry { seg, page, serial }, sink);
    }

    /// The upgrade receiver has no frame to promote: its read copy was
    /// lost. Escalate the retained notification to a full data-carrying
    /// write grant — the reserve bytes taken at relinquish time travel
    /// now. Idempotent: a duplicate nack just retransmits the grant.
    pub(crate) fn use_upgrade_nack(
        &mut self,
        from: SiteId,
        seg: SegmentId,
        page: PageNum,
        serial: u32,
        sink: &mut ActionSink,
    ) {
        let Some(entry) = self.usr.entry_mut(seg, page) else {
            return;
        };
        // A nack also rejects a delta whose base the receiver no longer
        // holds: drop our slot for that peer so we stop diffing against
        // a base it cannot patch (the escalated full grant below
        // re-bootstraps it).
        if entry.shadow.as_deref().is_some_and(|sh| sh.peer == from) {
            entry.shadow = None;
        }
        let Some(g) =
            entry.pending_grants.iter_mut().find(|g| g.to == from && g.serial == serial)
        else {
            return;
        };
        g.upgrade = false;
        let (to, window, data, access) = (g.to, g.window, g.data.clone(), g.access);
        if self.config.delta_grants {
            self.set_shadow(seg, page, to, &data);
        }
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::GrantEscalated, 0, seg, page, sink);
            ev.peer = Some(to);
            ev.access = Some(access);
            ev.serial = serial;
            self.push_trace(ev, sink);
        }
        self.emit(to, ProtoMsg::PageGrant { seg, page, access, window, data, serial }, sink);
    }

    /// Receiver confirmed installation of a grant: drop the retained
    /// entry, ending its retransmit chain.
    pub(crate) fn use_grant_ack(
        &mut self,
        from: SiteId,
        seg: SegmentId,
        page: PageNum,
        serial: u32,
    ) {
        if let Some(entry) = self.usr.entry_mut(seg, page) {
            entry.pending_grants.retain(|g| !(g.to == from && g.serial == serial));
        }
    }

    /// Completion-report retransmit timer fired (retry mode).
    pub(crate) fn use_done_retry(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        serial: u32,
        sink: &mut ActionSink,
    ) {
        let Some(entry) = self.usr.entry_mut(seg, page) else {
            return;
        };
        let info = match &entry.pending_done {
            Some((s, info)) if *s == serial => *info,
            _ => return,
        };
        entry.done_attempt += 1;
        let attempt = entry.done_attempt;
        let lib = self.library_route(seg, page).0;
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::DoneRetry, 0, seg, page, sink);
            ev.peer = Some(lib);
            ev.serial = serial;
            ev.detail = u64::from(attempt);
            self.push_trace(ev, sink);
        }
        self.emit(lib, ProtoMsg::InvalidateDone { seg, page, info, serial }, sink);
        self.arm_retry(attempt, TimerKind::DoneRetry { seg, page, serial }, sink);
    }

    /// Grant retransmit timer fired (retry mode): re-send every
    /// retained grant stamped with this serial that is still unacked.
    pub(crate) fn use_grant_retry(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        serial: u32,
        sink: &mut ActionSink,
    ) {
        let Some(entry) = self.usr.entry_mut(seg, page) else {
            return;
        };
        let mut sends = Vec::new();
        let mut attempt = 0;
        for g in &mut entry.pending_grants {
            if g.serial == serial {
                g.attempt += 1;
                attempt = attempt.max(g.attempt);
                sends.push((g.to, g.window, g.data.clone(), g.access, g.upgrade));
            }
        }
        if sends.is_empty() {
            return;
        }
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::GrantRetry, 0, seg, page, sink);
            ev.serial = serial;
            ev.detail = sends.len() as u64;
            self.push_trace(ev, sink);
        }
        for (to, window, data, access, upgrade) in sends {
            if upgrade {
                self.emit(to, ProtoMsg::UpgradeGrant { seg, page, window, serial }, sink);
            } else {
                // Re-decides the wire form against the current shadow;
                // see `emit_data_grant` for why a retransmit after a
                // lost delta escalates instead of wedging.
                self.emit_data_grant(seg, page, to, access, window, data, serial, 0, sink);
            }
        }
        self.arm_retry(attempt, TimerKind::GrantRetry { seg, page, serial }, sink);
    }

    /// Site restart (retry mode): retransmit every persistent unacked
    /// obligation and re-arm its retry chain. Volatile state (waiters,
    /// rounds, request flags) was lost in the crash; the other sites'
    /// retries and the local processes' re-faults rebuild it.
    pub(crate) fn use_restart(&mut self, sink: &mut ActionSink) {
        if self.config.retry.is_none() {
            return;
        }
        for (seg, page) in self.usr.pending_pages() {
            let (done_serial, mut grant_serials) = {
                let Some(entry) = self.usr.entry_mut(seg, page) else {
                    continue;
                };
                (
                    entry.pending_done.as_ref().map(|&(s, _)| s),
                    entry.pending_grants.iter().map(|g| g.serial).collect::<Vec<_>>(),
                )
            };
            if let Some(s) = done_serial {
                self.use_done_retry(seg, page, s, sink);
            }
            grant_serials.sort_unstable();
            grant_serials.dedup();
            for s in grant_serials {
                self.use_grant_retry(seg, page, s, sink);
            }
        }
    }

    /// A library-bound message of ours hit a forwarding stub: the role
    /// moved. Apply the redirect if it is news (strictly newer epoch),
    /// then immediately re-aim every outstanding library-bound
    /// obligation for the segment at the new site — the retransmit
    /// chains would find it eventually, but re-sending now saves a full
    /// backoff interval per obligation.
    pub(crate) fn use_redirect(
        &mut self,
        from: SiteId,
        seg: SegmentId,
        page: PageNum,
        epoch: u32,
        to: SiteId,
        sink: &mut ActionSink,
    ) {
        let Some((_, current)) = self.usr.lib_hint(seg, page) else {
            return;
        };
        if epoch <= current {
            // Stale stub (we already chased the role further) or a
            // duplicate of a redirect already applied.
            return;
        }
        self.usr.set_lib_hint(seg, page, to, epoch);
        if self.tracing() {
            let mut ev = self.trace_event(TraceKind::RedirectApplied, 0, seg, page, sink);
            ev.peer = Some(to);
            ev.epoch = epoch;
            ev.detail = u64::from(from.0);
            self.push_trace(ev, sink);
        }
        // Re-emit outstanding requests and unacked completion reports —
        // only for pages in the shard the redirect names: other shards'
        // roles did not move, and their obligations still aim correctly.
        // No attempt bump and no new timers: the existing retry chains
        // stay armed and cover loss of these re-sends too.
        for p in self.usr.shard_range(seg, page) {
            let pg = PageNum(p as u32);
            let Some(entry) = self.usr.entry_mut(seg, pg) else {
                continue;
            };
            // A write request covers a read one: resend the strongest
            // outstanding class, as the retry path does.
            let access = if entry.out_write {
                Some(Access::Write)
            } else if entry.out_read {
                Some(Access::Read)
            } else {
                None
            };
            let pid = entry
                .retry_pid
                .or_else(|| entry.waiters.first().map(|&(pid, _)| pid))
                .unwrap_or(Pid::new(self.site, 0));
            let done = entry.pending_done;
            if let Some(access) = access {
                self.emit(
                    to,
                    ProtoMsg::PageRequest { seg, page: pg, access, pid, epoch },
                    sink,
                );
            }
            if let Some((serial, info)) = done {
                self.emit(to, ProtoMsg::InvalidateDone { seg, page: pg, info, serial }, sink);
            }
        }
    }

    /// Wakes every blocked process whose access the page now permits.
    fn wake_satisfied(
        &mut self,
        seg: SegmentId,
        page: PageNum,
        store: &mut dyn PageStore,
        sink: &mut ActionSink,
    ) {
        let prot = store.prot(seg, page);
        // The scratch vector is owned by UseState and reused across
        // calls, so waking allocates nothing in steady state.
        let mut scratch = std::mem::take(&mut self.usr.wake_scratch);
        scratch.clear();
        if let Some(entry) = self.usr.entry_mut(seg, page) {
            entry.waiters.retain(|&(pid, access)| {
                if prot.permits(access) {
                    scratch.push(pid);
                    false
                } else {
                    true
                }
            });
        }
        for &pid in &scratch {
            sink.push(Action::Wake { pid });
        }
        self.usr.wake_scratch = scratch;
    }
}
