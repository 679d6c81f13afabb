//! The structured protocol event trace.
//!
//! Every interesting protocol transition — a fault taken, a request
//! queued at the library, an invalidation round, a grant installed, a
//! retransmission, a fault-layer decision — is recorded as one
//! [`TraceEvent`]: a small, `Copy`, fixed-size record stamped with
//! simulated time, the emitting site, and a causal [`SpanId`].
//!
//! Spans are *per-site* causal segments of one logical demand:
//!
//! * the **requesting** site opens a span at the page fault and closes
//!   it at install/upgrade (`FaultTaken … Installed`);
//! * the **library** site opens a span when a serve starts and closes
//!   it at `ServeDone`;
//! * the **clock** site opens a span when it honors an invalidation and
//!   threads it through the victim round, the grants, and the
//!   `InvalidateDone` (including every retry chain).
//!
//! The three segments of one demand are correlated offline by
//! `(seg, page, serial)` — span ids are never put on the wire, so
//! tracing cannot change protocol behaviour. Events are emitted only
//! when tracing is enabled; the disabled path constructs nothing.

use core::fmt;

use mirage_net::MsgKind;
use mirage_types::{
    Access,
    PageNum,
    Pid,
    SegmentId,
    SimTime,
    SiteId,
};

/// A per-site causal span identifier.
///
/// Encoded as `(site + 1) << 48 | counter` so ids are unique across
/// sites without coordination; the all-zero value is [`SpanId::NONE`]
/// (event not part of any span).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: the event is not part of any demand's lifecycle.
    pub const NONE: SpanId = SpanId(0);

    /// Builds a span id from an allocating site and a site-local counter.
    #[inline]
    pub fn new(site: SiteId, counter: u64) -> Self {
        SpanId(((u64::from(site.0) + 1) << 48) | (counter & 0xFFFF_FFFF_FFFF))
    }

    /// True for [`SpanId::NONE`].
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The site that allocated this span (`None` for [`SpanId::NONE`]).
    pub fn site(self) -> Option<SiteId> {
        if self.is_none() {
            None
        } else {
            Some(SiteId(((self.0 >> 48) - 1) as u16))
        }
    }

    /// The site-local counter part of the id.
    pub fn counter(self) -> u64 {
        self.0 & 0xFFFF_FFFF_FFFF
    }
}

impl fmt::Debug for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.site() {
            None => write!(f, "-"),
            Some(site) => write!(f, "{}#{}", site.0, self.counter()),
        }
    }
}

/// What happened. Grouped by the site role that emits the event; the
/// wire/fault kinds at the end are emitted by the transport (the
/// simulator), not the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    // -- requesting site ------------------------------------------------
    /// A process took a page fault that could not be satisfied locally.
    FaultTaken,
    /// A `PageRequest` left for the library site.
    RequestSent,
    /// The request timer fired and the `PageRequest` was retransmitted.
    RequestRetry,
    /// A `PageGrant` was installed (`detail` = window in ticks).
    Installed,
    /// The site became the writer in place (upgrade or self-grant;
    /// `detail` = window in ticks).
    Upgraded,
    /// An arriving grant predated `min_install_serial` and was dropped.
    StaleGrantDropped,

    // -- library site ---------------------------------------------------
    /// A `PageRequest` entered the library queue (`detail` = depth
    /// after insertion).
    RequestQueued,
    /// The library started serving a demand (sent `Invalidate` or
    /// confirmed a stale writer).
    ServeStart,
    /// The serve timer fired and the `Invalidate` was retransmitted.
    ServeRetry,
    /// The library batched readers onto the current copy set without
    /// invalidating (`detail` = readers added).
    AddReadersSent,
    /// The clock refused the invalidation (`detail` = wait in ns).
    DenyReceived,
    /// The deny backoff expired and the library re-sent the
    /// `Invalidate`.
    DenyRetry,
    /// `InvalidateDone` arrived; the serve is complete (`detail` = 1 if
    /// the writer was downgraded in place).
    ServeDone,
    /// The library role was frozen for a handoff: records snapshotted,
    /// slot deactivated, forwarding stub installed (`peer` = the
    /// destination site, `epoch` = the new handoff epoch).
    LibraryFrozen,
    /// The frozen library state left for the destination site
    /// (`detail` = retransmit attempt, 0 for the initial send).
    HandoffSent,
    /// A handoff was adopted: this site is now the segment's library
    /// (`peer` = the old library site, `detail` = pages with an
    /// in-flight serve reanimated).
    LibraryActivated,
    /// The destination acknowledged the handoff; the old site stops
    /// retransmitting the frozen state.
    HandoffAcked,
    /// A library-bound message hit a deactivated slot and the sender
    /// was pointed at the new site (`peer` = the redirected sender).
    RedirectSent,
    /// A redirect with a newer epoch updated this site's library hint
    /// (`peer` = the new library site; outstanding requests re-aimed).
    RedirectApplied,

    // -- clock site -----------------------------------------------------
    /// The clock denied an invalidation inside its Δ window
    /// (`detail` = remaining window in ns).
    DenySent,
    /// Queued-invalidation mode: the invalidation was shelved until
    /// window expiry (`detail` = delay in ns).
    InvalidateQueued,
    /// The invalidation arrived before the copy it refers to and was
    /// deferred.
    InvalidateDeferred,
    /// An `AddReaders` duty arrived before the copy and was deferred.
    AddReadersDeferred,
    /// The clock accepted the invalidation and opened a victim round
    /// (`detail` = victim count).
    RoundStart,
    /// A `ReaderInvalidate` left for a victim reader.
    ReaderInvalidateSent,
    /// A victim reader discarded its copy (or acknowledged an already
    /// absent one).
    ReaderInvalidated,
    /// The round timer fired and outstanding `ReaderInvalidate`s were
    /// retransmitted.
    RoundRetry,
    /// A `PageGrant` left for the new copy holder.
    GrantSent,
    /// An `UpgradeGrant` notification left for the stale-PTE writer.
    UpgradeSent,
    /// A retained grant was retransmitted by the grant timer
    /// (`detail` = grants resent).
    GrantRetry,
    /// An `UpgradeNack` came back and the granter escalated to a full
    /// `PageGrant`.
    GrantEscalated,
    /// The receiver of an `UpgradeGrant` had no frame and nacked it.
    UpgradeNackSent,
    /// A `PageGrantDelta` left for the new copy holder (`peer` = the
    /// recipient, `detail` = fnv64 hash of the page content the patch
    /// must reproduce, `epoch` = encoded payload bytes — a
    /// kind-specific reuse; delta grants never cross a handoff epoch
    /// boundary in one message).
    DeltaGrantSent,
    /// A delta grant's spans were applied to the local shadow copy and
    /// the result installed (`peer` = the granter, `detail` = fnv64
    /// hash of the patched page).
    DeltaPatched,
    /// A delta grant arrived but the local shadow was missing or did
    /// not match `base_tag`; the receiver nacked for a full grant.
    DeltaRejected,
    /// The writer kept a read copy while granting reads
    /// (`detail` = window in ticks; the window clock is *not*
    /// restarted).
    Downgraded,
    /// The clock gave up its own copy as part of honoring an
    /// invalidation.
    CopyRelinquished,
    /// `InvalidateDone` left for the library.
    DoneSent,
    /// The done timer fired and `InvalidateDone` was retransmitted.
    DoneRetry,

    // -- timestamp coherence (Tardis home site) --------------------------
    /// The home served a read lease with the page
    /// (`detail` = `(wts << 32) | rts` of the grant, `peer` = the
    /// requester).
    TsReadGranted,
    /// The home extended a lease for a version the requester already
    /// caches — no data on the wire (`detail` = `(wts << 32) | rts`).
    TsRenewGranted,
    /// The home granted exclusive ownership at a bumped write
    /// timestamp (`detail` = `(wts << 32) | rts` after the bump,
    /// `access` = Write; `epoch` = 1 when the grant carried the page,
    /// 0 for an in-place upgrade).
    TsWriteGranted,
    /// The home asked the current exclusive owner to surrender its
    /// copy (`peer` = the owner).
    TsRecallSent,
    /// The home adopted a write-back into the master copy
    /// (`detail` = the written version's `wts`, `peer` = the owner).
    TsWriteBackApplied,

    // -- timestamp coherence (Tardis requesting site) --------------------
    /// A read lease with data was installed
    /// (`detail` = `(wts << 32) | rts`).
    TsInstalled,
    /// A lease extension refreshed the cached copy in place
    /// (`detail` = `(wts << 32) | rts`).
    TsRenewed,
    /// This site became the exclusive owner (`detail` = the new `wts`).
    TsUpgraded,
    /// The site's program timestamp advanced past a cached lease; the
    /// copy is now stale-until-renewed (`detail` = `(pts << 32) | rts`
    /// of the expired lease).
    TsLeaseExpired,
    /// The owner surrendered its copy to the home
    /// (`detail` = the surrendered version's `wts`; `epoch` = 1 when
    /// the write-back carried dirty data, 0 for a clean confirmation).
    TsWriteBackSent,

    // -- wire / fault layer (emitted by the transport) -------------------
    /// A message was put on the wire (`detail` = wire latency in ns).
    MsgSent,
    /// The fault plan dropped the message.
    MsgDropped,
    /// The fault plan added latency (`detail` = extra ns).
    MsgDelayed,
    /// The fault plan injected a duplicate copy.
    MsgDuplicated,
    /// The receiver held an out-of-order message back for a gap fill.
    MsgHeldBack,
    /// The receiver declared a sequence gap lost and advanced past it.
    GapDeclared,
    /// A duplicate was discarded by the circuit layer.
    MsgDupDiscarded,
    /// A message from a stale incarnation (or to a down site) was
    /// discarded.
    MsgStaleDropped,
    /// The site crashed (volatile state lost).
    SiteCrash,
    /// The site restarted (`detail` = incarnation).
    SiteRestart,
}

impl TraceKind {
    /// How many kinds there are (`SiteRestart` is the last variant), so
    /// `kind as usize` indexes a per-kind counter array.
    pub const COUNT: usize = TraceKind::SiteRestart as usize + 1;

    /// Short stable name used by the text and JSON encodings.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::FaultTaken => "fault_taken",
            TraceKind::RequestSent => "request_sent",
            TraceKind::RequestRetry => "request_retry",
            TraceKind::Installed => "installed",
            TraceKind::Upgraded => "upgraded",
            TraceKind::StaleGrantDropped => "stale_grant_dropped",
            TraceKind::RequestQueued => "request_queued",
            TraceKind::ServeStart => "serve_start",
            TraceKind::ServeRetry => "serve_retry",
            TraceKind::AddReadersSent => "add_readers_sent",
            TraceKind::DenyReceived => "deny_received",
            TraceKind::DenyRetry => "deny_retry",
            TraceKind::ServeDone => "serve_done",
            TraceKind::LibraryFrozen => "library_frozen",
            TraceKind::HandoffSent => "handoff_sent",
            TraceKind::LibraryActivated => "library_activated",
            TraceKind::HandoffAcked => "handoff_acked",
            TraceKind::RedirectSent => "redirect_sent",
            TraceKind::RedirectApplied => "redirect_applied",
            TraceKind::DenySent => "deny_sent",
            TraceKind::InvalidateQueued => "invalidate_queued",
            TraceKind::InvalidateDeferred => "invalidate_deferred",
            TraceKind::AddReadersDeferred => "add_readers_deferred",
            TraceKind::RoundStart => "round_start",
            TraceKind::ReaderInvalidateSent => "reader_invalidate_sent",
            TraceKind::ReaderInvalidated => "reader_invalidated",
            TraceKind::RoundRetry => "round_retry",
            TraceKind::GrantSent => "grant_sent",
            TraceKind::UpgradeSent => "upgrade_sent",
            TraceKind::GrantRetry => "grant_retry",
            TraceKind::GrantEscalated => "grant_escalated",
            TraceKind::UpgradeNackSent => "upgrade_nack_sent",
            TraceKind::DeltaGrantSent => "delta_grant_sent",
            TraceKind::DeltaPatched => "delta_patched",
            TraceKind::DeltaRejected => "delta_rejected",
            TraceKind::Downgraded => "downgraded",
            TraceKind::CopyRelinquished => "copy_relinquished",
            TraceKind::DoneSent => "done_sent",
            TraceKind::DoneRetry => "done_retry",
            TraceKind::TsReadGranted => "ts_read_granted",
            TraceKind::TsRenewGranted => "ts_renew_granted",
            TraceKind::TsWriteGranted => "ts_write_granted",
            TraceKind::TsRecallSent => "ts_recall_sent",
            TraceKind::TsWriteBackApplied => "ts_writeback_applied",
            TraceKind::TsInstalled => "ts_installed",
            TraceKind::TsRenewed => "ts_renewed",
            TraceKind::TsUpgraded => "ts_upgraded",
            TraceKind::TsLeaseExpired => "ts_lease_expired",
            TraceKind::TsWriteBackSent => "ts_writeback_sent",
            TraceKind::MsgSent => "msg_sent",
            TraceKind::MsgDropped => "msg_dropped",
            TraceKind::MsgDelayed => "msg_delayed",
            TraceKind::MsgDuplicated => "msg_duplicated",
            TraceKind::MsgHeldBack => "msg_held_back",
            TraceKind::GapDeclared => "gap_declared",
            TraceKind::MsgDupDiscarded => "msg_dup_discarded",
            TraceKind::MsgStaleDropped => "msg_stale_dropped",
            TraceKind::SiteCrash => "site_crash",
            TraceKind::SiteRestart => "site_restart",
        }
    }

    /// True for the retry-chain kinds (all five engine chains plus the
    /// Δ-deny backoff).
    pub fn is_retry(self) -> bool {
        matches!(
            self,
            TraceKind::RequestRetry
                | TraceKind::ServeRetry
                | TraceKind::RoundRetry
                | TraceKind::DoneRetry
                | TraceKind::GrantRetry
                | TraceKind::DenyRetry
        )
    }
}

/// One record in the protocol trace.
///
/// The fixed shape (rather than per-kind payload enums) keeps the
/// record `Copy` and cheap to buffer; fields that do not apply to a
/// kind are `None`/zero. `detail` is a kind-specific scalar documented
/// on each [`TraceKind`] variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// The site that emitted the event.
    pub site: SiteId,
    /// The causal span this event belongs to ([`SpanId::NONE`] if none).
    pub span: SpanId,
    /// What happened.
    pub kind: TraceKind,
    /// The page the event concerns (`None` for site-level events such
    /// as crash/restart).
    pub subject: Option<(SegmentId, PageNum)>,
    /// The other site involved (message destination/source), if any.
    pub peer: Option<SiteId>,
    /// The faulting process, when the event is tied to one.
    pub pid: Option<Pid>,
    /// The access mode in play, when meaningful.
    pub access: Option<Access>,
    /// The wire message kind, for transport-level events.
    pub msg: Option<MsgKind>,
    /// The demand serial (0 when retries are disabled).
    pub serial: u32,
    /// Kind-specific scalar (see [`TraceKind`] docs).
    pub detail: u64,
    /// The library-handoff epoch in play (0 while the segment's library
    /// has never moved, so pre-migration traces are unchanged).
    pub epoch: u32,
}

impl TraceEvent {
    /// Builds a minimal event; callers fill in the optional fields.
    pub fn new(at: SimTime, site: SiteId, kind: TraceKind) -> Self {
        TraceEvent {
            at,
            site,
            span: SpanId::NONE,
            kind,
            subject: None,
            peer: None,
            pid: None,
            access: None,
            msg: None,
            serial: 0,
            detail: 0,
            epoch: 0,
        }
    }
}

impl fmt::Display for TraceEvent {
    /// One stable text line per event — the format pinned by the
    /// golden-trace tests and written by the JSONL sink's sibling
    /// text logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12}] site{} {}", self.at.0, self.site.0, self.kind.name())?;
        if let Some((seg, page)) = self.subject {
            write!(f, " seg{}@{}.p{}", seg.serial, seg.library.0, page.0)?;
        }
        if !self.span.is_none() {
            write!(f, " span={:?}", self.span)?;
        }
        if let Some(peer) = self.peer {
            write!(f, " peer=site{}", peer.0)?;
        }
        if let Some(pid) = self.pid {
            write!(f, " pid={:?}", pid)?;
        }
        if let Some(access) = self.access {
            write!(f, " access={access:?}")?;
        }
        if let Some(msg) = self.msg {
            write!(f, " msg={}", msg.name())?;
        }
        if self.serial != 0 {
            write!(f, " serial={}", self.serial)?;
        }
        if self.detail != 0 {
            write!(f, " detail={}", self.detail)?;
        }
        if self.epoch != 0 {
            write!(f, " epoch={}", self.epoch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_id_round_trips_site_and_counter() {
        let span = SpanId::new(SiteId(7), 42);
        assert_eq!(span.site(), Some(SiteId(7)));
        assert_eq!(span.counter(), 42);
        assert!(!span.is_none());
        assert!(SpanId::NONE.is_none());
        assert_eq!(SpanId::NONE.site(), None);
    }

    #[test]
    fn display_is_stable_and_omits_empty_fields() {
        let mut ev = TraceEvent::new(SimTime(1_500), SiteId(2), TraceKind::RequestSent);
        ev.subject = Some((SegmentId::new(SiteId(0), 1), PageNum(3)));
        ev.span = SpanId::new(SiteId(2), 1);
        ev.peer = Some(SiteId(0));
        ev.access = Some(Access::Write);
        let line = ev.to_string();
        assert_eq!(
            line,
            "[        1500] site2 request_sent seg1@0.p3 span=2#1 peer=site0 access=W"
        );
        let bare = TraceEvent::new(SimTime::ZERO, SiteId(0), TraceKind::SiteCrash);
        assert_eq!(bare.to_string(), "[           0] site0 site_crash");
    }
}
