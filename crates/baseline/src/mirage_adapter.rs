//! The real Mirage engine behind the trace-comparison interface.

use std::collections::VecDeque;

use mirage_core::{
    DriverOps,
    Event,
    InMemStore,
    PageStore,
    ProtoMsg,
    ProtocolConfig,
    ProtocolDriver,
    RefLogEntry,
};
use mirage_mem::LocalSegment;
use mirage_net::{
    message::Sized2,
    NetCosts,
};
use mirage_types::{
    PageNum,
    Pid,
    SegmentId,
    SimTime,
    SiteId,
};

use crate::common::{
    CostReport,
    DsmProtocol,
    TraceOp,
};

/// Mirage's protocol engine, driven synchronously over an access trace.
/// The engine runs whichever coherence protocol `config` selects, so the
/// same adapter replays traces under Tardis too.
///
/// Message *counts* are exact; timers (Δ denials) advance a virtual
/// clock, so nonzero Δ configurations replay correctly too.
pub struct MirageCost {
    drivers: Vec<ProtocolDriver>,
    stores: Vec<InMemStore>,
    seg: SegmentId,
    costs: NetCosts,
    now: SimTime,
    net: VecDeque<(SiteId, SiteId, ProtoMsg)>,
    timers: Vec<(SimTime, usize, u64)>,
}

impl MirageCost {
    /// Builds a Mirage cluster of `sites` sites with pages (library) at
    /// site 0, covering `pages` pages.
    pub fn new(sites: usize, pages: usize, config: ProtocolConfig, costs: NetCosts) -> Self {
        let seg = SegmentId::new(SiteId(0), 1);
        let mut drivers = Vec::new();
        let mut stores = Vec::new();
        for i in 0..sites {
            let mut d = ProtocolDriver::from_config(SiteId(i as u16), config.clone());
            d.register_segment(seg, pages);
            let mut st = InMemStore::new();
            st.add_segment(if i == 0 {
                LocalSegment::fully_resident(seg, pages)
            } else {
                LocalSegment::absent(seg, pages)
            });
            drivers.push(d);
            stores.push(st);
        }
        Self {
            drivers,
            stores,
            seg,
            costs,
            now: SimTime::ZERO,
            net: VecDeque::new(),
            timers: Vec::new(),
        }
    }

    /// Dispatches one event at `site` and drains the resulting actions
    /// into the synchronous network queue, timer list, and cost report.
    fn dispatch(&mut self, site: usize, ev: Event, cost: &mut CostReport) {
        let Self { drivers, stores, costs, now, net, timers, .. } = self;
        drivers[site].drive(
            ev,
            *now,
            &mut stores[site],
            &mut BaselineOps { site, costs, cost, net, timers },
        );
    }

    fn quiesce(&mut self, cost: &mut CostReport) {
        loop {
            if let Some((from, to, msg)) = self.net.pop_front() {
                let s = to.index();
                self.dispatch(s, Event::Deliver { from, msg }, cost);
                continue;
            }
            if !self.timers.is_empty() {
                let idx = self
                    .timers
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(at, _, _))| at)
                    .map(|(i, _)| i)
                    .expect("nonempty");
                let (at, s, token) = self.timers.remove(idx);
                if at > self.now {
                    self.now = at;
                }
                self.dispatch(s, Event::Timer { token }, cost);
                continue;
            }
            return;
        }
    }
}

/// [`DriverOps`] receiver for the trace adapter: sends are costed and
/// queued on the synchronous network; wakes and log records are
/// irrelevant to message accounting and dropped.
struct BaselineOps<'a> {
    site: usize,
    costs: &'a NetCosts,
    cost: &'a mut CostReport,
    net: &'a mut VecDeque<(SiteId, SiteId, ProtoMsg)>,
    timers: &'a mut Vec<(SimTime, usize, u64)>,
}

impl DriverOps for BaselineOps<'_> {
    fn send(&mut self, to: SiteId, msg: ProtoMsg) {
        self.cost.add_msg(msg.size_class(), self.costs);
        self.net.push_back((SiteId(self.site as u16), to, msg));
    }

    fn wake(&mut self, _pid: Pid) {}

    fn set_timer(&mut self, at: SimTime, token: u64) {
        self.timers.push((at, self.site, token));
    }

    fn log(&mut self, _entry: RefLogEntry) {}
}

impl DsmProtocol for MirageCost {
    fn name(&self) -> &'static str {
        "mirage"
    }

    fn access(&mut self, op: TraceOp) -> CostReport {
        let mut cost = CostReport::default();
        let s = op.site.index();
        let page = PageNum(op.page.0);
        if self.stores[s].prot(self.seg, page).permits(op.access) {
            return cost;
        }
        cost.faults = 1;
        let pid = Pid::new(op.site, 1);
        let seg = self.seg;
        self.dispatch(s, Event::Fault { pid, seg, page, access: op.access }, &mut cost);
        self.quiesce(&mut cost);
        debug_assert!(
            self.stores[s].prot(self.seg, page).permits(op.access),
            "access must be granted at quiescence"
        );
        cost
    }
}

#[cfg(test)]
mod tests {
    use mirage_types::{
        Access,
        Delta,
    };

    use super::*;
    use crate::common::AccessTrace;

    fn op(site: u16, access: Access) -> TraceOp {
        TraceOp { site: SiteId(site), page: PageNum(0), access }
    }

    #[test]
    fn upgrade_saves_a_large_message_vs_li() {
        use crate::li_central::LiCentral;
        let mut mirage =
            MirageCost::new(2, 1, ProtocolConfig::default(), NetCosts::vax_locus());
        let mut li = LiCentral::new(SiteId(0), NetCosts::vax_locus());
        // Reader at site 1, then the same site writes (upgrade case).
        for p in [&mut mirage as &mut dyn DsmProtocol, &mut li as &mut dyn DsmProtocol] {
            p.access(op(1, Access::Read));
        }
        let m = mirage.access(op(1, Access::Write));
        let l = li.access(op(1, Access::Write));
        assert_eq!(m.larges, 0, "Mirage upgrades with a notification: {m:?}");
        assert_eq!(l.larges, 1, "Li re-ships the page: {l:?}");
    }

    #[test]
    fn ping_pong_trace_replays_coherently() {
        let mut mirage =
            MirageCost::new(2, 1, ProtocolConfig::default(), NetCosts::vax_locus());
        let report = mirage.replay(&AccessTrace::ping_pong(25));
        assert!(report.faults > 0);
        assert!(report.larges > 0);
        assert!(report.shorts > report.larges);
    }

    /// B1's traces: (trace, sites).
    fn b1_traces() -> [(AccessTrace, usize); 3] {
        [
            (AccessTrace::ping_pong(250), 2),
            (AccessTrace::read_mostly(4, 100, 20), 5),
            (AccessTrace::mixed(4, 4, 4000, 7), 4),
        ]
    }

    fn replay(config: ProtocolConfig, (trace, sites): &(AccessTrace, usize)) -> CostReport {
        // `access` debug-asserts that every access is granted.
        MirageCost::new(*sites, 4, config, NetCosts::vax_locus()).replay(trace)
    }

    #[test]
    fn b1_traces_replay_under_tardis() {
        let faults: Vec<u64> =
            b1_traces().iter().map(|t| replay(ProtocolConfig::tardis(), t).faults).collect();
        // The same counts an analytic lease model of Tardis predicts.
        assert_eq!(faults, [999, 5, 2700]);
    }

    #[test]
    fn tardis_leases_save_read_mostly_faults() {
        let read_mostly = &b1_traces()[1];
        let tardis = replay(ProtocolConfig::tardis(), read_mostly);
        let mirage = replay(ProtocolConfig::default(), read_mostly);
        assert!(
            tardis.faults < mirage.faults,
            "leases keep read-mostly copies valid: {tardis:?} vs {mirage:?}"
        );
    }

    #[test]
    fn nonzero_delta_replays_via_virtual_time() {
        let cfg = ProtocolConfig::paper(Delta(6));
        let mut mirage = MirageCost::new(2, 1, cfg, NetCosts::vax_locus());
        let report = mirage.replay(&AccessTrace::ping_pong(10));
        assert!(report.faults > 0, "trace must complete despite Δ denials");
    }
}
