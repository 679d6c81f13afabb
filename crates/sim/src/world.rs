//! The simulation world: global event queue, wire, and site collection.

use std::{
    collections::{
        HashMap,
        VecDeque,
    },
    sync::Arc,
};

use mirage_core::{
    ProtoMsg,
    ProtocolConfig,
    ProtocolDriver,
    RefLogEntry,
};
use mirage_mem::LocalSegment;
use mirage_net::{
    FaultPlan,
    NetCosts,
    Verdict,
};
use mirage_trace::{
    PlacementAdvisor,
    TraceEvent,
    TraceKind,
};
use mirage_types::{
    PageNum,
    Pid,
    SegmentId,
    SimDuration,
    SimTime,
    SiteId,
};

use crate::{
    calendar::CalendarQueue,
    faults::{
        FaultState,
        FaultStats,
        Stamp,
    },
    instrument::{
        FetchPhase,
        Instrumentation,
    },
    openloop::{
        self,
        OpenLoopStation,
        StationHandle,
    },
    process::{
        ProcState,
        Process,
    },
    program::Program,
    site::{
        msg_size,
        OutEffect,
        SchedParams,
        ServerWork,
        Site,
    },
};

/// World configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Component costs (defaults: the paper's measured VAX/Locus values).
    pub costs: NetCosts,
    /// Scheduler parameters.
    pub sched: SchedParams,
    /// Protocol configuration (Δ policy and optimizations).
    pub protocol: ProtocolConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            costs: NetCosts::vax_locus(),
            sched: SchedParams::default(),
            protocol: ProtocolConfig::default(),
        }
    }
}

/// One scripted library-role move ([`PlacementPolicy::Manual`]).
#[derive(Clone, Copy, Debug)]
pub struct MigrationEvent {
    /// When to initiate the handoff.
    pub at: SimTime,
    /// The segment whose library moves.
    pub seg: SegmentId,
    /// The site that takes over the role.
    pub to: SiteId,
    /// Which page-range shard moves; `None` moves every shard (the
    /// whole role, matching the unsharded protocol).
    pub shard: Option<u32>,
}

/// How the world places segment library roles over time.
#[derive(Clone, Debug, Default)]
pub enum PlacementPolicy {
    /// Libraries never move. The default — runs are byte-identical to
    /// the fixed-library protocol.
    #[default]
    Off,
    /// A pre-scripted handoff schedule (tests, fuzzing, and the manual
    /// arm of the M1 experiment).
    Manual(Vec<MigrationEvent>),
    /// The §9 advisor runs *online*: every `interval` it scores the
    /// most recent `window` of reference-log traffic and, once the same
    /// foreign site has dominated a segment's request stream for
    /// `hysteresis` consecutive ticks, hands the library to it.
    Advised {
        /// Gap between advisor evaluations.
        interval: SimDuration,
        /// How far back the sliding reference window reaches.
        window: SimDuration,
        /// Leader-count floor below which the advisor stays quiet.
        min_requests: u64,
        /// Consecutive ticks the same target must win before a move.
        hysteresis: u32,
    },
}

/// Live state of an [`PlacementPolicy::Advised`] policy.
struct PlacementState {
    interval: SimDuration,
    window: SimDuration,
    min_requests: u64,
    hysteresis: u32,
    /// Sliding window of library references (time-evicted each tick).
    log: VecDeque<mirage_trace::log::Entry>,
    /// Per library shard: the currently favoured target and how many
    /// consecutive ticks it has been favoured.
    streak: HashMap<(SegmentId, u32), (SiteId, u32)>,
}

/// Global events.
#[derive(Debug)]
enum Ev {
    /// A message finishing its wire transit. `stamp` carries the circuit
    /// sequence/incarnation stamp in fault mode; `None` on the pristine
    /// (no-fault-layer) path.
    Arrival { to: usize, from: SiteId, msg: ProtoMsg, stamp: Option<Stamp> },
    /// `count` requests to re-examine `site`, standing for that many
    /// single wakes at consecutive queue positions (see [`World::push`]).
    SiteWake { site: usize, count: u32 },
    /// An engine timer firing.
    EngineTimer { site: usize, token: u64 },
    /// A scheduled site crash (fault mode only).
    Crash { site: usize },
    /// A scheduled site restart (fault mode only).
    Restart { site: usize },
    /// `gap_wait` expired on a directed link with held-back messages:
    /// declare the missing sequence numbers lost and release the queue.
    LinkProbe { src: usize, dst: usize },
    /// Initiate a library-role handoff (placement policy).
    Migrate { seg: SegmentId, to: SiteId, shard: Option<u32> },
    /// Periodic evaluation of an [`PlacementPolicy::Advised`] policy.
    /// Pure observation: a tick that moves nothing changes nothing.
    PolicyTick,
    /// An open-loop station's next scheduled demand arrives: inject it
    /// into the station queue (even while the site is down — the
    /// backlog is the point) and wake any parked workers.
    OpenLoopArrival { station: usize },
}

/// How much work the event loop has done. Diagnostic only: no report
/// renders these, so they can change without touching any golden.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopCounters {
    /// Entries popped from the event queue.
    pub queue_pops: u64,
    /// Site wakes popped, counting every member of a wake run.
    pub wakes: u64,
    /// Calls into the per-site scheduler step.
    pub site_steps: u64,
}

/// Sentinel for "no delivery recorded yet" in the circuit matrix.
const NO_DELIVERY: SimTime = SimTime(u64::MAX);

/// Site count up to which the circuit table stays a dense `n×n` matrix.
/// Beyond it, rows allocate lazily: a 1,024-site world has a million
/// potential circuits, but real workloads touch a vanishing fraction.
const CIRCUIT_DENSE_LIMIT: usize = 128;

/// Per-circuit last-delivery bookkeeping (row = sender, column =
/// receiver), behind one get/set interface with two representations:
/// dense below [`CIRCUIT_DENSE_LIMIT`] sites (one flat allocation, the
/// historical layout), paged above (per-sender rows allocated on first
/// send, `None` until then), so planet-scale worlds don't pre-commit
/// O(n²) memory for circuits that never carry a message. Lookups on
/// both paths are branch-plus-index; the choice never affects
/// timestamps, only where they are stored.
enum CircuitTable {
    Dense { n: usize, last: Vec<SimTime> },
    Paged { n: usize, rows: Vec<Option<Box<[SimTime]>>> },
}

impl CircuitTable {
    fn new(n: usize) -> Self {
        if n <= CIRCUIT_DENSE_LIMIT {
            CircuitTable::Dense { n, last: vec![NO_DELIVERY; n * n] }
        } else {
            CircuitTable::Paged { n, rows: (0..n).map(|_| None).collect() }
        }
    }

    fn get(&self, src: usize, dst: usize) -> SimTime {
        match self {
            CircuitTable::Dense { n, last } => last[src * n + dst],
            CircuitTable::Paged { rows, .. } => {
                rows[src].as_ref().map_or(NO_DELIVERY, |r| r[dst])
            }
        }
    }

    fn set(&mut self, src: usize, dst: usize, at: SimTime) {
        match self {
            CircuitTable::Dense { n, last } => last[src * *n + dst] = at,
            CircuitTable::Paged { n, rows } => {
                let row =
                    rows[src].get_or_insert_with(|| vec![NO_DELIVERY; *n].into_boxed_slice());
                row[dst] = at;
            }
        }
    }
}

/// The simulation world.
pub struct World {
    /// All sites.
    pub sites: Vec<Site>,
    events: CalendarQueue<Ev>,
    now: SimTime,
    cfg: SimConfig,
    /// Instrumentation counters.
    pub instr: Instrumentation,
    /// Library reference log (§9), in arrival order. Collected only
    /// after [`World::enable_ref_log`]: long experiment runs would
    /// otherwise grow it without bound and distort throughput numbers.
    pub ref_log: Vec<RefLogEntry>,
    collect_ref_log: bool,
    /// Protocol trace events (observability layer), in emission order.
    /// Collected only after [`World::enable_tracing`]; the disabled path
    /// constructs no events at all.
    pub trace: Vec<TraceEvent>,
    collect_trace: bool,
    next_serial: u32,
    /// Per-circuit last delivery time (row = sender, column =
    /// receiver): the Locus virtual circuit sequences messages, so a
    /// short message sent after a large one must not overtake it on the
    /// wire. Dense at small n, paged at large n ([`CircuitTable`]).
    circuit_last: CircuitTable,
    /// Reusable effect buffer for [`World::poke`] (the per-step sink;
    /// same pattern as the driver's `ActionSink`).
    scratch: Vec<OutEffect>,
    /// Fault-execution state; `None` unless an *active* plan was
    /// installed, so the pristine path pays nothing.
    faults: Option<FaultState>,
    /// Where each library shard currently lives, keyed by
    /// `(segment, shard index)` (tracks the handoffs the world itself
    /// initiated; the engines' hint tables are the per-site view of the
    /// same fact). Unsharded segments have a single shard 0.
    lib_where: HashMap<(SegmentId, u32), SiteId>,
    /// Live advisor state; `None` unless [`PlacementPolicy::Advised`]
    /// was installed, so other runs pay nothing for the window.
    placement: Option<PlacementState>,
    /// Installed open-loop stations, in install order (the index is the
    /// [`Ev::OpenLoopArrival`] key).
    openloop: Vec<OpenLoopRt>,
    /// Spawned processes that have not exited, across all sites.
    live: usize,
    counters: LoopCounters,
}

/// World-side runtime state of one open-loop station.
struct OpenLoopRt {
    site: usize,
    state: StationHandle,
    /// The precomputed arrival schedule (ascending).
    arrivals: Vec<SimTime>,
    /// Next schedule index to inject.
    next: usize,
    /// The station's worker pids (for parked-worker wakes).
    pids: Vec<Pid>,
}

impl World {
    /// Builds a world of `n` sites.
    pub fn new(n: usize, cfg: SimConfig) -> Self {
        let sites = (0..n)
            .map(|i| {
                let id = SiteId(i as u16);
                Site::new(
                    id,
                    ProtocolDriver::from_config(id, cfg.protocol.clone()),
                    cfg.sched.clone(),
                    cfg.costs.clone(),
                )
            })
            .collect();
        Self {
            sites,
            events: CalendarQueue::new(),
            now: SimTime::ZERO,
            cfg,
            instr: Instrumentation::new(n),
            ref_log: Vec::new(),
            collect_ref_log: false,
            trace: Vec::new(),
            collect_trace: false,
            next_serial: 1,
            circuit_last: CircuitTable::new(n),
            scratch: Vec::new(),
            faults: None,
            lib_where: HashMap::new(),
            placement: None,
            openloop: Vec::new(),
            live: 0,
            counters: LoopCounters::default(),
        }
    }

    /// Installs a fault plan. An inactive plan ([`FaultPlan::none`])
    /// installs nothing at all — the run is byte-identical to one
    /// without the fault layer. An active plan seeds the fault PRNG,
    /// schedules the crash/restart events, and routes every subsequent
    /// send and arrival through the circuit-stamping machinery.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        if !plan.is_active() {
            return;
        }
        for c in &plan.crashes {
            assert!(c.back_at > c.at, "restart must follow crash");
            assert!((c.site.index()) < self.sites.len(), "crash event names an unknown site");
            self.push(c.at, Ev::Crash { site: c.site.index() });
            self.push(c.back_at, Ev::Restart { site: c.site.index() });
        }
        self.faults = Some(FaultState::new(plan, self.sites.len()));
    }

    /// The fault layer's counters, if a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    /// Whether `site` is currently crashed.
    fn site_down(&self, site: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.down[site])
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Creates a segment with its library (and initial pages) at `lib`.
    pub fn create_segment(&mut self, lib: usize, pages: usize) -> SegmentId {
        let seg = SegmentId::new(SiteId(lib as u16), self.next_serial);
        self.next_serial += 1;
        for (i, site) in self.sites.iter_mut().enumerate() {
            let view = if i == lib {
                LocalSegment::fully_resident(seg, pages)
            } else {
                LocalSegment::absent(seg, pages)
            };
            site.store.add_segment(view);
            site.driver.register_segment(seg, pages);
        }
        for shard in 0..self.shard_count(pages) {
            self.lib_where.insert((seg, shard), SiteId(lib as u16));
        }
        seg
    }

    /// How many library shards a segment of `pages` pages has under the
    /// active protocol configuration.
    fn shard_count(&self, pages: usize) -> u32 {
        let sp = self.cfg.protocol.shard_pages;
        if sp == 0 {
            1
        } else {
            (pages as u32).div_ceil(sp).max(1)
        }
    }

    /// Installs a library placement policy. [`PlacementPolicy::Manual`]
    /// schedules its handoffs immediately; [`PlacementPolicy::Advised`]
    /// starts the periodic advisor. Call after the segments exist and
    /// before running. Moving policies require retry mode: a handoff
    /// leans on the retransmission chains to re-aim in-flight traffic.
    pub fn set_placement_policy(&mut self, policy: PlacementPolicy) {
        match policy {
            PlacementPolicy::Off => {}
            PlacementPolicy::Manual(events) => {
                assert!(
                    self.cfg.protocol.retry.is_some(),
                    "library migration requires retry mode"
                );
                for e in events {
                    self.push(e.at, Ev::Migrate { seg: e.seg, to: e.to, shard: e.shard });
                }
            }
            PlacementPolicy::Advised { interval, window, min_requests, hysteresis } => {
                assert!(
                    self.cfg.protocol.retry.is_some(),
                    "library migration requires retry mode"
                );
                assert!(interval.0 > 0, "advisor interval must be positive");
                self.placement = Some(PlacementState {
                    interval,
                    window,
                    min_requests,
                    hysteresis,
                    log: VecDeque::new(),
                    streak: HashMap::new(),
                });
                self.push(self.now + interval, Ev::PolicyTick);
            }
        }
    }

    /// Where the world last placed `seg`'s library role (the handoff
    /// may still be in flight on the wire). For a sharded segment this
    /// reports shard 0; use [`World::library_shard_site`] for the rest.
    pub fn library_site(&self, seg: SegmentId) -> Option<SiteId> {
        self.library_shard_site(seg, 0)
    }

    /// Where the world last placed one page-range shard of `seg`'s
    /// library role.
    pub fn library_shard_site(&self, seg: SegmentId, shard: u32) -> Option<SiteId> {
        self.lib_where.get(&(seg, shard)).copied()
    }

    /// Spawns a process at a site. `shm_pages` drives the lazy-remap
    /// charge at every dispatch of this process (§6.2).
    pub fn spawn(&mut self, site: usize, program: Box<dyn Program>, shm_pages: usize) -> Pid {
        let local = self.sites[site].procs.len() as u32 + 1;
        let pid = Pid::new(SiteId(site as u16), local);
        self.sites[site].spawn(Process::new(pid, program, shm_pages));
        self.live += 1;
        self.push(self.now, Ev::SiteWake { site, count: 1 });
        pid
    }

    /// Installs an open-loop station: spawns its workers at the
    /// station's site and schedules the first arrival. Returns the
    /// shared state handle the harness reads records from after the
    /// run. Arrivals fire at their scheduled sim-times regardless of
    /// how far behind the workers are — that independence is what makes
    /// the traffic open-loop.
    pub fn install_open_loop(&mut self, st: OpenLoopStation) -> StationHandle {
        let (state, workers, arrivals) = openloop::build_station(&st);
        let pids = workers
            .into_iter()
            .map(|w| self.spawn(st.site, Box::new(w), st.shm_pages))
            .collect();
        let idx = self.openloop.len();
        if let Some(&first) = arrivals.first() {
            self.push(first.max(self.now), Ev::OpenLoopArrival { station: idx });
        }
        self.openloop.push(OpenLoopRt {
            site: st.site,
            state: Arc::clone(&state),
            arrivals,
            next: 0,
            pids,
        });
        state
    }

    /// One scheduled arrival fires: inject the demand, schedule the
    /// next one, and wake a parked worker if the site is up. A down
    /// site still accumulates backlog — its workers drain the queue
    /// after restart.
    fn openloop_arrival(&mut self, idx: usize) {
        let (site, next_at) = {
            let rt = &mut self.openloop[idx];
            let i = rt.next;
            rt.next += 1;
            openloop::inject(&rt.state, i);
            (rt.site, rt.arrivals.get(rt.next).copied())
        };
        if let Some(at) = next_at {
            self.push(at.max(self.now), Ev::OpenLoopArrival { station: idx });
        }
        if !self.site_down(site) {
            let pids = std::mem::take(&mut self.openloop[idx].pids);
            let woke = self.sites[site].wake_parked(&pids);
            self.openloop[idx].pids = pids;
            if woke {
                self.push(self.now, Ev::SiteWake { site, count: 1 });
            }
        }
    }

    /// Queues an event. A wake folds into the most recent push when that
    /// is a still-queued wake of the same site at the same instant: the
    /// two would pop back to back, so one run entry stands for both.
    fn push(&mut self, at: SimTime, ev: Ev) {
        if let Ev::SiteWake { site, count } = ev {
            if let Some((t, Ev::SiteWake { site: s, count: c })) = self.events.last_pushed_mut()
            {
                if t == at && *s == site {
                    *c += count;
                    return;
                }
            }
        }
        self.events.push(at, ev);
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.events.peek().map(|(t, _)| t)
    }

    /// Applies (and drains) effects a site produced during a step.
    fn apply_effects(&mut self, from: usize, effects: &mut Vec<OutEffect>) {
        for e in effects.drain(..) {
            match e {
                OutEffect::Send { to, msg, depart } => {
                    let size = msg_size(&msg);
                    self.instr.record_msg(msg.kind(), size);
                    if self.instr.trace_phases {
                        let phase = match (&msg, size) {
                            (ProtoMsg::PageRequest { .. }, _) => Some(FetchPhase::RequestSent),
                            (ProtoMsg::PageGrant { .. }, _) => Some(FetchPhase::PageSent),
                            _ => None,
                        };
                        if let Some(p) = phase {
                            self.instr.record_phase(SiteId(from as u16), p, depart);
                        }
                    }
                    let base = depart + self.cfg.costs.one_way(size);
                    if self.faults.is_some() {
                        // Fault mode: the sender-side FIFO clamp is off.
                        // Ordering is enforced at the receiver by the
                        // circuit sequence numbers instead, and
                        // reordering is precisely what the plan wants to
                        // exercise.
                        let dst = to.index();
                        let f = self.faults.as_mut().expect("checked");
                        match f.outbound(from, dst, depart, base) {
                            None => {
                                // Dropped by the plan.
                                if self.collect_trace {
                                    let mut ev = self.wire_event(
                                        depart,
                                        from,
                                        TraceKind::MsgDropped,
                                        &msg,
                                    );
                                    ev.peer = Some(to);
                                    self.trace.push(ev);
                                }
                            }
                            Some((stamp, arrive, dup)) => {
                                let src = SiteId(from as u16);
                                if self.collect_trace {
                                    let mut ev =
                                        self.wire_event(depart, from, TraceKind::MsgSent, &msg);
                                    ev.peer = Some(to);
                                    ev.detail = arrive.0 - depart.0;
                                    self.trace.push(ev);
                                    if arrive > base {
                                        let mut ev = self.wire_event(
                                            depart,
                                            from,
                                            TraceKind::MsgDelayed,
                                            &msg,
                                        );
                                        ev.peer = Some(to);
                                        ev.detail = arrive.0 - base.0;
                                        self.trace.push(ev);
                                    }
                                    if dup.is_some() {
                                        let mut ev = self.wire_event(
                                            depart,
                                            from,
                                            TraceKind::MsgDuplicated,
                                            &msg,
                                        );
                                        ev.peer = Some(to);
                                        self.trace.push(ev);
                                    }
                                }
                                if let Some(dup_at) = dup {
                                    self.push(
                                        dup_at,
                                        Ev::Arrival {
                                            to: dst,
                                            from: src,
                                            msg: msg.clone(),
                                            stamp: Some(stamp),
                                        },
                                    );
                                }
                                self.push(
                                    arrive,
                                    Ev::Arrival { to: dst, from: src, msg, stamp: Some(stamp) },
                                );
                            }
                        }
                    } else {
                        let mut arrive = base;
                        // Virtual-circuit sequencing (§7.1): per (src, dst)
                        // pair, deliveries are FIFO — a later short message
                        // queues behind an in-flight page-carrying one.
                        let last = self.circuit_last.get(from, to.index());
                        if last != NO_DELIVERY && arrive <= last {
                            arrive = SimTime(last.0 + 1);
                        }
                        self.circuit_last.set(from, to.index(), arrive);
                        if self.collect_trace {
                            let mut ev =
                                self.wire_event(depart, from, TraceKind::MsgSent, &msg);
                            ev.peer = Some(to);
                            ev.detail = arrive.0 - depart.0;
                            self.trace.push(ev);
                        }
                        self.push(
                            arrive,
                            Ev::Arrival {
                                to: to.index(),
                                from: SiteId(from as u16),
                                msg,
                                stamp: None,
                            },
                        );
                    }
                }
                OutEffect::SetTimer { at, token } => {
                    self.push(at, Ev::EngineTimer { site: from, token });
                }
                OutEffect::Log(entry) => {
                    if let Some(p) = self.placement.as_mut() {
                        p.log.push_back(mirage_trace::log::Entry {
                            seg: entry.seg,
                            page: entry.page,
                            at: entry.at,
                            pid: entry.pid,
                            access: entry.access,
                        });
                    }
                    if self.collect_ref_log {
                        self.ref_log.push(entry);
                    }
                }
                OutEffect::Trace(ev) => {
                    if self.collect_trace {
                        self.trace.push(ev);
                    }
                }
                OutEffect::RemoteFault => {
                    self.instr.remote_faults += 1;
                    self.instr.remote_faults_by_site[from] += 1;
                    self.instr.record_phase(
                        SiteId(from as u16),
                        FetchPhase::FaultTaken,
                        self.now,
                    );
                }
                OutEffect::LocalFault => self.instr.local_faults += 1,
                OutEffect::Denial => self.instr.denials += 1,
                OutEffect::ServerCpu(d) => self.instr.server_cpu[from] += d,
            }
        }
    }

    /// Runs `count` wakes of `site` popped as one run, exactly as that
    /// many single wakes at consecutive queue positions would run.
    fn wake_run(&mut self, site: usize, count: u32) {
        if self.site_down(site) {
            return;
        }
        for left in (0..count).rev() {
            let busy_until = self.sites[site].busy_until();
            if self.now < busy_until {
                // Each remaining wake would find the CPU busy and re-wake
                // at `busy_until`: queue them there as one run.
                self.push(busy_until, Ev::SiteWake { site, count: left + 1 });
                return;
            }
            self.poke(site, left > 0);
        }
    }

    /// Steps a site until it asks to be woken later (or goes idle).
    /// `more_wakes_now` says the rest of a wake run for this site is
    /// still pending at `now`, which bounds the step horizon at `now`.
    fn poke(&mut self, site: usize, more_wakes_now: bool) {
        // Take the pooled effect buffer for the whole poke (capacity is
        // retained across steps and pokes; `poke` never re-enters).
        let mut effects = std::mem::take(&mut self.scratch);
        let live = self.sites[site].live();
        loop {
            let mut horizon = self.next_event_time().unwrap_or(SimTime(u64::MAX));
            if more_wakes_now {
                horizon = horizon.min(self.now);
            }
            self.counters.site_steps += 1;
            let res = self.sites[site].step(self.now, horizon, &mut effects);
            // Trace effects are pure observation: they must not count as
            // progress, or enabling tracing would change the scheduler's
            // re-step decisions (and therefore simulated timestamps).
            let made_progress = effects.iter().any(|e| !matches!(e, OutEffect::Trace(_)));
            self.apply_effects(site, &mut effects);
            match res {
                Some(t) if t > self.now => {
                    self.push(t, Ev::SiteWake { site, count: 1 });
                    break;
                }
                Some(_) => {
                    if made_progress {
                        // Scheduling point at `now` with visible effects;
                        // step again immediately.
                        continue;
                    }
                    if self.sites[site].is_idle() {
                        break;
                    }
                    // The site cannot advance because another event is
                    // pending at the current instant (the horizon is
                    // `now`). Defer behind it: re-wake after the queue
                    // drains this instant. Never loop here — that would
                    // spin forever.
                    self.push(self.now, Ev::SiteWake { site, count: 1 });
                    break;
                }
                None => break,
            }
        }
        self.live -= live - self.sites[site].live();
        self.scratch = effects;
    }

    /// Hands a message to the destination site's kernel (instrumentation
    /// plus server-work queueing). Shared by the pristine and fault
    /// delivery paths.
    fn deliver_msg(&mut self, to: usize, from: SiteId, msg: ProtoMsg) {
        if self.instr.trace_phases {
            let phase = match &msg {
                ProtoMsg::PageRequest { .. } => Some(FetchPhase::RequestReceived),
                ProtoMsg::PageGrant { .. } => Some(FetchPhase::PageReceived),
                _ => None,
            };
            if let Some(p) = phase {
                self.instr.record_phase(SiteId(to as u16), p, self.now);
            }
        }
        if matches!(msg, ProtoMsg::ReaderInvalidate { .. }) {
            self.instr.reader_invalidations += 1;
        }
        if matches!(msg, ProtoMsg::UpgradeGrant { .. }) {
            self.instr.upgrades += 1;
        }
        self.sites[to].queue_server_work(ServerWork::Deliver { from, msg }, self.now);
        self.poke(to, false);
    }

    /// Fault-mode delivery: screen for a down receiver and stale
    /// incarnations, then classify against the receiver's circuit. In-
    /// order messages are delivered (and release any consecutive held
    /// messages); duplicates are discarded; gapped messages are held
    /// back with a probe scheduled to declare the gap lost.
    fn deliver_faulty(&mut self, to: usize, from: SiteId, msg: ProtoMsg, stamp: Stamp) {
        let f = self.faults.as_mut().expect("stamped arrival without fault state");
        if f.down[to]
            || stamp.src_inc != f.incarnation[from.index()]
            || stamp.dst_inc != f.incarnation[to]
        {
            f.stats.stale_dropped += 1;
            if f.trace {
                eprintln!("[fault] stale {}->{} seq {}", from.0, to, stamp.seq);
            }
            if self.collect_trace {
                let mut ev = self.wire_event(self.now, to, TraceKind::MsgStaleDropped, &msg);
                ev.peer = Some(from);
                ev.detail = stamp.seq;
                self.trace.push(ev);
            }
            return;
        }
        match f.check(from, to, stamp.seq) {
            Verdict::InOrder => {
                self.deliver_msg(to, from, msg);
                self.drain_holdback(from.index(), to);
            }
            Verdict::Duplicate => {
                f.stats.dup_discarded += 1;
                if f.trace {
                    eprintln!("[fault] dup-discard {}->{} seq {}", from.0, to, stamp.seq);
                }
                if self.collect_trace {
                    let mut ev =
                        self.wire_event(self.now, to, TraceKind::MsgDupDiscarded, &msg);
                    ev.peer = Some(from);
                    ev.detail = stamp.seq;
                    self.trace.push(ev);
                }
            }
            Verdict::Gap { expected, got } => {
                f.stats.held_back += 1;
                if f.trace {
                    eprintln!(
                        "[fault] holdback {}->{} seq {} (expected {})",
                        from.0, to, got, expected
                    );
                }
                if self.collect_trace {
                    let mut ev = self.wire_event(self.now, to, TraceKind::MsgHeldBack, &msg);
                    ev.peer = Some(from);
                    ev.detail = got;
                    self.trace.push(ev);
                }
                let f = self.faults.as_mut().expect("fault state");
                let wait = f.plan.gap_wait;
                f.holdback.entry((from.index(), to)).or_default().insert(stamp.seq, msg);
                self.push(self.now + wait, Ev::LinkProbe { src: from.index(), dst: to });
            }
        }
    }

    /// Releases held-back messages on `(src, dst)` that have become
    /// deliverable (consecutive from the circuit's expectation).
    fn drain_holdback(&mut self, src: usize, dst: usize) {
        loop {
            let f = self.faults.as_mut().expect("fault state");
            let Some(q) = f.holdback.get_mut(&(src, dst)) else { return };
            let Some((&seq, _)) = q.first_key_value() else {
                f.holdback.remove(&(src, dst));
                return;
            };
            match f.tables[dst].check_seq(SiteId(src as u16), seq) {
                Verdict::InOrder => {
                    let msg = q.remove(&seq).expect("first key present");
                    self.deliver_msg(dst, SiteId(src as u16), msg);
                }
                Verdict::Duplicate => {
                    q.remove(&seq);
                    f.stats.dup_discarded += 1;
                }
                Verdict::Gap { .. } => return,
            }
        }
    }

    /// `gap_wait` expired: if the link still has held-back messages,
    /// declare the missing sequence numbers lost (the protocol's retry
    /// layer resupplies the content) and release the queue.
    fn link_probe(&mut self, src: usize, dst: usize) {
        let Some(f) = self.faults.as_mut() else { return };
        if f.down[dst] {
            return;
        }
        let Some(q) = f.holdback.get(&(src, dst)) else { return };
        let Some((&seq, _)) = q.first_key_value() else {
            f.holdback.remove(&(src, dst));
            return;
        };
        f.tables[dst].advance_to(SiteId(src as u16), seq);
        f.stats.gaps_declared += 1;
        if f.trace {
            eprintln!("[fault] gap-lost {}->{}: advance to seq {}", src, dst, seq);
        }
        if self.collect_trace {
            let mut ev = TraceEvent::new(self.now, SiteId(dst as u16), TraceKind::GapDeclared);
            ev.peer = Some(SiteId(src as u16));
            ev.detail = seq;
            self.trace.push(ev);
        }
        self.drain_holdback(src, dst);
        let still_held = self
            .faults
            .as_ref()
            .expect("fault state")
            .holdback
            .get(&(src, dst))
            .is_some_and(|q| !q.is_empty());
        if still_held {
            let wait = self.faults.as_ref().expect("fault state").plan.gap_wait;
            self.push(self.now + wait, Ev::LinkProbe { src, dst });
        }
    }

    /// Executes a scheduled crash: bump the incarnation, sever circuits,
    /// and discard the site's volatile protocol and scheduler state.
    fn apply_crash(&mut self, site: usize) {
        let Some(f) = self.faults.as_mut() else { return };
        if f.down[site] {
            return;
        }
        f.down[site] = true;
        f.incarnation[site] += 1;
        f.stats.crashes += 1;
        f.sever(site);
        if f.trace {
            eprintln!("[fault] crash site{} at {:?}", site, self.now);
        }
        if self.collect_trace {
            let ev = TraceEvent::new(self.now, SiteId(site as u16), TraceKind::SiteCrash);
            self.trace.push(ev);
        }
        self.sites[site].crash();
    }

    /// Executes a scheduled restart: the site comes back with cold
    /// volatile state, reconstructs its retransmission obligations from
    /// the persistent tables, and resumes its frozen processes (whose
    /// interrupted accesses re-fault against the recovered store).
    fn apply_restart(&mut self, site: usize) {
        let Some(f) = self.faults.as_mut() else { return };
        if !f.down[site] {
            return;
        }
        f.down[site] = false;
        f.stats.restarts += 1;
        let incarnation = f.incarnation[site];
        let trace = f.trace;
        if trace {
            eprintln!("[fault] restart site{} at {:?}", site, self.now);
        }
        if self.collect_trace {
            let mut ev = TraceEvent::new(self.now, SiteId(site as u16), TraceKind::SiteRestart);
            ev.detail = u64::from(incarnation);
            self.trace.push(ev);
        }
        let mut effects = std::mem::take(&mut self.scratch);
        let now = self.now;
        self.sites[site].restart(now, &mut effects);
        self.apply_effects(site, &mut effects);
        self.scratch = effects;
        self.push(self.now, Ev::SiteWake { site, count: 1 });
    }

    /// Initiates a library-role handoff for `seg` toward `to`. `shard`
    /// selects one page-range shard; `None` moves every shard (each
    /// from wherever it currently lives). A move is quietly skipped
    /// when it is meaningless (already there), impossible (either
    /// endpoint down), or premature (a previous handoff of the same
    /// shard is still in flight, so no site holds the active role to
    /// freeze from — the policy will re-advise).
    fn apply_migrate(&mut self, seg: SegmentId, to: SiteId, shard: Option<u32>) {
        match shard {
            Some(s) => self.apply_migrate_shard(seg, to, s),
            None => {
                let mut shards: Vec<u32> = self
                    .lib_where
                    .keys()
                    .filter(|&&(s, _)| s == seg)
                    .map(|&(_, i)| i)
                    .collect();
                shards.sort_unstable();
                for s in shards {
                    self.apply_migrate_shard(seg, to, s);
                }
            }
        }
    }

    fn apply_migrate_shard(&mut self, seg: SegmentId, to: SiteId, shard: u32) {
        let Some(&cur) = self.lib_where.get(&(seg, shard)) else { return };
        if cur == to || to.index() >= self.sites.len() {
            return;
        }
        let src = cur.index();
        if self.site_down(src) || self.site_down(to.index()) {
            return;
        }
        // The shard's anchor page tells the engine which range to check.
        let anchor = PageNum(shard * self.cfg.protocol.shard_pages);
        if !self.sites[src].driver.engine().library_active_for(seg, anchor) {
            return;
        }
        let mut effects = std::mem::take(&mut self.scratch);
        let now = self.now;
        self.sites[src].migrate_library(now, seg, to, Some(shard), &mut effects);
        self.apply_effects(src, &mut effects);
        self.scratch = effects;
        self.lib_where.insert((seg, shard), to);
        self.push(self.now, Ev::SiteWake { site: src, count: 1 });
    }

    /// One advisor evaluation: evict the reference window, score it,
    /// bump or reset per-segment streaks, and initiate the moves whose
    /// streaks cleared the hysteresis bar. Re-arms itself until every
    /// program has exited, so a completed run's event queue drains.
    fn policy_tick(&mut self) {
        let mut moves = Vec::new();
        let interval = {
            let Some(p) = self.placement.as_mut() else { return };
            while p.log.front().is_some_and(|e| e.at + p.window < self.now) {
                p.log.pop_front();
            }
            let advisor =
                PlacementAdvisor::sharded(p.min_requests, self.cfg.protocol.shard_pages);
            let advice = advisor.advise(p.log.make_contiguous());
            for a in advice {
                if self.lib_where.get(&(a.seg, a.shard)) == Some(&a.to) {
                    p.streak.remove(&(a.seg, a.shard));
                    continue;
                }
                let s = p.streak.entry((a.seg, a.shard)).or_insert((a.to, 0));
                if s.0 == a.to {
                    s.1 += 1;
                } else {
                    *s = (a.to, 1);
                }
                if s.1 >= p.hysteresis {
                    p.streak.remove(&(a.seg, a.shard));
                    moves.push((a.seg, a.shard, a.to));
                }
            }
            p.interval
        };
        for (seg, shard, to) in moves {
            self.apply_migrate(seg, to, Some(shard));
        }
        if self.live > 0 {
            self.push(self.now + interval, Ev::PolicyTick);
        }
    }

    /// Runs until the given simulated time (events at exactly `until`
    /// are processed).
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.next_event_time() {
            if t > until {
                break;
            }
            let (t, _, ev) = self.events.pop().expect("peeked");
            self.counters.queue_pops += 1;
            if t > self.now {
                self.now = t;
            }
            match ev {
                Ev::Arrival { to, from, msg, stamp } => {
                    if let Some(stamp) = stamp {
                        self.deliver_faulty(to, from, msg, stamp);
                    } else {
                        self.deliver_msg(to, from, msg);
                    }
                }
                Ev::SiteWake { site, count } => {
                    self.counters.wakes += u64::from(count);
                    self.wake_run(site, count);
                }
                Ev::EngineTimer { site, token } => {
                    if !self.site_down(site) {
                        self.sites[site]
                            .queue_server_work(ServerWork::Timer { token }, self.now);
                        self.poke(site, false);
                    }
                }
                Ev::Crash { site } => self.apply_crash(site),
                Ev::Restart { site } => self.apply_restart(site),
                Ev::LinkProbe { src, dst } => self.link_probe(src, dst),
                Ev::Migrate { seg, to, shard } => self.apply_migrate(seg, to, shard),
                Ev::PolicyTick => self.policy_tick(),
                Ev::OpenLoopArrival { station } => self.openloop_arrival(station),
            }
        }
        if until > self.now {
            self.now = until;
        }
    }

    /// Runs for a duration from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Runs until every program has exited or the deadline passes.
    /// Returns true if all programs finished. On failure the stuck
    /// processes are reported to stderr — a silent `false` used to leave
    /// no clue *which* pid hung, which made protocol hangs needlessly
    /// painful to localize.
    pub fn run_to_completion(&mut self, deadline: SimTime) -> bool {
        while self.now < deadline {
            if self.live == 0 {
                return true;
            }
            let Some(t) = self.next_event_time() else {
                break;
            };
            if t > deadline {
                break;
            }
            self.run_until(t);
        }
        let stuck = self.stuck_pids();
        if stuck.is_empty() {
            return true;
        }
        eprintln!(
            "run_to_completion: {} process(es) stuck at {:?} (deadline {:?}): {:?}",
            stuck.len(),
            self.now,
            deadline,
            stuck
        );
        // For each stuck process, dump the offending page's library
        // record — queue, current epoch, pending serve — plus the stuck
        // site's own routing hint, so a wedged handoff (role in flight,
        // stale hint, orphaned serve) is visible from the log alone.
        for (pid, _) in &stuck {
            let site = &self.sites[pid.site.index()];
            let Some(proc_) = site.procs.iter().find(|p| p.pid == *pid) else { continue };
            let Some((r, access)) = proc_.pending.as_ref().and_then(|(op, _)| op.access())
            else {
                continue;
            };
            let engine = site.driver.engine();
            eprintln!(
                "  {:?} blocked on {:?} page {} ({:?}); hint: library at site{} epoch {}",
                pid,
                r.seg,
                r.page.0,
                access,
                engine.resolved_library(r.seg, r.page).0,
                engine.library_epoch(r.seg, r.page),
            );
            let mut live = false;
            for s in &self.sites {
                if let Some(d) = s.driver.engine().library_debug(r.seg, r.page) {
                    eprintln!("    library role live at site{}: {}", s.id.0, d);
                    live = true;
                }
            }
            if !live {
                eprintln!(
                    "    no site holds the active library role for {:?} (handoff in flight?)",
                    r.seg
                );
            }
        }
        false
    }

    /// Processes that have not exited, with their scheduling state —
    /// the diagnostic payload for a failed [`World::run_to_completion`].
    pub fn stuck_pids(&self) -> Vec<(Pid, ProcState)> {
        self.sites
            .iter()
            .flat_map(|s| s.procs.iter())
            .filter(|p| p.state != ProcState::Done)
            .map(|p| (p.pid, p.state))
            .collect()
    }

    /// Sum of a metric across all processes at a site.
    pub fn site_metric(&self, site: usize) -> u64 {
        self.sites[site].procs.iter().map(Process::metric).sum()
    }

    /// Sum of all program metrics in the world.
    pub fn total_metric(&self) -> u64 {
        (0..self.sites.len()).map(|s| self.site_metric(s)).sum()
    }

    /// Total completed shared-memory accesses in the world.
    pub fn total_accesses(&self) -> u64 {
        self.sites.iter().flat_map(|s| s.procs.iter()).map(|p| p.accesses).sum()
    }

    /// Total protocol events dispatched through the driver layer across
    /// all sites (faults, deliveries, timer firings).
    pub fn engine_events(&self) -> u64 {
        self.sites.iter().map(|s| s.driver.events_dispatched()).sum()
    }

    /// Event-loop work counters since the world was built.
    pub fn loop_counters(&self) -> LoopCounters {
        self.counters
    }

    /// Enables Table 3 phase tracing (preallocates the trace buffer).
    pub fn enable_phase_trace(&mut self) {
        self.instr.trace_phases = true;
        self.instr.phases.reserve(256);
    }

    /// Enables §9 reference-log collection. Off by default: every
    /// library reference appends an entry, so long runs would grow the
    /// log without bound and the allocations would distort throughput.
    pub fn enable_ref_log(&mut self) {
        self.collect_ref_log = true;
    }

    /// Enables protocol trace collection: flips the engines' trace flag
    /// at every site and starts buffering the resulting events (plus the
    /// world's own wire and fault-layer events). Enabling tracing never
    /// changes simulated timestamps — trace effects are excluded from
    /// the scheduler's progress accounting.
    pub fn enable_tracing(&mut self) {
        self.collect_trace = true;
        for s in &mut self.sites {
            s.driver.set_tracing(true);
        }
    }

    /// The collected protocol trace (empty unless
    /// [`World::enable_tracing`] was called).
    pub fn trace_events(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Takes ownership of the collected trace, leaving it empty.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Builds a wire-layer trace event (sender's perspective).
    fn wire_event(
        &self,
        at: SimTime,
        site: usize,
        kind: TraceKind,
        msg: &ProtoMsg,
    ) -> TraceEvent {
        let mut ev = TraceEvent::new(at, SiteId(site as u16), kind);
        ev.subject = Some(msg.subject());
        ev.msg = Some(msg.kind());
        ev
    }
}

#[cfg(test)]
mod tests {
    use mirage_core::{
        DeltaPolicy,
        RetryPolicy,
    };
    use mirage_net::CrashEvent;
    use mirage_types::Delta;

    use super::*;
    use crate::program::{
        MemRef,
        Op,
        Script,
    };

    const READERS: usize = 64;
    const DOWN: SimDuration = SimDuration::from_millis(50);

    /// `READERS` sites each read one page held by a library at site 0,
    /// which crashes at `crash_at` and restarts `DOWN` later.
    fn fanout_with_library_crash(crash_at: SimTime) -> World {
        let mut cfg = SimConfig::default();
        cfg.protocol.delta = DeltaPolicy::Uniform(Delta(0));
        cfg.protocol.retry = Some(RetryPolicy::default());
        let mut w = World::new(READERS + 1, cfg);
        let seg = w.create_segment(0, 1);
        let mut plan = FaultPlan::none();
        plan.crashes.push(CrashEvent {
            site: SiteId(0),
            at: crash_at,
            back_at: crash_at + DOWN,
        });
        w.install_fault_plan(plan);
        let r = MemRef::new(seg, PageNum(0), 0);
        for s in 1..=READERS {
            w.spawn(s, Box::new(Script::new(vec![Op::Read(r), Op::Exit])), 1);
        }
        w
    }

    /// The largest queued wake run of `site`, as `(time, count)`.
    fn largest_wake_run(w: &World, site: usize) -> Option<(SimTime, u32)> {
        w.events
            .queued()
            .filter_map(|(t, ev)| match *ev {
                Ev::SiteWake { site: s, count } if s == site => Some((t, count)),
                _ => None,
            })
            .max_by_key(|&(_, count)| count)
    }

    #[test]
    fn library_crash_drops_a_queued_wake_run_whole() {
        // Find an instant at which the library has a run of wakes queued,
        // on a copy whose crash comes far later: both worlds follow the
        // same timeline until the earlier crash fires.
        let late = SimTime::from_millis(50_000);
        let mut probe = fanout_with_library_crash(late);
        let mut found = None;
        while let Some(t) = probe.next_event_time().filter(|&t| t < late) {
            probe.run_until(t);
            if largest_wake_run(&probe, 0).is_some_and(|(_, n)| n >= 2) {
                found = Some((t, probe.next_event_time().expect("the run is queued")));
                break;
            }
        }
        let (seen_at, crash_at) = found.expect("the library queues a wake run");

        let mut w = fanout_with_library_crash(crash_at);
        w.run_until(seen_at);
        let (run_at, run_len) = largest_wake_run(&w, 0).expect("same timeline as the probe");
        assert!(run_len >= 2 && run_at >= crash_at && run_at < crash_at + DOWN);

        // The crash pops first at its instant; then the run pops and is
        // dropped whole: none of its members steps the down site.
        let before = w.loop_counters();
        w.run_until(run_at);
        let after = w.loop_counters();
        assert!(after.wakes - before.wakes >= u64::from(run_len), "the run popped");
        assert!(after.site_steps - before.site_steps < u64::from(run_len));

        // Nothing wakes the library again until its restart.
        w.run_until(SimTime((crash_at + DOWN).0 - 1));
        assert_eq!(largest_wake_run(&w, 0), None, "the run was dropped while down");

        assert!(w.run_to_completion(SimTime::from_millis(60_000)));
        assert!(w.stuck_pids().is_empty());
        assert_eq!(w.total_accesses(), READERS as u64, "every reader read the page");
        assert_eq!(w.fault_stats().map(|f| f.crashes), Some(1));
    }
}
