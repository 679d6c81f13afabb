//! One simulated Locus site: CPU scheduler, kernel server work, and the
//! protocol engine.

use std::collections::VecDeque;

use mirage_core::{
    Action,
    DriverOps,
    Event,
    InMemStore,
    PageStore,
    ProtoMsg,
    ProtocolDriver,
    RefLogEntry,
};
use mirage_net::{
    NetCosts,
    SizeClass,
};
use mirage_trace::TraceEvent;
use mirage_types::{
    Pid,
    SimDuration,
    SimTime,
    SiteId,
    TICK,
};

use crate::{
    process::{
        ProcState,
        Process,
    },
    program::Op,
};

/// Scheduler parameters (defaults model the paper's Locus/VAX system).
#[derive(Clone, Debug)]
pub struct SchedParams {
    /// Round-robin quantum. 6 ticks ≈ 100 ms: "the intersection of the
    /// two curves (Δ=6) is the system's scheduling quantum" (§7.3).
    pub quantum: SimDuration,
    /// Sleep taken by `yield()` when no other process is ready:
    /// 2 ticks ≈ 33 ms ("2.75 sleeps of 33 msecs", §7.3).
    pub yield_sleep: SimDuration,
    /// Base context-switch cost at dispatch (plus the per-page remap).
    pub context_switch: SimDuration,
    /// CPU cost of one shared-memory access (load or store with loop
    /// overhead) — calibrated so an uncontended read-write loop runs at
    /// ≈115 k accesses/s, Figure 8's peak.
    pub access_cost: SimDuration,
    /// CPU cost of the `yield()` system call itself.
    pub yield_cost: SimDuration,
    /// Kernel cost to process an expired protocol timer.
    pub timer_cost: SimDuration,
}

impl Default for SchedParams {
    fn default() -> Self {
        Self {
            quantum: TICK.scale(6),
            yield_sleep: TICK.scale(2),
            context_switch: SimDuration::from_micros(2800),
            access_cost: SimDuration(8_700), // 8.7 µs ⇒ ≈115 k accesses/s

            yield_cost: SimDuration::from_micros(200),
            timer_cost: SimDuration::from_micros(300),
        }
    }
}

/// Kernel server work awaiting a scheduling point.
#[derive(Debug)]
pub(crate) enum ServerWork {
    /// Deliver a received protocol message to the engine.
    Deliver {
        /// Originating site.
        from: SiteId,
        /// The message.
        msg: ProtoMsg,
    },
    /// Fire an engine timer.
    Timer {
        /// Timer token.
        token: u64,
    },
}

/// Effects a site hands back to the world for global application.
#[derive(Debug)]
pub(crate) enum OutEffect {
    /// Put a message on the wire at `depart`.
    Send {
        /// Destination site.
        to: SiteId,
        /// The message.
        msg: ProtoMsg,
        /// Departure time (end of the kernel work that produced it).
        depart: SimTime,
    },
    /// Schedule an engine timer.
    SetTimer {
        /// Fire time.
        at: SimTime,
        /// Token.
        token: u64,
    },
    /// A library reference-log record (§9).
    Log(RefLogEntry),
    /// A protocol trace event (observability layer; only produced when
    /// tracing is enabled in the protocol configuration).
    Trace(TraceEvent),
    /// A fault was raised and required a request to a *remote* library.
    RemoteFault,
    /// A fault was serviced entirely by a colocated library.
    LocalFault,
    /// An invalidation denial was sent (Δ unexpired).
    Denial,
    /// Kernel server CPU time consumed (for utilization accounting).
    ServerCpu(SimDuration),
}

/// One simulated site.
pub struct Site {
    /// Site id.
    pub id: SiteId,
    /// The protocol driver wrapping the real engine from `mirage-core`.
    pub driver: ProtocolDriver,
    /// Page-frame storage for this site.
    pub store: InMemStore,
    /// All processes ever spawned here.
    pub procs: Vec<Process>,
    /// How many of `procs` have not exited.
    live: usize,
    run_queue: VecDeque<usize>,
    current: Option<usize>,
    quantum_end: SimTime,
    busy_until: SimTime,
    server_q: VecDeque<ServerWork>,
    /// When the oldest still-pending server work was enqueued; kernel
    /// work preempts a running user process at the first clock tick
    /// after this instant (classic UNIX: the wakeup sets `runrun` and
    /// the next tick reschedules).
    server_pending_since: Option<SimTime>,
    /// The current process was just woken from a fault sleep and has not
    /// yet completed the faulted access; it runs at kernel sleep
    /// priority and is immune to tick preemption until then.
    boost_shield: bool,
    sched: SchedParams,
    costs: NetCosts,
    /// Per-page remap charge at dispatch = remap_per_page × shm_pages.
    remap_per_page: SimDuration,
    /// `MIRAGE_SIM_TRACE` was set at construction. Cached: an environment
    /// lookup per server event would dominate the dispatch hot path.
    trace: bool,
}

impl Site {
    pub(crate) fn new(
        id: SiteId,
        driver: ProtocolDriver,
        sched: SchedParams,
        costs: NetCosts,
    ) -> Self {
        let remap_per_page = costs.remap_per_page;
        Self {
            id,
            driver,
            store: InMemStore::new(),
            procs: Vec::new(),
            live: 0,
            run_queue: VecDeque::new(),
            current: None,
            quantum_end: SimTime::ZERO,
            busy_until: SimTime::ZERO,
            server_q: VecDeque::new(),
            server_pending_since: None,
            boost_shield: false,
            sched,
            costs,
            remap_per_page,
            trace: std::env::var_os("MIRAGE_SIM_TRACE").is_some(),
        }
    }

    /// Spawns a process; it joins the run queue immediately.
    pub(crate) fn spawn(&mut self, proc: Process) -> usize {
        let idx = self.procs.len();
        self.procs.push(proc);
        self.live += 1;
        self.run_queue.push_back(idx);
        idx
    }

    /// Queues kernel server work (message delivery or timer).
    pub(crate) fn queue_server_work(&mut self, work: ServerWork, now: SimTime) {
        if self.server_pending_since.is_none() {
            self.server_pending_since = Some(now);
        }
        self.server_q.push_back(work);
    }

    /// The first clock-tick boundary strictly after `t`.
    fn tick_after(t: SimTime) -> SimTime {
        t.next_tick_boundary()
    }

    /// True when nothing can ever happen again at this site without
    /// external input.
    pub(crate) fn is_idle(&self) -> bool {
        self.current.is_none()
            && self.server_q.is_empty()
            && self.run_queue.is_empty()
            && !self.procs.iter().any(|p| matches!(p.state, ProcState::Sleeping(_)))
    }

    /// How many user programs have not yet exited.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Until when the CPU is committed: a step before this instant
    /// does nothing but ask to be woken at it.
    pub(crate) fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    fn nearest_sleeper(&self) -> Option<SimTime> {
        self.procs
            .iter()
            .filter_map(|p| match p.state {
                ProcState::Sleeping(t) => Some(t),
                _ => None,
            })
            .min()
    }

    /// Drains the driver's pending actions into world effects and local
    /// process wakes. Sends depart at `depart` (the end of the kernel
    /// work that produced them).
    fn flush_driver(&mut self, depart: SimTime, effects: &mut Vec<OutEffect>) {
        let Site { driver, procs, run_queue, .. } = self;
        driver.flush(&mut SimOps { depart, effects, procs, run_queue });
    }

    /// The site halts. Volatile state dies: queued kernel work, the run
    /// queue, the engine's in-flight rounds and timers. Every live
    /// process freezes as `Blocked` with its interrupted operation still
    /// pending, so on restart it re-issues the access and re-faults if
    /// the page went away. Page frames and the engine's persistent
    /// tables survive (the crash model journals them).
    pub(crate) fn crash(&mut self) {
        self.driver.crash();
        self.server_q.clear();
        self.server_pending_since = None;
        self.boost_shield = false;
        self.run_queue.clear();
        self.current = None;
        for p in &mut self.procs {
            if p.state != ProcState::Done {
                p.state = ProcState::Blocked;
                p.boosted = false;
            }
        }
    }

    /// The site comes back at `now` with cold scheduler state. Frozen
    /// processes rejoin the run queue (parked workers included: they
    /// re-check their station queue and re-park if it is still empty);
    /// the engine reconstructs its retransmission obligations from the
    /// persistent tables, and the resulting sends depart immediately.
    pub(crate) fn restart(&mut self, now: SimTime, effects: &mut Vec<OutEffect>) {
        self.busy_until = now;
        self.quantum_end = now;
        self.boost_shield = false;
        for i in 0..self.procs.len() {
            if self.procs[i].state == ProcState::Blocked {
                self.procs[i].state = ProcState::Ready;
                self.procs[i].parked = false;
                self.run_queue.push_back(i);
            }
        }
        self.driver.restart(now, &mut self.store);
        self.flush_driver(now, effects);
    }

    /// Re-readies parked processes whose pid is in `pids` (an open-loop
    /// station's workers, when an arrival lands). Returns whether any
    /// process was woken. No wake boost: a fresh request is ordinary
    /// work, not a fault-sleep resumption.
    pub(crate) fn wake_parked(&mut self, pids: &[Pid]) -> bool {
        let mut woke = false;
        for i in 0..self.procs.len() {
            let p = &mut self.procs[i];
            if p.parked && p.state == ProcState::Blocked && pids.contains(&p.pid) {
                p.state = ProcState::Ready;
                p.parked = false;
                self.run_queue.push_back(i);
                woke = true;
            }
        }
        woke
    }

    /// Initiates a library-role handoff at this site (which must hold
    /// the active role for `seg`). Administrative, like [`Site::restart`]:
    /// no CPU is charged — the placement machinery models a kernel
    /// daemon acting between scheduling points.
    pub(crate) fn migrate_library(
        &mut self,
        now: SimTime,
        seg: mirage_types::SegmentId,
        to: SiteId,
        shard: Option<u32>,
        effects: &mut Vec<OutEffect>,
    ) {
        self.driver.dispatch(Event::MigrateLibrary { seg, to, shard }, now, &mut self.store);
        self.flush_driver(now, effects);
    }

    /// Advances the site at `now`. `horizon` is the next global event
    /// time: user-op batches never run past it. Returns when the site
    /// next needs attention (`None` if idle).
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        horizon: SimTime,
        effects: &mut Vec<OutEffect>,
    ) -> Option<SimTime> {
        if now < self.busy_until {
            return Some(self.busy_until);
        }
        // Promote due sleepers.
        for i in 0..self.procs.len() {
            if let ProcState::Sleeping(t) = self.procs[i].state {
                if t <= now {
                    self.procs[i].state = ProcState::Ready;
                    self.run_queue.push_back(i);
                }
            }
        }
        // Quantum expiry is a scheduling point.
        if let Some(c) = self.current {
            if now >= self.quantum_end {
                self.run_queue.push_back(c);
                self.current = None;
                self.boost_shield = false;
            }
        }
        // Pending kernel work preempts the running user process at the
        // first clock tick after it became pending — unless the process
        // is still under its wake boost.
        if let (Some(c), Some(since)) = (self.current, self.server_pending_since) {
            if !self.boost_shield && now >= Self::tick_after(since) {
                self.run_queue.push_front(c);
                self.current = None;
            }
        }
        if self.current.is_none() {
            // A process just woken from a fault sleep runs first (UNIX
            // kernel sleep priority beats the network server process).
            if let Some(pos) = self.run_queue.iter().position(|&i| self.procs[i].boosted) {
                let next = self.run_queue.remove(pos).expect("position valid");
                self.procs[next].boosted = false;
                self.boost_shield = true;
                let remap = self.remap_per_page.scale(self.procs[next].shm_pages as u64);
                let dispatch = self.sched.context_switch + remap;
                self.current = Some(next);
                self.busy_until = now + dispatch;
                self.quantum_end = self.busy_until + self.sched.quantum;
                self.procs[next].cpu_used += dispatch;
                return Some(self.busy_until);
            }
            // Kernel server work has priority at ordinary scheduling
            // points.
            if let Some(work) = self.server_q.pop_front() {
                if self.server_q.is_empty() {
                    self.server_pending_since = None;
                } else {
                    self.server_pending_since = Some(now);
                }
                return Some(self.run_server_work(work, now, effects));
            }
            if let Some(next) = self.run_queue.pop_front() {
                self.boost_shield = false;
                // Dispatch: context switch plus the lazy remap of all the
                // process's shared pages (§6.2).
                let remap = self.remap_per_page.scale(self.procs[next].shm_pages as u64);
                let dispatch = self.sched.context_switch + remap;
                self.current = Some(next);
                self.busy_until = now + dispatch;
                self.quantum_end = self.busy_until + self.sched.quantum;
                self.procs[next].cpu_used += dispatch;
                return Some(self.busy_until);
            }
            // Idle; wake when the nearest sleeper is due.
            return self.nearest_sleeper();
        }
        // A user process is running: execute ops up to the horizon or
        // the quantum end, whichever is first. A horizon at the current
        // instant does not bind: same-time events cannot preempt the
        // running process (kernel work waits for a scheduling point), so
        // stopping for them would spin the event loop without progress.
        let stop = if horizon > now { horizon.min(self.quantum_end) } else { self.quantum_end };
        self.run_user_ops(now, stop, effects)
    }

    fn run_server_work(
        &mut self,
        work: ServerWork,
        now: SimTime,
        effects: &mut Vec<OutEffect>,
    ) -> SimTime {
        let (base, ev) = match work {
            ServerWork::Deliver { from, msg } => {
                let base = match &msg {
                    // Table 3: "Server process time for request* 1.5".
                    ProtoMsg::PageRequest { .. } => self.costs.server_cpu,
                    // §7.2: 1.5 ms per input interrupt to install,
                    // invalidate, or upgrade.
                    _ => self.costs.input_interrupt,
                };
                (base, Event::Deliver { from, msg })
            }
            ServerWork::Timer { token } => (self.sched.timer_cost, Event::Timer { token }),
        };
        // Run the engine, then charge `serve_processing` per page grant
        // emitted (Table 3: "Processing Time* 2" — PTE allocate, map,
        // copy to message, unmap; see the §7.1 footnote).
        if self.trace {
            if let Event::Deliver { from, ref msg } = ev {
                eprintln!(
                    "[{:?}] site{} <- {:?}: {} {:?}",
                    now,
                    self.id.0,
                    from,
                    msg.tag(),
                    msg.subject()
                );
            } else if let Event::Timer { token } = ev {
                eprintln!("[{:?}] site{} timer {}", now, self.id.0, token);
            }
        }
        let summary = self.driver.dispatch(ev, now, &mut self.store);
        if self.trace {
            for a in self.driver.pending() {
                if let Action::Send { to, msg } = a {
                    eprintln!("    site{} -> site{}: {} ", self.id.0, to.0, msg.tag());
                }
                if let Action::Wake { pid } = a {
                    eprintln!("    site{} wake {:?}", self.id.0, pid);
                }
            }
        }
        // Sends depart when the kernel work completes; the two-phase
        // driver lets us price the work from the grant count before the
        // departure timestamp exists.
        let cost = base + self.costs.serve_processing.scale(u64::from(summary.grants));
        let done = now + cost;
        self.flush_driver(done, effects);
        effects.push(OutEffect::ServerCpu(cost));
        self.busy_until = done;
        done
    }

    fn run_user_ops(
        &mut self,
        now: SimTime,
        stop: SimTime,
        effects: &mut Vec<OutEffect>,
    ) -> Option<SimTime> {
        let c = self.current.expect("user batch requires a running process");
        let mut t = now;
        loop {
            // Recompute the effective stop: pending server work preempts
            // at the next tick once the wake boost is spent.
            let mut stop = stop;
            if !self.boost_shield {
                if let Some(since) = self.server_pending_since {
                    stop = stop.min(Self::tick_after(since).max(t));
                }
            }
            if t >= stop {
                // Horizon or quantum boundary; resume at `stop` (quantum
                // expiry is then handled as a scheduling point).
                self.busy_until = t;
                return Some(stop);
            }
            let (op, remaining) = match self.procs[c].pending.take() {
                Some(p) => p,
                None => {
                    let last = self.procs[c].last_read.take();
                    let op = self.procs[c].program.step_at(t, last);
                    (op, self.op_cost(op))
                }
            };
            // Memory accesses fault on issue if the protection is
            // insufficient.
            if let Some((r, access)) = op.access() {
                if !self.store.prot(r.seg, r.page).permits(access) {
                    let pid = self.procs[c].pid;
                    self.procs[c].faults += 1;
                    // Local iff the engine will serve the fault inline:
                    // this site both resolves the library here *and*
                    // holds the active role (a stale self-hint after a
                    // handoff still pays the remote-request cost).
                    let engine = self.driver.engine();
                    let local_library = engine.resolved_library(r.seg, r.page) == self.id
                        && engine.library_active_for(r.seg, r.page);
                    let fault_cost = if local_library {
                        self.costs.local_fault
                    } else {
                        self.costs.request_cpu
                    };
                    effects.push(if local_library {
                        OutEffect::LocalFault
                    } else {
                        OutEffect::RemoteFault
                    });
                    let done = t + fault_cost;
                    self.driver.dispatch(
                        Event::Fault { pid, seg: r.seg, page: r.page, access },
                        t,
                        &mut self.store,
                    );
                    // Re-attempt the access when the process resumes.
                    self.procs[c].pending = Some((op, self.op_cost(op)));
                    self.procs[c].state = ProcState::Blocked;
                    self.procs[c].cpu_used += fault_cost;
                    self.current = None;
                    self.busy_until = done;
                    self.flush_driver(done, effects);
                    // A colocated library may have completed the whole
                    // request inline, waking us synchronously: `wake`
                    // has then already re-queued the process.
                    return Some(done);
                }
            }
            if t + remaining > stop {
                self.procs[c].pending = Some((op, remaining.saturating_sub(stop - t)));
                self.procs[c].cpu_used += stop - t;
                self.busy_until = stop;
                return Some(stop);
            }
            t += remaining;
            self.procs[c].cpu_used += remaining;
            self.boost_shield = false;
            match op {
                Op::Read(r) => {
                    let val = self
                        .store
                        .segment(r.seg)
                        .and_then(|s| s.frame(r.page))
                        .map(|f| f.load_u32(r.offset))
                        .unwrap_or_else(|| {
                            // Residency was verified at issue; the page
                            // cannot vanish while we hold the CPU.
                            unreachable!("read from non-resident page")
                        });
                    self.procs[c].last_read = Some(val);
                    self.procs[c].accesses += 1;
                }
                Op::Write(r, val) => {
                    self.store
                        .segment_mut(r.seg)
                        .and_then(|s| s.frame_mut(r.page))
                        .map(|f| f.store_u32(r.offset, val))
                        .unwrap_or_else(|| unreachable!("write to non-resident page"));
                    self.procs[c].accesses += 1;
                }
                Op::Compute(_) => {}
                Op::Yield => {
                    self.current = None;
                    self.busy_until = t;
                    if self.run_queue.is_empty() {
                        // No one else to run: Locus sleeps the yielder
                        // until the next scheduling interval.
                        self.procs[c].state = ProcState::Sleeping(t + self.sched.yield_sleep);
                        self.procs[c].yield_sleeps += 1;
                    } else {
                        self.run_queue.push_back(c);
                    }
                    return Some(t);
                }
                Op::Sleep(d) => {
                    self.current = None;
                    self.busy_until = t;
                    self.procs[c].state = ProcState::Sleeping(t + d);
                    return Some(t);
                }
                Op::Park => {
                    self.current = None;
                    self.busy_until = t;
                    self.procs[c].state = ProcState::Blocked;
                    self.procs[c].parked = true;
                    return Some(t);
                }
                Op::Exit => {
                    self.current = None;
                    self.busy_until = t;
                    self.procs[c].state = ProcState::Done;
                    self.live -= 1;
                    return Some(t);
                }
            }
        }
    }

    fn op_cost(&self, op: Op) -> SimDuration {
        match op {
            Op::Read(_) | Op::Write(_, _) => self.sched.access_cost,
            Op::Compute(d) => d,
            Op::Yield => self.sched.yield_cost,
            Op::Sleep(_) | Op::Park | Op::Exit => SimDuration::ZERO,
        }
    }
}

impl core::fmt::Debug for Site {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Site")
            .field("id", &self.id)
            .field("procs", &self.procs.len())
            .field("run_queue", &self.run_queue)
            .field("current", &self.current)
            .field("server_q", &self.server_q.len())
            .finish()
    }
}

/// [`DriverOps`] receiver for the simulator: sends and timers become
/// [`OutEffect`]s for the world to apply globally; wakes act directly on
/// this site's process table and run queue.
struct SimOps<'a> {
    /// Departure timestamp stamped onto every send.
    depart: SimTime,
    effects: &'a mut Vec<OutEffect>,
    procs: &'a mut Vec<Process>,
    run_queue: &'a mut VecDeque<usize>,
}

impl DriverOps for SimOps<'_> {
    fn send(&mut self, to: SiteId, msg: ProtoMsg) {
        if matches!(msg, ProtoMsg::InvalidateDeny { .. }) {
            self.effects.push(OutEffect::Denial);
        }
        self.effects.push(OutEffect::Send { to, msg, depart: self.depart });
    }

    fn wake(&mut self, pid: Pid) {
        for (i, p) in self.procs.iter_mut().enumerate() {
            if p.pid == pid && p.state == ProcState::Blocked {
                p.state = ProcState::Ready;
                p.boosted = true;
                p.parked = false;
                self.run_queue.push_back(i);
            }
        }
    }

    fn set_timer(&mut self, at: SimTime, token: u64) {
        self.effects.push(OutEffect::SetTimer { at, token });
    }

    fn log(&mut self, entry: RefLogEntry) {
        self.effects.push(OutEffect::Log(entry));
    }

    fn trace(&mut self, ev: TraceEvent) {
        self.effects.push(OutEffect::Trace(ev));
    }
}

/// Size class of a message (used by the world for wire-delay lookup).
pub(crate) fn msg_size(msg: &ProtoMsg) -> SizeClass {
    use mirage_net::message::Sized2;
    msg.size_class()
}
