//! Simulator throughput: how much simulated time per real second the
//! discrete-event engine sustains, and how many protocol events per
//! second flow through the driver layer (`ProtocolDriver::dispatch`
//! calls: faults, deliveries, timer firings).
//!
//! Four scenarios:
//!
//! * `fig8_one_simulated_second` — the Figure 8 decrementer pair with
//!   Δ = 6 ticks. Dominated by simulated user ops; protocol events are
//!   rare (the window keeps ownership put). Tracks overall sim speed.
//! * `delta0_pingpong` — the same pair with Δ = 0 (pure
//!   write-invalidate): every ownership transfer runs the full
//!   request/invalidate/grant exchange, so the protocol engine and the
//!   driver layer dominate. Tracks driver-layer events/sec.
//! * `driver_pingpong` — two engines wired back to back with no
//!   simulator at all: the pinned n≤64 hot-path number.
//! * `invalidation_1024` — a 1,026-site read fan-out invalidated by one
//!   writer: chunked reader masks, the paged circuit table and the
//!   library's request queue. It also prints the event loop's work
//!   counters (queue pops, site wakes, site steps) beside the driver
//!   events, so the events/sec figure shows what the loop really did.
//!
//! The committed before/after numbers live in `BENCH_sim_throughput.json`
//! at the repo root; regenerate the "after" entries by running this
//! bench on the current tree. A scenario-substring filter skips the
//! rest (`cargo bench --bench sim_throughput -p mirage-bench --
//! driver_pingpong` re-checks the n≤64 pin without the 1,024-site
//! fan-out).

use std::collections::VecDeque;

use mirage_bench::harness::bench;
use mirage_bench::sim_config;
use mirage_core::{
    Event,
    InMemStore,
    ProtoMsg,
    ProtocolConfig,
    ProtocolDriver,
    RecordedOps,
};
use mirage_mem::LocalSegment;
use mirage_sim::World;
use mirage_types::{
    Access,
    Delta,
    PageNum,
    Pid,
    SegmentId,
    SimDuration,
    SimTime,
    SiteId,
};
use mirage_workloads::{
    Decrementer,
    PeriodicWriter,
    Rereader,
};

/// One iteration of a decrementer ping-pong over one shared page.
fn pingpong(delta: Delta, sim_ms: u64) -> World {
    let mut w = World::new(2, sim_config(delta));
    let seg = w.create_segment(0, 1);
    w.spawn(0, Box::new(Decrementer::new(seg, 0, u32::MAX / 2)), 1);
    w.spawn(1, Box::new(Decrementer::new(seg, 128, u32::MAX / 2)), 1);
    w.run_until(SimTime::ZERO + SimDuration::from_millis(sim_ms));
    w
}

/// Runs one scenario and prints its human and JSON result lines.
fn scenario(name: &str, delta: Delta, sim_ms: u64) -> String {
    // The workload is fully deterministic, so one instrumented run
    // yields the exact per-iteration event count.
    let probe = pingpong(delta, sim_ms);
    let events_per_iter = probe.engine_events();
    let accesses = probe.total_accesses();
    drop(probe);

    let r = bench(name, || std::hint::black_box(pingpong(delta, sim_ms).total_accesses()));

    let events_per_sec = events_per_iter as f64 * r.per_sec();
    println!(
        "{name}: {events_per_iter} driver events/iter, {accesses} accesses/iter, \
         {:.3} M driver events/sec",
        events_per_sec / 1e6
    );
    format!(
        "{{\"scenario\":\"{name}\",\"ns_per_iter\":{:.1},\
         \"events_per_iter\":{events_per_iter},\"events_per_sec\":{:.0}}}",
        r.ns_per_iter, events_per_sec
    )
}

/// Two sites driven directly through the driver layer — no simulated
/// time, no scheduler: pure protocol-engine throughput.
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
        let mut drivers = [
            ProtocolDriver::from_config(SiteId(0), ProtocolConfig::default()),
            ProtocolDriver::from_config(SiteId(1), ProtocolConfig::default()),
        ];
        let mut stores = [InMemStore::new(), InMemStore::new()];
        for (i, (d, s)) in drivers.iter_mut().zip(stores.iter_mut()).enumerate() {
            s.add_segment(if i == 0 {
                LocalSegment::fully_resident(seg, 1)
            } else {
                LocalSegment::absent(seg, 1)
            });
            d.register_segment(seg, 1);
        }
        Self { drivers, stores, ops: RecordedOps::new(), net: VecDeque::new(), seg }
    }

    /// Dispatches one event and moves the resulting sends onto the wire.
    fn pump(&mut self, site: usize, ev: Event) {
        self.drivers[site].drive(ev, SimTime::ZERO, &mut self.stores[site], &mut self.ops);
        let from = SiteId(site as u16);
        for (to, msg) in self.ops.sends.drain(..) {
            self.net.push_back((from, to, msg));
        }
        self.ops.clear();
    }

    /// Raises a write fault and delivers messages until quiescent.
    fn fault_and_settle(&mut self, site: usize) {
        let ev = Event::Fault {
            pid: Pid::new(SiteId(site as u16), 1),
            seg: self.seg,
            page: PageNum(0),
            access: Access::Write,
        };
        self.pump(site, ev);
        while let Some((from, to, msg)) = self.net.pop_front() {
            self.pump(to.index(), Event::Deliver { from, msg });
        }
    }

    /// One full ownership round trip between the two sites.
    fn cycle(&mut self) {
        self.fault_and_settle(1);
        self.fault_and_settle(0);
    }

    fn events(&self) -> u64 {
        self.drivers.iter().map(ProtocolDriver::events_dispatched).sum()
    }
}

/// Benchmarks the driver layer directly: one iteration is a full write
/// ping-pong (two ownership transfers).
fn driver_scenario() -> String {
    let name = "driver_pingpong";
    let mut probe = DirectPair::new();
    let before = {
        probe.cycle();
        probe.events()
    };
    probe.cycle();
    let events_per_iter = probe.events() - before;
    drop(probe);

    let mut pair = DirectPair::new();
    pair.cycle(); // warm every buffer to steady-state capacity
    let r = bench(name, || pair.cycle());

    let events_per_sec = events_per_iter as f64 * r.per_sec();
    println!(
        "{name}: {events_per_iter} driver events/iter, {:.3} M driver events/sec",
        events_per_sec / 1e6
    );
    format!(
        "{{\"scenario\":\"{name}\",\"ns_per_iter\":{:.1},\
         \"events_per_iter\":{events_per_iter},\"events_per_sec\":{:.0}}}",
        r.ns_per_iter, events_per_sec
    )
}

/// A 1,024-reader invalidation fan-out — the planet-scale path: reader
/// masks spill past the inline 64-bit word, and the circuit table runs
/// in its paged (lazily allocated) representation. One iteration is the
/// full world: 1,024 sites each take a read copy of one page, then a
/// writer invalidates every one of them.
fn largen_scenario() -> String {
    const N: usize = 1024;
    let name = "invalidation_1024";
    fn run() -> World {
        let mut w = World::new(N + 2, sim_config(Delta(0)));
        let seg = w.create_segment(0, 1);
        for s in 1..=N {
            w.spawn(s, Box::new(Rereader::new(seg, 1, SimDuration::ZERO)), 1);
        }
        w.run_to_completion(SimTime::from_millis(60_000));
        w.spawn(N + 1, Box::new(PeriodicWriter::new(seg, 1, SimDuration::ZERO)), 1);
        w.run_to_completion(SimTime::from_millis(120_000));
        w
    }

    let probe = run();
    let events_per_iter = probe.engine_events();
    let work = probe.loop_counters();
    drop(probe);

    let r = bench(name, || std::hint::black_box(run().total_accesses()));
    let events_per_sec = events_per_iter as f64 * r.per_sec();
    println!(
        "{name}: {events_per_iter} driver events/iter, {:.3} M driver events/sec; \
         {} queue pops, {} site wakes, {} site steps/iter",
        events_per_sec / 1e6,
        work.queue_pops,
        work.wakes,
        work.site_steps
    );
    format!(
        "{{\"scenario\":\"{name}\",\"ns_per_iter\":{:.1},\
         \"events_per_iter\":{events_per_iter},\"events_per_sec\":{:.0},\
         \"queue_pops_per_iter\":{},\"wakes_per_iter\":{},\"site_steps_per_iter\":{}}}",
        r.ns_per_iter, events_per_sec, work.queue_pops, work.wakes, work.site_steps
    )
}

fn main() {
    // `cargo bench --bench sim_throughput -- <substr>` runs only the
    // scenarios whose name contains the filter, like libtest harnesses.
    // Cargo itself passes `--bench` to the harness; skip flag-shaped
    // arguments so a plain `cargo bench` still runs everything.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with("--")).unwrap_or_default();
    let mut results = Vec::new();
    if "fig8_one_simulated_second".contains(&filter) {
        results.push(scenario("fig8_one_simulated_second", Delta(6), 1000));
    }
    if "delta0_pingpong".contains(&filter) {
        results.push(scenario("delta0_pingpong", Delta(0), 250));
    }
    if "driver_pingpong".contains(&filter) {
        results.push(driver_scenario());
    }
    if "invalidation_1024".contains(&filter) {
        results.push(largen_scenario());
    }
    println!("{{\"bench\":\"sim_throughput\",\"results\":[{}]}}", results.join(","));
}
