//! The experiment drivers. Each function corresponds to a row of the
//! per-experiment index in `DESIGN.md`.
//!
//! Every multi-point sweep runs its independent worlds through
//! [`par_map`], one world per worker, collecting results in input order:
//! output is byte-identical at any `--jobs` value (checked by
//! `tests/determinism.rs`).

use mirage_baseline::{
    AccessTrace,
    CostReport,
    DsmProtocol,
    LiCentral,
    LiDistributed,
    MirageCost,
};
use mirage_core::{
    DeltaPolicy,
    ProtocolConfig,
    RetryPolicy,
};
use mirage_net::NetCosts;
use mirage_sim::{
    instrument::FetchPhase,
    MemRef,
    MigrationEvent,
    Op,
    PlacementPolicy,
    Program,
    SimConfig,
    World,
};
use mirage_types::{
    Delta,
    PageNum,
    SimDuration,
    SimTime,
    SiteId,
};
use mirage_workloads::{
    Background,
    Decrementer,
    FalseSharing,
    LockHolder,
    LockTester,
    PeriodicWriter,
    PingPongPinger,
    PingPongPonger,
    Rereader,
    WriteReadMix,
};

use crate::harness::par_map;

/// Builds a default simulation config with a uniform Δ.
pub fn sim_config(delta: Delta) -> SimConfig {
    SimConfig {
        protocol: ProtocolConfig { delta: DeltaPolicy::Uniform(delta), ..Default::default() },
        ..Default::default()
    }
}

fn pingpong_world(sites: usize, cfg: SimConfig, use_yield: bool) -> World {
    let mut w = World::new(sites, cfg);
    let seg = w.create_segment(0, 1);
    w.spawn(0, Box::new(PingPongPinger::new(seg, u32::MAX / 4, use_yield)), 1);
    w.spawn(1, Box::new(PingPongPonger::new(seg, use_yield)), 1);
    w
}

/// One point of Figure 7.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Point {
    /// Δ in scheduler ticks.
    pub delta: u32,
    /// Cycles/second with `yield()` in the wait loops.
    pub yield_rate: f64,
    /// Cycles/second busy-waiting.
    pub noyield_rate: f64,
}

/// E5 / Figure 7: worst-case throughput versus Δ, yield and no-yield.
pub fn fig7(deltas: &[u32], seconds: u64) -> Vec<Fig7Point> {
    let runs: Vec<(u32, bool)> = deltas.iter().flat_map(|&d| [(d, true), (d, false)]).collect();
    let rates = par_map(&runs, |&(delta, use_yield)| {
        let mut w = pingpong_world(2, sim_config(Delta(delta)), use_yield);
        w.run_until(SimTime::from_millis(seconds * 1000));
        w.sites[0].procs[0].metric() as f64 / seconds as f64
    });
    deltas
        .iter()
        .zip(rates.chunks_exact(2))
        .map(|(&d, pair)| Fig7Point { delta: d, yield_rate: pair[0], noyield_rate: pair[1] })
        .collect()
}

/// One point of Figure 8.
#[derive(Clone, Copy, Debug)]
pub struct Fig8Point {
    /// Δ in scheduler ticks.
    pub delta: u32,
    /// Combined read-write accesses per second over the makespan.
    pub throughput: f64,
    /// Makespan in seconds.
    pub makespan: f64,
}

/// E7 / Figure 8: two conflicting read-writers, throughput versus Δ.
///
/// `task` is the per-process decrement count; the paper sized it so the
/// loops "execute for 10 seconds" — 560 000 decrements runs just under
/// 10 s at the uncontended rate, so a Δ=600 (10 s) window covers one
/// whole task.
pub fn fig8(deltas: &[u32], task: u32) -> Vec<Fig8Point> {
    par_map(deltas, |&d| {
        let mut w = World::new(2, sim_config(Delta(d)));
        let seg = w.create_segment(0, 1);
        w.spawn(0, Box::new(Decrementer::new(seg, 0, task)), 1);
        w.spawn(1, Box::new(Decrementer::new(seg, 128, task)), 1);
        let finished = w.run_to_completion(SimTime::from_millis(600_000));
        debug_assert!(finished, "Δ={d}: duel must finish within 10 minutes");
        let makespan = w.now().as_secs_f64();
        let throughput = w.total_accesses() as f64 / makespan;
        Fig8Point { delta: d, throughput, makespan }
    })
}

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Row label.
    pub label: &'static str,
    /// Our measured value (ms).
    pub ours_ms: f64,
    /// The paper's value (ms).
    pub paper_ms: f64,
}

/// E2 / Table 3: component breakdown of one remote page fetch.
pub fn table3() -> Vec<Table3Row> {
    struct OneRead {
        r: MemRef,
        done: bool,
    }
    impl Program for OneRead {
        fn step(&mut self, _v: Option<u32>) -> Op {
            if self.done {
                return Op::Exit;
            }
            self.done = true;
            Op::Read(self.r)
        }
        fn label(&self) -> &str {
            "one-read"
        }
    }
    let mut w = World::new(2, sim_config(Delta::ZERO));
    let seg = w.create_segment(0, 1);
    w.enable_phase_trace();
    w.spawn(1, Box::new(OneRead { r: MemRef::new(seg, PageNum(0), 0), done: false }), 1);
    w.run_until(SimTime::from_millis(500));
    let gap = |a, b| w.instr.phase_gap(a, b).map(|d| d.as_millis_f64()).unwrap_or(f64::NAN);
    vec![
        Table3Row {
            label: "Using-site read request CPU",
            ours_ms: gap(FetchPhase::FaultTaken, FetchPhase::RequestSent),
            paper_ms: 2.5,
        },
        Table3Row {
            label: "Request transit (output 3.2 + input 3.2)",
            ours_ms: gap(FetchPhase::RequestSent, FetchPhase::RequestReceived),
            paper_ms: 6.4,
        },
        Table3Row {
            label: "Server process (1.5) + processing (2.0)",
            ours_ms: gap(FetchPhase::RequestReceived, FetchPhase::PageSent),
            paper_ms: 3.5,
        },
        Table3Row {
            label: "Page transit (output 7.5 + input 7.5)",
            ours_ms: gap(FetchPhase::PageSent, FetchPhase::PageReceived),
            paper_ms: 15.0,
        },
        Table3Row {
            label: "TOTAL ELAPSED",
            ours_ms: gap(FetchPhase::FaultTaken, FetchPhase::PageReceived),
            paper_ms: 27.5,
        },
    ]
}

/// E1: the raw message-cost anchors.
pub fn component_costs() -> Vec<Table3Row> {
    let c = NetCosts::vax_locus();
    vec![
        Table3Row {
            label: "Short message round trip",
            ours_ms: c.short_round_trip().as_millis_f64(),
            paper_ms: 12.9,
        },
        Table3Row {
            label: "1024-byte buffer + short response round trip",
            ours_ms: c.large_round_trip().as_millis_f64(),
            paper_ms: 21.5,
        },
        Table3Row {
            label: "1024-byte message one-way (extrapolated)",
            ours_ms: c.one_way(mirage_net::SizeClass::Large).as_millis_f64(),
            paper_ms: 15.0,
        },
        Table3Row {
            label: "Lazy remap of one 512-byte page (µs, not ms)",
            ours_ms: c.remap_per_page.0 as f64 / 1000.0,
            paper_ms: 115.5, // midpoint of the measured 106–125 µs
        },
    ]
}

/// E4: single-site ping-pong rates (busy-wait vs `yield()`).
pub fn local_pingpong(seconds: u64) -> (f64, f64) {
    let rates = par_map(&[false, true], |&use_yield| {
        let mut w = World::new(1, sim_config(Delta::ZERO));
        let seg = w.create_segment(0, 1);
        w.spawn(0, Box::new(PingPongPinger::new(seg, u32::MAX / 4, use_yield)), 1);
        w.spawn(0, Box::new(PingPongPonger::new(seg, use_yield)), 1);
        w.run_until(SimTime::from_millis(seconds * 1000));
        w.sites[0].procs[0].metric() as f64 / seconds as f64
    });
    (rates[0], rates[1])
}

/// E6 result: message accounting for the 2-site worst case.
#[derive(Clone, Debug)]
pub struct MsgAccounting {
    /// Completed cycles.
    pub cycles: u64,
    /// Network messages per cycle (paper: 9).
    pub per_cycle: f64,
    /// Page-carrying messages per cycle (paper: 3).
    pub large_per_cycle: f64,
    /// Per-message-kind counts per cycle.
    pub by_tag: Vec<(&'static str, f64)>,
    /// Measured cycle rate (paper bound: 9 cycles/s).
    pub cycles_per_sec: f64,
}

/// E6: exact message counts for the worst case at Δ=0 with `yield()`.
pub fn msg_accounting(seconds: u64) -> MsgAccounting {
    let mut w = pingpong_world(2, sim_config(Delta::ZERO), true);
    w.run_until(SimTime::from_millis(seconds * 1000));
    let cycles = w.sites[0].procs[0].metric().max(1);
    let mut by_tag: Vec<(&'static str, f64)> = mirage_net::MsgKind::ALL
        .iter()
        .map(|&k| (k.name(), w.instr.msgs.count(k) as f64 / cycles as f64))
        .filter(|&(_, n)| n > 0.0)
        .collect();
    by_tag.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(core::cmp::Ordering::Equal));
    MsgAccounting {
        cycles,
        per_cycle: w.instr.msgs.total() as f64 / cycles as f64,
        large_per_cycle: w.instr.msgs.large as f64 / cycles as f64,
        by_tag,
        cycles_per_sec: cycles as f64 / seconds as f64,
    }
}

/// E9 result: one test&set configuration.
#[derive(Clone, Copy, Debug)]
pub struct SpinlockPoint {
    /// Δ in ticks.
    pub delta: u32,
    /// Critical sections completed per second by the locking writer.
    pub sections_per_sec: f64,
    /// Network messages per critical section.
    pub msgs_per_section: f64,
}

/// E9: the test&set experiment — a locking writer and a busy-testing
/// reader thrash the lock page; Δ>0 shelters the writer.
pub fn test_and_set(deltas: &[u32], tester_yields: bool, seconds: u64) -> Vec<SpinlockPoint> {
    par_map(deltas, |&d| {
        let mut w = World::new(2, sim_config(Delta(d)));
        let seg = w.create_segment(0, 1);
        w.spawn(0, Box::new(LockHolder::new(seg, u32::MAX / 4, 8)), 1);
        w.spawn(1, Box::new(LockTester::new(seg, u32::MAX / 4, tester_yields)), 1);
        w.run_until(SimTime::from_millis(seconds * 1000));
        let sections = w.sites[0].procs[0].metric().max(1);
        SpinlockPoint {
            delta: d,
            sections_per_sec: sections as f64 / seconds as f64,
            msgs_per_section: w.instr.msgs.total() as f64 / sections as f64,
        }
    })
}

/// E10 result: system throughput while an application thrashes.
#[derive(Clone, Copy, Debug)]
pub struct ThrashPoint {
    /// Δ in ticks.
    pub delta: u32,
    /// Thrasher cycles per second.
    pub app_rate: f64,
    /// Background compute chunks per second (other work on the site).
    pub bg_rate: f64,
}

/// E10: raising Δ throttles the thrasher but frees the system.
pub fn thrash_system(deltas: &[u32], seconds: u64) -> Vec<ThrashPoint> {
    par_map(deltas, |&d| {
        let mut w = World::new(2, sim_config(Delta(d)));
        let seg = w.create_segment(0, 1);
        w.spawn(0, Box::new(PingPongPinger::new(seg, u32::MAX / 4, true)), 1);
        w.spawn(1, Box::new(PingPongPonger::new(seg, true)), 1);
        w.spawn(1, Box::new(Background::new(SimDuration::from_millis(5))), 0);
        w.run_until(SimTime::from_millis(seconds * 1000));
        ThrashPoint {
            delta: d,
            app_rate: w.sites[0].procs[0].metric() as f64 / seconds as f64,
            bg_rate: w.sites[1].procs[1].metric() as f64 / seconds as f64,
        }
    })
}

/// M1 result row: one placement-policy arm of the hot-spot workload.
#[derive(Clone, Debug)]
pub struct MigrationRow {
    /// Policy arm name.
    pub policy: &'static str,
    /// Remote faults taken by the hot site (site 2).
    pub hot_remote_faults: u64,
    /// Remote faults world-wide.
    pub remote_faults: u64,
    /// Faults served inline by a colocated library.
    pub local_faults: u64,
    /// Combined accesses per second over the makespan.
    pub throughput: f64,
    /// Where the segment's library role ended up.
    pub final_library: u16,
}

/// M1: library placement on a hot-spot workload. The segment's library
/// is created at site 0, but the traffic comes from elsewhere: a hot
/// read-modify-write loop at site 2 duels a periodic pure writer at
/// site 1 over false-shared words of the same page. Each steal cycle
/// costs the hot site *two* library requests (read fault, then §6.1
/// write upgrade) against the writer's one, so the §9 reference log
/// shows site 2 dominating — and with the role pinned at its creation
/// site every one of those requests pays the remote path. The three
/// arms run the identical workload with placement off, a manual
/// one-shot handoff to the hot site, and the live advisor loop — which
/// should discover the same move on its own and cut the hot site's
/// remote-fault count. Δ = 0 keeps the duel unthrottled so the fault
/// stream is dense enough to advise on.
pub fn migration_hotspot(task: u32) -> Vec<MigrationRow> {
    let arms: [(&'static str, u8); 3] = [("off", 0), ("manual", 1), ("advised", 2)];
    par_map(&arms, |&(policy, arm)| {
        let protocol = ProtocolConfig {
            delta: DeltaPolicy::Uniform(Delta(0)),
            retry: Some(RetryPolicy::default()),
            ..Default::default()
        };
        let mut w = World::new(3, SimConfig { protocol, ..Default::default() });
        let seg = w.create_segment(0, 1);
        w.spawn(2, Box::new(Decrementer::new(seg, 128, task * 150)), 1);
        w.spawn(1, Box::new(PeriodicWriter::new(seg, task, SimDuration::from_millis(10))), 1);
        match arm {
            1 => w.set_placement_policy(PlacementPolicy::Manual(vec![MigrationEvent {
                at: SimTime::from_millis(300),
                seg,
                to: SiteId(2),
                shard: None,
            }])),
            2 => w.set_placement_policy(PlacementPolicy::Advised {
                interval: SimDuration::from_millis(100),
                window: SimDuration::from_millis(1_000),
                min_requests: 8,
                hysteresis: 2,
            }),
            _ => {}
        }
        let finished = w.run_to_completion(SimTime::from_millis(600_000));
        debug_assert!(finished, "M1 {policy}: hot-spot run must converge");
        let makespan = w.now().as_secs_f64();
        MigrationRow {
            policy,
            hot_remote_faults: w.instr.remote_faults_by_site[2],
            remote_faults: w.instr.remote_faults,
            local_faults: w.instr.local_faults,
            throughput: w.total_accesses() as f64 / makespan,
            final_library: w.library_site(seg).map_or(0, |s| s.0),
        }
    })
}

/// M2 result row: one placement-policy arm of the sharded hot-spot
/// workload.
#[derive(Clone, Debug)]
pub struct ShardMigrationRow {
    /// Policy arm name.
    pub policy: &'static str,
    /// Remote faults taken by the two hot sites (1 and 2).
    pub hot_remote_faults: [u64; 2],
    /// Remote faults world-wide.
    pub remote_faults: u64,
    /// Faults served inline by a colocated library shard.
    pub local_faults: u64,
    /// Combined accesses per second over the makespan.
    pub throughput: f64,
    /// Where each library shard's role ended up.
    pub shard_sites: Vec<u16>,
}

/// M2: *range-sharded* library placement. One four-page segment is
/// split into two two-page shards (`shard_pages = 2`), and each shard
/// has its own hot spot at a different site: site 1 duels over page 0
/// (shard 0) while site 2 duels over page 2 (shard 1), each against a
/// periodic writer at site 3. A whole-segment library could satisfy at
/// most one hot site; per-range placement moves shard 0 to site 1 and
/// shard 1 to site 2 independently. Arms mirror M1: placement off, a
/// manual per-shard schedule, and the live advisor (which must discover
/// both moves from the shard-bucketed reference log).
pub fn migration_hotspot_sharded(task: u32) -> Vec<ShardMigrationRow> {
    let arms: [(&'static str, u8); 3] = [("off", 0), ("manual", 1), ("advised", 2)];
    par_map(&arms, |&(policy, arm)| {
        let protocol = ProtocolConfig {
            delta: DeltaPolicy::Uniform(Delta(0)),
            retry: Some(RetryPolicy::default()),
            shard_pages: 2,
            ..Default::default()
        };
        let mut w = World::new(4, SimConfig { protocol, ..Default::default() });
        let seg = w.create_segment(0, 4);
        w.spawn(1, Box::new(Decrementer::on_page(seg, PageNum(0), 128, task * 150)), 4);
        w.spawn(2, Box::new(Decrementer::on_page(seg, PageNum(2), 128, task * 150)), 4);
        let period = SimDuration::from_millis(10);
        w.spawn(3, Box::new(PeriodicWriter::on_page(seg, PageNum(0), task, period)), 4);
        w.spawn(3, Box::new(PeriodicWriter::on_page(seg, PageNum(2), task, period)), 4);
        match arm {
            1 => w.set_placement_policy(PlacementPolicy::Manual(vec![
                MigrationEvent {
                    at: SimTime::from_millis(300),
                    seg,
                    to: SiteId(1),
                    shard: Some(0),
                },
                MigrationEvent {
                    at: SimTime::from_millis(300),
                    seg,
                    to: SiteId(2),
                    shard: Some(1),
                },
            ])),
            2 => w.set_placement_policy(PlacementPolicy::Advised {
                interval: SimDuration::from_millis(100),
                window: SimDuration::from_millis(1_000),
                min_requests: 8,
                hysteresis: 2,
            }),
            _ => {}
        }
        let finished = w.run_to_completion(SimTime::from_millis(600_000));
        debug_assert!(finished, "M2 {policy}: sharded hot-spot run must converge");
        let makespan = w.now().as_secs_f64();
        ShardMigrationRow {
            policy,
            hot_remote_faults: [
                w.instr.remote_faults_by_site[1],
                w.instr.remote_faults_by_site[2],
            ],
            remote_faults: w.instr.remote_faults,
            local_faults: w.instr.local_faults,
            throughput: w.total_accesses() as f64 / makespan,
            shard_sites: (0..2)
                .map(|s| w.library_shard_site(seg, s).map_or(0, |site| site.0))
                .collect(),
        }
    })
}

/// S1 result row: one (seed, arm) point of the false-sharing sweep.
#[derive(Clone, Debug)]
pub struct FalseSharingRow {
    /// Workload seed.
    pub seed: u64,
    /// Whether diff-based write propagation was on.
    pub delta_grants: bool,
    /// Data-carrying grants served (full pages + deltas).
    pub serves: u64,
    /// Of those, full 512-byte `PageGrant`s.
    pub full_grants: u64,
    /// Of those, `PageGrantDelta` diffs.
    pub delta_grants_sent: u64,
    /// Grant payload bytes on the wire (1024 per full grant — the §7.2
    /// page buffer — plus each delta's encoded size).
    pub wire_bytes: u64,
    /// `wire_bytes / serves`.
    pub bytes_per_serve: f64,
    /// Simulated completion time under the size-aware cost model (ms).
    pub makespan_ms: f64,
}

/// S1: two writers on disjoint halves of one page (the false-sharing
/// workload), with delta grants off and on, at Δ=0 so every transfer
/// pays the wire. The off arm ships 1024 bytes per serve; the on arm
/// should ship a few words once the steady-state shadow pair forms,
/// and finish sooner because the size-aware cost model charges deltas
/// by their encoded size.
pub fn false_sharing(seeds: &[u64], writes: u32) -> Vec<FalseSharingRow> {
    let runs: Vec<(u64, bool)> = seeds.iter().flat_map(|&s| [(s, false), (s, true)]).collect();
    par_map(&runs, |&(seed, delta_grants)| {
        let protocol = ProtocolConfig {
            delta: DeltaPolicy::Uniform(Delta(0)),
            delta_grants,
            ..Default::default()
        };
        let mut w = World::new(2, SimConfig { protocol, ..Default::default() });
        let seg = w.create_segment(0, 1);
        w.spawn(0, Box::new(FalseSharing::new(seg, 0, seed, writes)), 1);
        w.spawn(1, Box::new(FalseSharing::new(seg, 1, seed, writes)), 1);
        let finished = w.run_to_completion(SimTime::from_millis(600_000));
        debug_assert!(finished, "S1 seed {seed}: false-sharing run must finish");
        let full_grants = w.instr.msgs.count(mirage_net::MsgKind::PageGrant);
        let delta_grants_sent = w.instr.msgs.count(mirage_net::MsgKind::PageGrantDelta);
        let serves = full_grants + delta_grants_sent;
        let wire_bytes = w.instr.msgs.payload(mirage_net::MsgKind::PageGrant)
            + w.instr.msgs.payload(mirage_net::MsgKind::PageGrantDelta);
        FalseSharingRow {
            seed,
            delta_grants,
            serves,
            full_grants,
            delta_grants_sent,
            wire_bytes,
            bytes_per_serve: wire_bytes as f64 / serves.max(1) as f64,
            makespan_ms: w.now().as_secs_f64() * 1000.0,
        }
    })
}

/// A1–A3 result row.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Configuration name.
    pub name: &'static str,
    /// Worst-case cycles per second.
    pub cycles_per_sec: f64,
    /// Short messages per cycle.
    pub shorts_per_cycle: f64,
    /// Page-carrying messages per cycle.
    pub larges_per_cycle: f64,
}

/// A1/A2/A3: toggle each protocol feature on the worst case (Δ=2, the
/// contended regime where the optimizations matter).
pub fn ablation_opts(seconds: u64) -> Vec<AblationRow> {
    let base = ProtocolConfig { delta: DeltaPolicy::Uniform(Delta(2)), ..Default::default() };
    let configs: Vec<(&'static str, ProtocolConfig)> = vec![
        ("paper defaults", base.clone()),
        (
            "A1: no upgrade optimization",
            ProtocolConfig { upgrade_optimization: false, ..base.clone() },
        ),
        (
            "A2: no downgrade optimization",
            ProtocolConfig { downgrade_optimization: false, ..base.clone() },
        ),
        (
            "A3: queued invalidation ON",
            ProtocolConfig { queued_invalidation: true, ..base.clone() },
        ),
        (
            "A1+A2: both optimizations off",
            ProtocolConfig {
                upgrade_optimization: false,
                downgrade_optimization: false,
                ..base
            },
        ),
    ];
    par_map(&configs, |(name, cfg)| {
        let mut w =
            pingpong_world(2, SimConfig { protocol: cfg.clone(), ..Default::default() }, true);
        w.run_until(SimTime::from_millis(seconds * 1000));
        let cycles = w.sites[0].procs[0].metric().max(1);
        AblationRow {
            name,
            cycles_per_sec: cycles as f64 / seconds as f64,
            shorts_per_cycle: w.instr.msgs.short as f64 / cycles as f64,
            larges_per_cycle: w.instr.msgs.large as f64 / cycles as f64,
        }
    })
}

/// A4 result row.
#[derive(Clone, Copy, Debug)]
pub struct InvScalePoint {
    /// Number of reader sites invalidated.
    pub readers: usize,
    /// Milliseconds for the write to complete, sequential invalidation.
    pub sequential_ms: f64,
    /// Milliseconds for the write to complete, multicast invalidation.
    pub multicast_ms: f64,
}

/// A4: invalidation cost versus reader count, sequential (the paper's
/// Locus constraint) versus multicast (§7.1 caveat 2).
pub fn invalidation_scaling(reader_counts: &[usize]) -> Vec<InvScalePoint> {
    let runs: Vec<(usize, bool)> =
        reader_counts.iter().flat_map(|&n| [(n, false), (n, true)]).collect();
    let times = par_map(&runs, |&(n, multicast)| {
        let cfg = SimConfig {
            protocol: ProtocolConfig {
                multicast_invalidation: multicast,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut w = World::new(n + 2, cfg);
        let seg = w.create_segment(0, 1);
        // Readers 1..=n each take a read copy.
        for s in 1..=n {
            w.spawn(s, Box::new(Rereader::new(seg, 1, SimDuration::ZERO)), 1);
        }
        w.run_to_completion(SimTime::from_millis(60_000));
        // The last site writes, invalidating all n readers.
        let start = w.now();
        w.spawn(n + 1, Box::new(PeriodicWriter::new(seg, 1, SimDuration::ZERO)), 1);
        w.run_to_completion(SimTime::from_millis(120_000));
        (w.now() - start).as_millis_f64()
    });
    reader_counts
        .iter()
        .zip(times.chunks_exact(2))
        .map(|(&n, pair)| InvScalePoint {
            readers: n,
            sequential_ms: pair[0],
            multicast_ms: pair[1],
        })
        .collect()
}

/// B1 result row.
#[derive(Clone, Debug)]
pub struct BaselineRow {
    /// Protocol name.
    pub protocol: &'static str,
    /// Trace name.
    pub trace: &'static str,
    /// Aggregate costs.
    pub report: CostReport,
}

/// B1: identical access traces through Mirage and both Li protocols.
///
/// The default report leaves Tardis out, so its table (and the report
/// golden built on it) predates the timestamp protocol;
/// [`baseline_compare_with_tardis`] adds the fourth rival.
pub fn baseline_compare() -> Vec<BaselineRow> {
    baseline_compare_rows(false)
}

/// [`baseline_compare`] plus a Tardis row per trace: the real engine
/// under [`ProtocolConfig::tardis`], driven by the same trace adapter as
/// the Mirage row.
pub fn baseline_compare_with_tardis() -> Vec<BaselineRow> {
    baseline_compare_rows(true)
}

fn baseline_compare_rows(include_tardis: bool) -> Vec<BaselineRow> {
    let costs = NetCosts::vax_locus();
    let traces: Vec<(&'static str, AccessTrace, usize)> = vec![
        ("ping-pong ×250", AccessTrace::ping_pong(250), 2),
        ("read-mostly 4r", AccessTrace::read_mostly(4, 100, 20), 5),
        ("mixed 4s×4p", AccessTrace::mixed(4, 4, 4000, 7), 4),
    ];
    let per_trace = par_map(&traces, |(name, trace, sites)| {
        let mut mirage = MirageCost::new(*sites, 4, ProtocolConfig::default(), costs.clone());
        let mut central = LiCentral::new(SiteId(0), costs.clone());
        let mut dist = LiDistributed::new(*sites, SiteId(0), costs.clone());
        let mut rows = vec![
            BaselineRow { protocol: "mirage", trace: name, report: mirage.replay(trace) },
            BaselineRow { protocol: "li-central", trace: name, report: central.replay(trace) },
            BaselineRow { protocol: "li-distributed", trace: name, report: dist.replay(trace) },
        ];
        if include_tardis {
            let mut tardis =
                MirageCost::new(*sites, 4, ProtocolConfig::tardis(), costs.clone());
            rows.push(BaselineRow {
                protocol: "tardis",
                trace: name,
                report: tardis.replay(trace),
            });
        }
        rows
    });
    per_trace.into_iter().flatten().collect()
}

/// T1 result row: one scenario under one coherence protocol.
#[derive(Clone, Debug)]
pub struct TimestampRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Protocol label (`mirage`, `li`, or `tardis`).
    pub protocol: &'static str,
    /// Shared-memory accesses completed inside the horizon.
    pub accesses: u64,
    /// Engine events processed per simulated second — the progress
    /// measure that is meaningful even when a scenario makes no
    /// application progress (the spin row under Tardis).
    pub events_per_sec: f64,
    /// Total protocol messages sent.
    pub msgs: u64,
    /// Payload bytes on the wire (full pages, deltas, write-backs).
    pub wire_bytes: u64,
    /// Data-free lease renewals granted (`TsRenew` — Tardis only).
    pub renewals: u64,
    /// Invalidation messages (`Invalidate` + `ReaderInvalidate` —
    /// Mirage/Li only; Tardis never messages a reader).
    pub invalidations: u64,
    /// Owner write-back recalls (`TsRecall` — Tardis only).
    pub recalls: u64,
}

/// The three full-engine protocol configurations T1 compares. Mirage
/// runs the paper's prototype at Δ=6 (the Figure 8 knee); the rivals
/// are the Li–Hudak degenerate and Tardis with a short lease (2): T1's
/// horizons are seconds of simulated time, and program timestamps
/// advance a tick or two per ownership transfer (tens of wall-clock
/// milliseconds on the paper's network), so the default lease of 8
/// would let hardly any lease expire inside the table's window.
fn t1_protocols() -> [(&'static str, ProtocolConfig); 3] {
    [
        ("mirage", ProtocolConfig::paper(Delta(6))),
        ("li", ProtocolConfig::li()),
        ("tardis", ProtocolConfig { ts_lease: 2, ..ProtocolConfig::tardis() }),
    ]
}

/// Runs one already-populated world to the horizon and reads the T1
/// metrics off the instrumentation counters.
fn t1_measure(
    scenario: &'static str,
    protocol: &'static str,
    mut w: World,
    horizon: SimTime,
) -> TimestampRow {
    w.run_until(horizon);
    let secs = w.now().as_secs_f64().max(1e-9);
    let m = &w.instr.msgs;
    TimestampRow {
        scenario,
        protocol,
        accesses: w.total_accesses(),
        events_per_sec: w.engine_events() as f64 / secs,
        msgs: m.total(),
        wire_bytes: m.payload_bytes,
        renewals: m.count(mirage_net::MsgKind::TsRenew),
        invalidations: m.count(mirage_net::MsgKind::Invalidate)
            + m.count(mirage_net::MsgKind::ReaderInvalidate),
        recalls: m.count(mirage_net::MsgKind::TsRecall),
    }
}

/// Aggregates the T1 metrics over a batch of traced fault-storm seeds
/// replayed under one protocol (the bit-identical cross-protocol
/// worlds from the fuzz matrix, faults and all).
fn t1_storm(
    scenario: &'static str,
    name: &'static str,
    seeds: std::ops::Range<u64>,
) -> TimestampRow {
    let fp = mirage_sim::FuzzProtocol::from_name(name).expect("t1 protocol name");
    let mut row = TimestampRow {
        scenario,
        protocol: name,
        accesses: 0,
        events_per_sec: 0.0,
        msgs: 0,
        wire_bytes: 0,
        renewals: 0,
        invalidations: 0,
        recalls: 0,
    };
    let mut sim_secs = 0.0f64;
    let mut engine_events = 0u64;
    for seed in seeds {
        let (outcome, events) = mirage_sim::run_fuzz_seed_protocol_traced(seed, fp);
        assert!(outcome.is_ok(), "T1 storm seed {seed} under {name}: {}", outcome.describe());
        sim_secs += events.last().map_or(0.0, |ev| ev.at.as_secs_f64());
        engine_events += events.len() as u64;
        let reg = mirage_trace::from_trace(&events);
        for ev in &events {
            if ev.kind != mirage_trace::TraceKind::MsgSent {
                continue;
            }
            let Some(msg) = ev.msg else { continue };
            row.msgs += 1;
            match msg.name() {
                "TsRenew" => row.renewals += 1,
                "TsRecall" => row.recalls += 1,
                "Invalidate" | "ReaderInvalidate" => row.invalidations += 1,
                _ => {}
            }
        }
        for kind in ["PageGrant", "LibraryHandoff", "TsReadData", "TsWriteGrant", "TsWriteBack"]
        {
            row.wire_bytes += reg.counter(&format!("wire.bytes.{kind}"));
        }
        row.wire_bytes += reg.counter("wire.bytes.PageGrantDelta");
        row.accesses += reg.counter("copy.installs") + reg.counter("ts.installs");
    }
    row.events_per_sec = engine_events as f64 / sim_secs.max(1e-9);
    row
}

/// T1: the renewal-versus-invalidation matrix. Every scenario runs the
/// *same* world shape under the three coherence protocols (Mirage at
/// Δ=6, Li–Hudak, Tardis at a 2-version lease) and reports events/sec,
/// messages, bytes on the wire, and the renewal/invalidation/recall
/// split.
///
/// Scenario notes:
///
/// * `spin ping-pong` makes **no application progress under Tardis** by
///   design: the ponger's reads are stale-but-leased hits, its program
///   timestamp only advances at protocol events, and a site doing
///   nothing but reads never expires its own lease. This is the
///   documented physical-Δ vs logical-lease trade (DESIGN.md
///   "Timestamp coherence"); the engine-events column shows the world
///   is live even though the cycle count is not moving.
/// * `renewal mix` is the shape Tardis is built for: private-page
///   write faults drag each site's timestamp forward, so the shared
///   page's leases expire and renew data-free while Mirage/Li pay a
///   reader-set invalidation for every periodic write.
/// * `fault storm ×N` replays the cross-protocol fuzz worlds (faulty
///   network, crashes, restarts) and aggregates, tying the table to
///   the same seeds CI sweeps.
pub fn timestamp_compare(quick: bool) -> Vec<TimestampRow> {
    let horizon = SimTime::from_millis(if quick { 1_000 } else { 6_000 });
    let scenarios: &[&'static str] =
        &["spin ping-pong", "decrement duel", "renewal mix", "reader fan-out", "false sharing"];
    let runs: Vec<(&'static str, &'static str, ProtocolConfig)> = scenarios
        .iter()
        .flat_map(|&s| t1_protocols().map(|(name, cfg)| (s, name, cfg)))
        .collect();
    let mut rows = par_map(&runs, |(scenario, name, cfg)| {
        let cfg = SimConfig { protocol: cfg.clone(), ..Default::default() };
        let w = match *scenario {
            "spin ping-pong" => pingpong_world(2, cfg, true),
            "decrement duel" => {
                let mut w = World::new(2, cfg);
                let seg = w.create_segment(0, 1);
                w.spawn(0, Box::new(Decrementer::new(seg, 0, u32::MAX / 2)), 1);
                w.spawn(1, Box::new(Decrementer::new(seg, 128, u32::MAX / 2)), 1);
                w
            }
            "renewal mix" => {
                let mut w = World::new(5, cfg);
                let seg = w.create_segment(0, 5);
                // The home site bumps the shared page 0 occasionally —
                // rarely enough that most Tardis lease expiries find
                // the version unchanged and renew data-free. (A faster
                // writer would turn every re-read into a full fetch
                // and hide the renewal column this row exists to
                // measure; lease expiries land every ~180 ms of sim
                // time here.)
                w.spawn(
                    0,
                    Box::new(PeriodicWriter::new(
                        seg,
                        u32::MAX / 2,
                        SimDuration::from_millis(400),
                    )),
                    1,
                );
                // …while site pairs {1,2} and {3,4} duel over their own
                // write pages and poll the shared one. The write pages
                // must be *contended*: an uncontested owner writes
                // locally forever, its program timestamp never moves,
                // and its lease on page 0 never expires — no renewals
                // to measure.
                for s in 1..5u32 {
                    w.spawn(
                        s as usize,
                        Box::new(WriteReadMix::new(
                            seg,
                            PageNum(1 + (s - 1) / 2),
                            PageNum(0),
                            SimDuration::from_micros(500),
                        )),
                        1,
                    );
                }
                w
            }
            "reader fan-out" => {
                let mut w = World::new(10, cfg);
                let seg = w.create_segment(0, 1);
                for s in 1..=8 {
                    w.spawn(
                        s,
                        Box::new(Rereader::new(seg, u32::MAX / 2, SimDuration::from_millis(2))),
                        1,
                    );
                }
                w.spawn(
                    9,
                    Box::new(PeriodicWriter::new(
                        seg,
                        u32::MAX / 2,
                        SimDuration::from_millis(10),
                    )),
                    1,
                );
                w
            }
            "false sharing" => {
                let mut w = World::new(2, cfg);
                let seg = w.create_segment(0, 1);
                w.spawn(0, Box::new(FalseSharing::new(seg, 0, 5, u32::MAX / 2)), 1);
                w.spawn(1, Box::new(FalseSharing::new(seg, 1, 5, u32::MAX / 2)), 1);
                w
            }
            other => unreachable!("unknown T1 scenario {other}"),
        };
        t1_measure(scenario, name, w, horizon)
    });
    // The storm aggregate reuses the fuzz-matrix worlds; its seeds are
    // small so the quick table stays quick.
    let seeds = if quick { 0..3 } else { 0..8 };
    let storm_label: &'static str = if quick { "fault storm ×3" } else { "fault storm ×8" };
    let storm: Vec<(&'static str, std::ops::Range<u64>)> =
        t1_protocols().map(|(name, _)| (name, seeds.clone())).to_vec();
    rows.extend(par_map(&storm, |(name, seeds)| t1_storm(storm_label, name, seeds.clone())));
    rows
}

/// E3 row: modeled lazy-remap cost at context switch per segment size.
#[derive(Clone, Copy, Debug)]
pub struct RemapRow {
    /// Segment size in KiB.
    pub kib: usize,
    /// Pages remapped.
    pub pages: usize,
    /// Modeled cost in µs (110 µs/page — inside the measured 106–125).
    pub model_us: f64,
}

/// E3: remap cost scaling up to the 128 KiB configuration limit.
pub fn remap_model() -> Vec<RemapRow> {
    [1usize, 4, 16, 64, 128]
        .iter()
        .map(|&kib| {
            let pages = kib * 1024 / mirage_types::PAGE_SIZE;
            RemapRow { kib, pages, model_us: pages as f64 * 110.0 }
        })
        .collect()
}

/// A5 result row: dynamic Δ versus fixed values.
#[derive(Clone, Debug)]
pub struct DynamicRow {
    /// Configuration label.
    pub name: String,
    /// Figure 8 duel throughput (read-write instr/s).
    pub fig8_throughput: f64,
    /// Worst-case ping-pong rate (cycles/s).
    pub pingpong_rate: f64,
}

/// A5: the §8.0 dynamic tuning routine (disabled in the paper's
/// prototype, implemented here) against fixed windows, on both the
/// retention-sensitive duel (`task` decrements per process) and the
/// thrash-sensitive worst case (`seconds` of ping-pong).
pub fn dynamic_delta_with(task: u32, seconds: u64) -> Vec<DynamicRow> {
    let policies = [
        ("fixed Δ=0", DeltaPolicy::Uniform(Delta(0))),
        ("fixed Δ=6", DeltaPolicy::Uniform(Delta(6))),
        ("fixed Δ=60", DeltaPolicy::Uniform(Delta(60))),
        (
            "dynamic (0..600)",
            DeltaPolicy::Dynamic { initial: Delta(2), min: Delta(0), max: Delta(600) },
        ),
    ];
    par_map(&policies, |(name, policy)| {
        let protocol = ProtocolConfig { delta: policy.clone(), ..Default::default() };
        // Figure 8 duel (short version).
        let mut w =
            World::new(2, SimConfig { protocol: protocol.clone(), ..Default::default() });
        let seg = w.create_segment(0, 1);
        w.spawn(0, Box::new(Decrementer::new(seg, 0, task)), 1);
        w.spawn(1, Box::new(Decrementer::new(seg, 128, task)), 1);
        w.run_to_completion(SimTime::from_millis(300_000));
        let fig8_throughput = w.total_accesses() as f64 / w.now().as_secs_f64();
        // Worst-case ping-pong.
        let mut w = World::new(2, SimConfig { protocol, ..Default::default() });
        let seg = w.create_segment(0, 1);
        w.spawn(0, Box::new(PingPongPinger::new(seg, u32::MAX / 4, true)), 1);
        w.spawn(1, Box::new(PingPongPonger::new(seg, true)), 1);
        w.run_until(SimTime::from_millis(seconds * 1000));
        let pingpong_rate = w.sites[0].procs[0].metric() as f64 / seconds as f64;
        DynamicRow { name: name.to_string(), fig8_throughput, pingpong_rate }
    })
}

// ---------------------------------------------------------------------------
// L1: open-loop latency distributions and saturation knees.

/// One measured rung of the L1 open-loop ladder: three stations (sites
/// 1–3 of a 4-site world) inject Poisson demands at `rate` req/s each
/// against a 4-page segment, and every granted request's sojourn
/// (arrival → grant) feeds an exact-quantile [`LatencySet`](mirage_trace::LatencySet).
#[derive(Clone, Debug)]
pub struct OpenLoopRow {
    /// Protocol name (`mirage` / `li` / `tardis`).
    pub protocol: &'static str,
    /// Config variant (`base` / `delta_grants` / `shard`).
    pub config: &'static str,
    /// Whether a fault storm ran under the schedule.
    pub storm: bool,
    /// Offered load per station, requests per simulated second.
    pub rate: u64,
    /// Demands scheduled across all stations.
    pub offered: u64,
    /// Demands granted before the drain deadline.
    pub granted: u64,
    /// Median sojourn (arrival → grant) over granted requests, µs.
    pub p50_us: u64,
    /// 99th-percentile sojourn, µs.
    pub p99_us: u64,
    /// Mean sojourn, µs.
    pub mean_us: u64,
    /// Deepest station queue observed at any submit.
    pub max_depth: u32,
}

/// The saturation knee of one protocol × config combination, found by
/// integer bisection on the offered-load axis.
#[derive(Clone, Debug)]
pub struct KneeRow {
    /// Protocol name.
    pub protocol: &'static str,
    /// Config variant.
    pub config: &'static str,
    /// p99 sojourn at the unloaded anchor rate, µs.
    pub unloaded_p99_us: u64,
    /// Smallest probed per-station rate that saturates (req/s), or the
    /// ladder ceiling if nothing saturated.
    pub knee_rate: u64,
    /// p99 sojourn at the knee, µs.
    pub p99_at_knee_us: u64,
    /// Percent of offered demands granted at the knee.
    pub granted_pct: u64,
}

/// The protocol × config combinations L1 sweeps. Protocols reuse the
/// T1 configurations (Mirage at the paper's Δ=6 knee, the Li–Hudak
/// degenerate, Tardis with the short lease); the two Mirage variants
/// add sub-page delta grants and a 2-page library shard split.
fn l1_combos() -> Vec<(&'static str, &'static str, ProtocolConfig)> {
    let mut combos: Vec<(&'static str, &'static str, ProtocolConfig)> =
        t1_protocols().into_iter().map(|(name, cfg)| (name, "base", cfg)).collect();
    combos.push((
        "mirage",
        "delta_grants",
        ProtocolConfig { delta_grants: true, ..ProtocolConfig::paper(Delta(6)) },
    ));
    combos.push((
        "mirage",
        "shard",
        ProtocolConfig { shard_pages: 2, ..ProtocolConfig::paper(Delta(6)) },
    ));
    combos
}

/// Sim-time an L1 world accepts arrivals for, and the post-schedule
/// drain allowance before latencies are read (ungranted records stay
/// ungranted and count against completion — rival protocols can starve
/// outright past saturation, so the drain must not wait for them).
fn l1_horizons(quick: bool) -> (SimDuration, SimDuration) {
    if quick {
        (SimDuration::from_millis(1_000), SimDuration::from_millis(3_000))
    } else {
        (SimDuration::from_millis(2_000), SimDuration::from_millis(6_000))
    }
}

/// A moderate L1 storm plan: drops, delays, and one mid-schedule crash
/// of station-site 2. Deterministic per seed; `horizon` should cover
/// the arrival window so the drain happens on a clean network.
fn l1_storm_plan(seed: u64, horizon: SimTime) -> mirage_net::FaultPlan {
    let mut plan = mirage_net::FaultPlan::none();
    plan.seed = seed;
    plan.horizon = horizon;
    plan.gap_wait = SimDuration::from_millis(25);
    plan.default_link = mirage_net::LinkFaults {
        drop_pm: 150,
        dup_pm: 100,
        delay_pm: 500,
        max_delay: SimDuration::from_millis(8),
    };
    plan.crashes.push(mirage_net::CrashEvent {
        site: SiteId(2),
        at: SimTime::ZERO + SimDuration::from_millis(300),
        back_at: SimTime::ZERO + SimDuration::from_millis(500),
    });
    plan
}

/// Runs one L1 world and reduces its records to an [`OpenLoopRow`].
///
/// The arrival schedules depend only on `rate` and the shared seed —
/// never on the protocol — so every combo at a given rung replays the
/// bit-identical demand sequence and rows are directly comparable.
fn openloop_run(
    protocol: &'static str,
    config: &'static str,
    mut proto_cfg: ProtocolConfig,
    rate: u64,
    quick: bool,
    storm: bool,
) -> OpenLoopRow {
    use mirage_trace::{
        LatencyPhase,
        LatencySet,
    };
    use mirage_workloads::{
        build_demands,
        latency_records,
        sample_arrivals,
        ArrivalProcess,
    };

    let (arrive, drain) = l1_horizons(quick);
    if storm {
        proto_cfg.retry = Some(RetryPolicy::default());
    }
    let cfg = SimConfig { protocol: proto_cfg, ..Default::default() };
    let mut w = World::new(4, cfg);
    let seg = w.create_segment(0, 4);
    if storm {
        w.install_fault_plan(l1_storm_plan(0x0057_084D ^ rate, SimTime::ZERO + arrive));
    }
    let mut stations = Vec::new();
    for site in 1..4usize {
        // One PRNG stream per (station, rate): schedules are identical
        // across protocols and configs at the same rung.
        let mut rng = mirage_types::Prng::new(0x0001_1AD7_0000 ^ (rate << 8) ^ site as u64);
        let arrivals = sample_arrivals(
            ArrivalProcess::Poisson { rate_per_sec: rate as f64 },
            &mut rng,
            arrive,
        );
        let profile = mirage_workloads::DemandProfile {
            seg,
            pages: 4,
            write_offset: site * 4,
            read_words: 4,
            write_pct: 20,
            value_base: (site as u32) * 1_000_000,
        };
        let (demands, _) = build_demands(&arrivals, &profile, &mut rng);
        stations.push(w.install_open_loop(mirage_sim::OpenLoopStation {
            site,
            demands,
            workers: 1,
            shm_pages: 4,
        }));
    }
    w.run_until(SimTime::ZERO + arrive + drain);

    let mut set = LatencySet::new();
    let mut offered = 0u64;
    let mut max_depth = 0u32;
    for st in &stations {
        offered += st.lock().expect("station poisoned").records.len() as u64;
        for r in latency_records(st) {
            max_depth = max_depth.max(r.depth_at_submit);
            set.push(r);
        }
    }
    let q = |p: f64| set.quantile_ns(LatencyPhase::Sojourn, p).unwrap_or(0) / 1_000;
    OpenLoopRow {
        protocol,
        config,
        storm,
        rate,
        offered,
        granted: set.len() as u64,
        p50_us: q(0.50),
        p99_us: q(0.99),
        mean_us: set.mean_ns(LatencyPhase::Sojourn) / 1_000,
        max_depth,
    }
}

/// The offered-load rungs of the L1 ladder (per-station req/s).
fn l1_ladder_rates(quick: bool) -> Vec<u64> {
    if quick {
        vec![5, 20, 80, 320]
    } else {
        vec![5, 10, 20, 40, 80, 160, 320, 640]
    }
}

/// L1 ladder: every protocol × config combo at every rung, in combo-
/// major order. Each world is independent, so the sweep fans out
/// through [`par_map`] and the output is byte-identical at any `--jobs`.
pub fn openloop_ladder(quick: bool) -> Vec<OpenLoopRow> {
    let mut points = Vec::new();
    for (protocol, config, cfg) in l1_combos() {
        for rate in l1_ladder_rates(quick) {
            points.push((protocol, config, cfg.clone(), rate));
        }
    }
    par_map(&points, |(protocol, config, cfg, rate)| {
        openloop_run(protocol, config, cfg.clone(), *rate, quick, false)
    })
}

/// The same ladder's middle rung re-run under the L1 fault storm, per
/// combo: latency distributions under drops, delays, and a crash.
pub fn openloop_storm(quick: bool) -> Vec<OpenLoopRow> {
    let combos = l1_combos();
    par_map(&combos, |(protocol, config, cfg)| {
        openloop_run(protocol, config, cfg.clone(), 20, quick, true)
    })
}

/// Whether a rung counts as saturated: p99 sojourn beyond
/// `L1_KNEE_MULT` × the unloaded p99, or more than 1 % of demands
/// never granted by the drain deadline (rival protocols can starve
/// outright in overload, which no latency quantile of the granted
/// subset would show).
const L1_KNEE_MULT: u64 = 8;

fn l1_saturated(row: &OpenLoopRow, unloaded_p99_us: u64) -> bool {
    row.granted * 100 < row.offered * 99 || row.p99_us > unloaded_p99_us * L1_KNEE_MULT
}

/// L1 knee finder: integer bisection on the offered-load axis for the
/// lowest saturating rate. The unloaded anchor is the ladder's bottom
/// rung; the ceiling is its top. Bisection stops at 12.5 % relative
/// resolution, so the whole search is a bounded, deterministic probe
/// sequence (every probe a fresh world with the shared arrival seed).
pub fn openloop_knees(quick: bool) -> Vec<KneeRow> {
    let rates = l1_ladder_rates(quick);
    let (floor, ceil) = (rates[0], *rates.last().expect("ladder non-empty"));
    let combos = l1_combos();
    par_map(&combos, |(protocol, config, cfg)| {
        let run = |rate: u64, storm: bool| {
            openloop_run(protocol, config, cfg.clone(), rate, quick, storm)
        };
        let unloaded = run(floor, false);
        let unloaded_p99_report = unloaded.p99_us;
        let unloaded_p99 = unloaded.p99_us.max(1);
        // Establish the bracket: lo never saturated, hi saturated (or
        // the ceiling, if the combo never saturates in range).
        let (mut lo, mut hi) = (floor, ceil);
        let mut at_hi = run(hi, false);
        if l1_saturated(&unloaded, unloaded_p99) {
            // Already saturated at the anchor (can't happen with the
            // multiplicative predicate, kept for the completion arm).
            hi = lo;
            at_hi = unloaded;
        } else if !l1_saturated(&at_hi, unloaded_p99) {
            // Never saturates in range: report the ceiling rung.
            return KneeRow {
                protocol,
                config,
                unloaded_p99_us: unloaded_p99_report,
                knee_rate: ceil,
                p99_at_knee_us: at_hi.p99_us,
                granted_pct: at_hi.granted * 100 / at_hi.offered.max(1),
            };
        }
        while hi - lo > (lo / 8).max(1) {
            let mid = lo + (hi - lo) / 2;
            let probe = run(mid, false);
            if l1_saturated(&probe, unloaded_p99) {
                hi = mid;
                at_hi = probe;
            } else {
                lo = mid;
            }
        }
        KneeRow {
            protocol,
            config,
            unloaded_p99_us: unloaded_p99_report,
            knee_rate: hi,
            p99_at_knee_us: at_hi.p99_us,
            granted_pct: at_hi.granted * 100 / at_hi.offered.max(1),
        }
    })
}

/// The merged sojourn CDF of one combo at one rate, as the exact
/// `(value, cumulative)` text rendering from [`cdf_text`](mirage_trace::LatencySet::cdf_text)
/// — the `repro l1-cdf` table.
pub fn openloop_cdf(quick: bool, rate: u64) -> String {
    use mirage_trace::{
        LatencyPhase,
        LatencySet,
    };
    let (protocol, config, cfg) = l1_combos().into_iter().next().expect("combos");
    let _ = openloop_run(protocol, config, cfg.clone(), rate, quick, false);
    // Re-run capturing the set itself (openloop_run reduces to a row).
    let mut set = LatencySet::new();
    {
        use mirage_workloads::{
            build_demands,
            latency_records,
            sample_arrivals,
            ArrivalProcess,
        };
        let (arrive, drain) = l1_horizons(quick);
        let mut w = World::new(4, SimConfig { protocol: cfg, ..Default::default() });
        let seg = w.create_segment(0, 4);
        let mut stations = Vec::new();
        for site in 1..4usize {
            let mut rng = mirage_types::Prng::new(0x0001_1AD7_0000 ^ (rate << 8) ^ site as u64);
            let arrivals = sample_arrivals(
                ArrivalProcess::Poisson { rate_per_sec: rate as f64 },
                &mut rng,
                arrive,
            );
            let profile = mirage_workloads::DemandProfile {
                seg,
                pages: 4,
                write_offset: site * 4,
                read_words: 4,
                write_pct: 20,
                value_base: (site as u32) * 1_000_000,
            };
            let (demands, _) = build_demands(&arrivals, &profile, &mut rng);
            stations.push(w.install_open_loop(mirage_sim::OpenLoopStation {
                site,
                demands,
                workers: 1,
                shm_pages: 4,
            }));
        }
        w.run_until(SimTime::ZERO + arrive + drain);
        for st in &stations {
            for r in latency_records(st) {
                set.push(r);
            }
        }
    }
    set.cdf_text(LatencyPhase::Sojourn)
}
