//! Differential test: enabling protocol tracing must be *pure
//! observation*. The traced run and the untraced run of the same
//! workload must agree on every simulated observable — the clock, the
//! event count, the instrumentation, the reference log, and the final
//! page bytes. Tracing buys a causal event record; it may not buy even
//! one nanosecond of simulated time.

use mirage_sim::{
    program::Script,
    world::{
        SimConfig,
        World,
    },
    FuzzFamily,
    FuzzOutcome,
    FuzzProtocol,
    MemRef,
    Op,
};
use mirage_trace::TraceEvent;
use mirage_types::{
    PageNum,
    SegmentId,
    SimDuration,
    SimTime,
};
use mirage_workloads::run_fuzz_seed_openloop;

/// The fault_differential workload: writers on two sites ping-ponging
/// two pages while a third site reads both.
fn build(traced: bool) -> (World, SegmentId) {
    let mut world = World::new(3, SimConfig::default());
    world.enable_ref_log();
    if traced {
        world.enable_tracing();
    }
    let seg = world.create_segment(0, 2);
    let p0 = PageNum(0);
    let p1 = PageNum(1);
    for site in 0..2 {
        let mut ops = Vec::new();
        for i in 0..25u32 {
            let page = if i % 2 == 0 { p0 } else { p1 };
            ops.push(Op::Write(MemRef::new(seg, page, site * 4), i));
            ops.push(Op::Read(MemRef::new(seg, page, (1 - site) * 4)));
            if i % 5 == 0 {
                ops.push(Op::Yield);
            }
        }
        ops.push(Op::Exit);
        world.spawn(site, Box::new(Script::new(ops)), 2);
    }
    let mut reader_ops = Vec::new();
    for i in 0..30u32 {
        let page = if i % 3 == 0 { p0 } else { p1 };
        reader_ops.push(Op::Read(MemRef::new(seg, page, ((i % 2) * 4) as usize)));
        reader_ops.push(Op::Compute(SimDuration::from_micros(500)));
    }
    reader_ops.push(Op::Exit);
    world.spawn(2, Box::new(Script::new(reader_ops)), 2);
    (world, seg)
}

fn page_bytes(world: &World, seg: SegmentId, page: PageNum) -> Vec<Option<Vec<u8>>> {
    world
        .sites
        .iter()
        .map(|s| {
            s.store.segment(seg).and_then(|ls| ls.frame(page)).map(|f| f.as_bytes().to_vec())
        })
        .collect()
}

#[test]
fn tracing_is_invisible_to_the_simulation() {
    let (mut plain, seg_a) = build(false);
    let (mut traced, seg_b) = build(true);
    assert_eq!(seg_a, seg_b);

    let deadline = SimTime::ZERO + SimDuration::from_millis(600_000);
    assert!(plain.run_to_completion(deadline), "untraced run must complete");
    assert!(traced.run_to_completion(deadline), "traced run must complete");

    // Same simulated clock, event for event.
    assert_eq!(plain.now(), traced.now());
    assert_eq!(plain.engine_events(), traced.engine_events());

    // Same observable work.
    assert_eq!(plain.total_accesses(), traced.total_accesses());
    assert_eq!(plain.total_metric(), traced.total_metric());

    // Same instrumentation, down to per-kind message counts.
    assert_eq!(plain.instr.msgs.short, traced.instr.msgs.short);
    assert_eq!(plain.instr.msgs.large, traced.instr.msgs.large);
    assert_eq!(plain.instr.msgs.by_kind, traced.instr.msgs.by_kind);
    assert_eq!(plain.instr.remote_faults, traced.instr.remote_faults);
    assert_eq!(plain.instr.denials, traced.instr.denials);
    assert_eq!(plain.instr.reader_invalidations, traced.instr.reader_invalidations);
    assert_eq!(plain.instr.upgrades, traced.instr.upgrades);

    // Same reference log (§9) and final page bytes at every site.
    assert_eq!(plain.ref_log, traced.ref_log);
    for page in [PageNum(0), PageNum(1)] {
        assert_eq!(page_bytes(&plain, seg_a, page), page_bytes(&traced, seg_b, page));
    }

    // The untraced run collected nothing; the traced run collected a
    // self-consistent causal record of the same execution.
    assert!(plain.trace_events().is_empty());
    let trace = traced.trace_events();
    assert!(!trace.is_empty(), "traced run produced no events");
    // Every traced timestamp lies within the simulated run.
    assert!(trace.iter().all(|e| e.at <= traced.now()));
    let report = mirage_trace::check(trace);
    assert!(report.violations.is_empty(), "trace checker: {:?}", report.violations);
}

/// The same invariance must hold under fault storms, in every fuzz
/// family: for a spread of seeds, the traced scenario reaches the
/// identical outcome — completion, access counts, violations, and
/// fault-layer statistics — as the untraced one. (The fuzz generators
/// derive everything from the seed; any drift here means tracing leaked
/// into scheduling or RNG state.)
#[test]
fn traced_fuzz_seeds_match_untraced_outcomes() {
    type Run = fn(u64, bool) -> Vec<(FuzzOutcome, Vec<TraceEvent>)>;
    let families: [(&str, Run, &[u64]); 8] = [
        ("classic", |s, t| FuzzFamily::Classic(FuzzProtocol::Mirage).run(s, t), SEEDS),
        ("li", |s, t| FuzzFamily::Classic(FuzzProtocol::Li).run(s, t), SEEDS),
        ("tardis", |s, t| FuzzFamily::Classic(FuzzProtocol::Tardis).run(s, t), SEEDS),
        ("migrate", |s, t| FuzzFamily::Migrate.run(s, t), SEEDS),
        ("delta", |s, t| FuzzFamily::Delta.run(s, t), SEEDS),
        ("matrix", |s, t| FuzzFamily::Matrix.run(s, t), &[0, 7, 42]),
        ("large", |s, t| FuzzFamily::Large(None).run(s, t), &[0, 7]),
        ("openloop", |s, t| vec![run_fuzz_seed_openloop(s, t)], SEEDS),
    ];
    const SEEDS: &[u64] = &[0, 1, 7, 13, 42, 99, 123, 1000];
    for (name, run, seeds) in families {
        for &seed in seeds {
            let plain = run(seed, false);
            let traced = run(seed, true);
            assert_eq!(plain.len(), traced.len(), "{name} seed {seed}: run count diverged");
            for ((plain, untraced), (traced, trace)) in plain.iter().zip(&traced) {
                let at = format!("{name} seed {seed}");
                assert_eq!(plain.completed, traced.completed, "{at}: completion diverged");
                assert_eq!(plain.accesses, traced.accesses, "{at}: access count diverged");
                assert_eq!(
                    plain.violations, traced.violations,
                    "{at}: violation sets diverged"
                );
                assert_eq!(plain.stats, traced.stats, "{at}: fault stats diverged");
                assert!(untraced.is_empty(), "{at}: untraced run collected events");
                assert!(!trace.is_empty(), "{at}: traced run produced no events");
            }
        }
    }
}
