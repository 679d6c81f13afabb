//! The simulator workloads: `repro_full` (the paper reproduction) and
//! `fanout_1024` (1,024 readers, then one writer invalidating them).

use std::hint::black_box;
use std::time::Instant;

use mirage_bench::{
    ablation_opts,
    baseline_compare,
    component_costs,
    dynamic_delta_with,
    fig7,
    fig8,
    invalidation_scaling,
    local_pingpong,
    migration_hotspot,
    msg_accounting,
    remap_model,
    repro_all_report,
    sim_config,
    table3,
    test_and_set,
    thrash_system,
    ReproParams,
};
use mirage_sim::World;
use mirage_types::{
    Delta,
    SegmentId,
    SimDuration,
    SimTime,
};
use mirage_workloads::{
    PeriodicWriter,
    Rereader,
};

use crate::{
    closed_loop,
    fnv64,
    layers::Group,
    metric,
    peak_rss_mb,
    span::Tracer,
    Args,
    Metric,
    Timed,
};

/// FNV-1a of the full-scale `repro_all` report (any `--jobs`).
pub const FULL_REPORT_FNV: u64 = 0xd6a6_67ee_ee8b_4084;
/// FNV-1a of the `--quick` report, the committed golden
/// `crates/bench/tests/golden/repro_all_quick.txt`.
pub const QUICK_REPORT_FNV: u64 = 0xf567_b43a_0901_630a;

/// Set-ups per `repro_full` run (the set-up is a `--quick` report).
const REPRO_SETUPS: usize = 5;

/// Checks a report against its pin, saying on stderr what differed.
pub fn report_ok(report: &str, want: u64, what: &str) -> bool {
    let got = fnv64(report.as_bytes());
    if got != want {
        eprintln!("repro_full: {what} report fnv64 {got:#018x}, pinned {want:#018x}");
    }
    got == want
}

pub fn repro_timed(args: &Args) -> Timed {
    let mut t = Timed::new();
    for _ in 0..REPRO_SETUPS {
        let start = Instant::now();
        let quick = repro_all_report(&ReproParams::quick());
        t.setup_s.push(start.elapsed().as_secs_f64());
        t.correct &= report_ok(&quick, QUICK_REPORT_FNV, "quick");
    }
    let params = ReproParams::full();
    closed_loop(&mut t, args.seconds, 1, |t| {
        let start = Instant::now();
        let report = repro_all_report(&params);
        t.pass(start.elapsed().as_secs_f64());
        t.attempted += 1;
        if !report_ok(&report, FULL_REPORT_FNV, "full") {
            t.failed += 1;
            t.correct = false;
        }
        // After the warm-up pass, before the reference kernel's buffer.
        if t.attempted == 1 {
            t.peak_rss_mb = peak_rss_mb();
        }
    });
    t
}

/// Reader sites of the fan-out world.
pub const READERS: usize = 1024;

/// The fan-out world before it runs: 1,026 sites, the library at site
/// 0, one re-reader on each of sites 1..=1024 (the writer, site 1025,
/// is spawned after the read phase).
pub fn fanout_world() -> (World, SegmentId) {
    let mut w = World::new(READERS + 2, sim_config(Delta(0)));
    let seg = w.create_segment(0, 1);
    for s in 1..=READERS {
        w.spawn(s, Box::new(Rereader::new(seg, 1, SimDuration::ZERO)), 1);
    }
    (w, seg)
}

/// Every reader takes a read copy of the page. Returns whether all
/// finished before the deadline.
pub fn read_phase(w: &mut World) -> bool {
    w.run_to_completion(SimTime::from_millis(60_000))
}

/// One writer takes the page, invalidating every read copy.
pub fn invalidate_phase(w: &mut World, seg: SegmentId) -> bool {
    w.spawn(READERS + 1, Box::new(PeriodicWriter::new(seg, 1, SimDuration::ZERO)), 1);
    w.run_to_completion(SimTime::from_millis(120_000))
}

/// The simulated outcome of one fan-out world, pinned exactly.
#[derive(Debug, PartialEq)]
pub struct FanoutCounts {
    pub read_events: u64,
    pub driver_events: u64,
    pub msgs: u64,
    pub reader_invalidations: u64,
    pub remote_faults: u64,
    /// Simulated end time in microseconds.
    pub end_us: u64,
}

pub const FANOUT_PIN: FanoutCounts = FanoutCounts {
    read_events: 3_072,
    driver_events: 5_123,
    msgs: 4_098,
    reader_invalidations: 1_024,
    remote_faults: 1_025,
    end_us: 19_832_050,
};

pub fn fanout_counts(w: &World, read_events: u64) -> FanoutCounts {
    FanoutCounts {
        read_events,
        driver_events: w.engine_events(),
        msgs: w.instr.msgs.total(),
        reader_invalidations: w.instr.reader_invalidations,
        remote_faults: w.instr.remote_faults,
        end_us: (w.now() - SimTime::ZERO).0 / 1_000,
    }
}

/// Checks one finished world against [`FANOUT_PIN`].
pub fn fanout_ok(done: bool, counts: &FanoutCounts) -> bool {
    let ok = done && *counts == FANOUT_PIN;
    if !ok {
        eprintln!("fanout_1024: completed={done}, got {counts:?}, pinned {FANOUT_PIN:?}");
    }
    ok
}

pub fn fanout_timed(args: &Args) -> Timed {
    let mut t = Timed::new();
    closed_loop(&mut t, args.seconds, 3, |t| {
        let start = Instant::now();
        let (mut w, seg) = fanout_world();
        t.setup_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let mut done = read_phase(&mut w);
        let read_events = w.engine_events();
        done &= invalidate_phase(&mut w, seg);
        t.pass(start.elapsed().as_secs_f64());
        t.attempted += 1;
        if !fanout_ok(done, &fanout_counts(&w, read_events)) {
            t.failed += 1;
            t.correct = false;
        }
        // The peak of the warm-up world, before the reference kernel's
        // buffer: later passes build each world on a heap the earlier
        // ones fragmented, which adds a few MB that depend on how many
        // passes fit in the run.
        if t.attempted == 1 {
            t.peak_rss_mb = peak_rss_mb();
        }
    });
    t
}

/// Traced `repro_full`: the report once without spans (checked against
/// its pin), then each of its experiment sections called on its own in
/// a span. The sections skip the report's table rendering.
pub fn repro_layers(tr: &mut Tracer, out: &mut Vec<Metric>) -> Group {
    let p = ReproParams::full();
    let start = Instant::now();
    let correct = report_ok(&repro_all_report(&p), FULL_REPORT_FNV, "full");
    let plain_s = start.elapsed().as_secs_f64();

    let root = tr.enter("repro.report", 1);
    black_box((component_costs(), table3(), remap_model()));
    let sections: [(&'static str, &dyn Fn()); 11] = [
        ("repro.e4_s", &|| {
            black_box(local_pingpong(p.pingpong_seconds));
        }),
        ("repro.e5_s", &|| {
            black_box(fig7(&p.fig7_deltas, p.fig7_seconds));
        }),
        ("repro.e6_s", &|| {
            black_box(msg_accounting(p.msg_seconds));
        }),
        ("repro.e7_s", &|| {
            black_box(fig8(&p.fig8_deltas, p.fig8_task));
        }),
        ("repro.e9_s", &|| {
            black_box(test_and_set(&p.tas_deltas, false, p.tas_seconds));
        }),
        ("repro.e10_s", &|| {
            black_box(thrash_system(&p.thrash_deltas, p.thrash_seconds));
        }),
        ("repro.a1a3_s", &|| {
            black_box(ablation_opts(p.ablation_seconds));
        }),
        ("repro.a5_s", &|| {
            black_box(dynamic_delta_with(p.dyn_task, p.dyn_seconds));
        }),
        ("repro.a4_s", &|| {
            black_box(invalidation_scaling(&p.inv_readers));
        }),
        ("repro.b1_s", &|| {
            black_box(baseline_compare());
        }),
        ("repro.m1_s", &|| {
            black_box(migration_hotspot(p.migration_task));
        }),
    ];
    for (name, f) in &sections {
        let _ = tr.time(name, 1, f);
    }
    let traced_s = tr.exit(root);
    out.extend(sections.iter().map(|(name, _)| metric(name, "s", tr.self_s(name))));
    Group { correct, attempted: 1, failed: u64::from(!correct), overhead_s: traced_s - plain_s }
}

/// Traced `fanout_1024`: one world without spans, then one with a span
/// per phase.
pub fn fanout_layers(tr: &mut Tracer, out: &mut Vec<Metric>) -> Group {
    let (mut w, seg) = fanout_world();
    let start = Instant::now();
    let mut done = read_phase(&mut w);
    let read_events = w.engine_events();
    done &= invalidate_phase(&mut w, seg);
    let plain_s = start.elapsed().as_secs_f64();
    let plain_ok = fanout_ok(done, &fanout_counts(&w, read_events));
    drop(w);

    let root = tr.enter("sim.world", 1);
    let ((mut w, seg), _) = tr.time("sim.build", 1, fanout_world);
    let (mut done, read_s) = tr.time("sim.read_phase", 1, || read_phase(&mut w));
    let read_events = w.engine_events();
    let (inv_done, inv_s) =
        tr.time("sim.invalidate_phase", 1, || invalidate_phase(&mut w, seg));
    let _ = tr.exit(root);
    done &= inv_done;
    let c = fanout_counts(&w, read_events);
    let traced_ok = fanout_ok(done, &c);
    out.extend([
        metric("sim.read_phase_s", "s", read_s),
        metric("sim.invalidate_phase_s", "s", inv_s),
        metric("sim.read_phase_ns_per_event", "ns", read_s * 1e9 / c.read_events as f64),
        metric(
            "sim.invalidate_phase_ns_per_event",
            "ns",
            inv_s * 1e9 / (c.driver_events - c.read_events) as f64,
        ),
        metric("sim.driver_events", "count", c.driver_events as f64),
        metric("sim.msgs", "count", c.msgs as f64),
        metric("sim.reader_invalidations", "count", c.reader_invalidations as f64),
        metric("sim.remote_faults", "count", c.remote_faults as f64),
        metric("sim.end_ms", "ms", c.end_us as f64 / 1e3),
    ]);
    Group {
        correct: plain_ok && traced_ok,
        attempted: 2,
        failed: u64::from(!plain_ok) + u64::from(!traced_ok),
        overhead_s: read_s + inv_s - plain_s,
    }
}
