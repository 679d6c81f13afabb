//! Regression: a library with many queued requests must not make the
//! event loop quadratic.
//!
//! Every request that reaches a busy library site leaves one wake for
//! it, and every such wake re-queues itself after each serve. Those
//! duplicates are observable, so they all stay, but a run of them is
//! one queue entry. This pins the fan-out worlds of the A4
//! invalidation-scaling experiment to a queue-pop count linear in the
//! protocol work, and checks they still run to completion.

use mirage_core::{
    DeltaPolicy,
    ProtocolConfig,
};
use mirage_sim::{
    SimConfig,
    World,
};
use mirage_types::{
    Delta,
    SimDuration,
    SimTime,
};
use mirage_workloads::{
    PeriodicWriter,
    Rereader,
};

/// `readers` sites each read one page, then one writer invalidates
/// every copy. Returns the finished world.
fn fanout(readers: usize) -> World {
    let cfg = SimConfig {
        protocol: ProtocolConfig {
            delta: DeltaPolicy::Uniform(Delta(0)),
            ..Default::default()
        },
        ..Default::default()
    };
    let mut w = World::new(readers + 2, cfg);
    let seg = w.create_segment(0, 1);
    for s in 1..=readers {
        w.spawn(s, Box::new(Rereader::new(seg, 1, SimDuration::ZERO)), 1);
    }
    assert!(w.run_to_completion(SimTime::from_millis(60_000)), "{readers} readers: read phase");
    assert!(w.stuck_pids().is_empty());
    w.spawn(readers + 1, Box::new(PeriodicWriter::new(seg, 1, SimDuration::ZERO)), 1);
    assert!(
        w.run_to_completion(SimTime::from_millis(120_000)),
        "{readers} readers: write phase"
    );
    assert!(w.stuck_pids().is_empty());
    w
}

#[test]
fn fanout_queue_pops_stay_linear_in_driver_events() {
    for readers in [64, 256] {
        let w = fanout(readers);
        let work = w.loop_counters();
        let events = w.engine_events();
        assert!(
            work.queue_pops <= 4 * events,
            "{readers} readers: {} queue pops for {events} driver events",
            work.queue_pops
        );
        // The library's duplicate wakes are all still delivered; they
        // just ride in runs, so far fewer entries pop than wakes.
        assert!(
            work.wakes > 2 * work.queue_pops,
            "{readers} readers: {} wakes in {} pops",
            work.wakes,
            work.queue_pops
        );
        assert_eq!(w.instr.reader_invalidations, readers as u64);
        assert_eq!(w.total_accesses(), readers as u64 + 1);
    }
}
