//! The observability report: dedicated traced runs summarized through
//! the metrics registry.
//!
//! The repro binaries' default output is golden-pinned, so metrics are
//! never derived from the experiment runs themselves — a *separate*
//! traced run of the same scenario produces the trace (tracing is
//! behaviour-invisible, so it measures the identical execution), and
//! [`mirage_trace::from_trace`] turns it into counters and histograms.
//! Per-seed registries merge commutatively, so a `--jobs N` sweep
//! renders the same report at any worker count.

use mirage_core::{
    DeltaPolicy,
    ProtocolConfig,
};
use mirage_sim::{
    run_fuzz_seed_protocol_traced,
    FuzzProtocol,
    SimConfig,
    World,
};
use mirage_trace::{
    from_trace,
    Registry,
};
use mirage_types::{
    Delta,
    SimTime,
};
use mirage_workloads::{
    FalseSharing,
    PingPongPinger,
    PingPongPonger,
};

use crate::{
    experiments::sim_config,
    harness::par_map,
};

/// Metrics from one traced worst-case ping-pong run (the Figure 7
/// scenario) at the given Δ.
pub fn traced_pingpong_metrics(delta: u32, seconds: u64) -> Registry {
    let mut w = World::new(2, sim_config(Delta(delta)));
    w.enable_tracing();
    let seg = w.create_segment(0, 1);
    w.spawn(0, Box::new(PingPongPinger::new(seg, u32::MAX / 4, true)), 1);
    w.spawn(1, Box::new(PingPongPonger::new(seg, true)), 1);
    w.run_until(SimTime::from_millis(seconds * 1000));
    from_trace(w.trace_events())
}

/// Metrics merged across a traced fault-storm sweep. Each seed runs on
/// its own worker; per-seed registries are merged in input order, and
/// the merge itself is commutative, so the result is independent of the
/// worker count. Panics if any seed fails either coherence oracle —
/// metrics from an incoherent run would be lies.
pub fn traced_storm_metrics(seeds: &[u64]) -> Registry {
    let shards = par_map(seeds, |&seed| {
        let (outcome, trace) = run_fuzz_seed_protocol_traced(seed, FuzzProtocol::Mirage);
        assert!(outcome.is_ok(), "{}", outcome.describe());
        from_trace(&trace)
    });
    let mut merged = Registry::new();
    for shard in &shards {
        merged.merge(shard);
    }
    merged
}

/// Metrics from one traced false-sharing run (the S1 scenario: two
/// writers on disjoint halves of one page at Δ=0) with sub-page delta
/// grants on or off. The delta-mode registry surfaces the
/// full-vs-delta grant split and the per-kind bytes-on-wire counters
/// (`grant.full_sent` / `grant.delta_sent` / `wire.bytes.*`).
pub fn traced_false_sharing_metrics(delta_grants: bool, writes: u32) -> Registry {
    let protocol = ProtocolConfig {
        delta: DeltaPolicy::Uniform(Delta(0)),
        delta_grants,
        ..Default::default()
    };
    let mut w = World::new(2, SimConfig { protocol, ..Default::default() });
    w.enable_tracing();
    let seg = w.create_segment(0, 1);
    w.spawn(0, Box::new(FalseSharing::new(seg, 0, 1, writes)), 1);
    w.spawn(1, Box::new(FalseSharing::new(seg, 1, 1, writes)), 1);
    w.run_to_completion(SimTime::from_millis(600_000));
    from_trace(w.trace_events())
}

/// Renders the full observability section: ping-pong protocol metrics
/// at two Δ settings, the S1 false-sharing wire-byte split with delta
/// grants off and on, plus a merged fault-storm summary.
pub fn observability_report(quick: bool) -> String {
    let (seconds, seeds): (u64, Vec<u64>) =
        if quick { (2, (0..8).collect()) } else { (10, (0..64).collect()) };
    let mut out = String::new();
    out.push_str("# Observability — protocol metrics from traced runs\n");
    for delta in [0u32, 6] {
        out.push_str(&format!("\n## ping-pong, Δ={delta} ({seconds}s simulated)\n\n"));
        out.push_str(&traced_pingpong_metrics(delta, seconds).render());
    }
    let writes = if quick { 300 } else { 2_000 };
    for delta_grants in [false, true] {
        out.push_str(&format!(
            "\n## false sharing (S1), delta grants {} ({writes} writes/site)\n\n",
            if delta_grants { "on" } else { "off" }
        ));
        out.push_str(&traced_false_sharing_metrics(delta_grants, writes).render());
    }
    out.push_str(&format!("\n## fault storm, {} seeds merged\n\n", seeds.len()));
    out.push_str(&traced_storm_metrics(&seeds).render());
    out
}
